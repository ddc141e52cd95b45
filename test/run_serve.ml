(* The open-arrival service. *)
let () = Runner.run "uhm-serve" [ Test_serve.suite ]
