(* The fault machinery, fault-tolerant serving and the frozen goldens. *)
let () =
  Runner.run "uhm-fault"
    [ Test_fault.suite; Test_chaos.suite; Test_frozen.suite ]
