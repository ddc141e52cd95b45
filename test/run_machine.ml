(* The host machine, PSDER, the core strategies, the golden simulator
   outputs and the execution backends. *)
let () =
  Runner.run "uhm-machine"
    [
      Test_machine.suite;
      Test_psder.suite;
      Test_core.suite;
      Test_golden.suite;
      Test_backend.suite;
    ]
