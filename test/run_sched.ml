(* Sweeps, crash-safe campaigns and multiprogramming. *)
let () =
  Runner.run "uhm-sched"
    [ Test_sweep.suite; Test_campaign.suite; Test_resume.suite; Test_sched.suite;
      Test_frozen.mix_suite ]
