(* Fault-tolerant serving; see chaos.mli.  The loop is Serve's: this
   module names its fault policy and packages what the loop reports. *)

include Fault_policy

type result = {
  cv_serve : Serve.result;
  cv_fconfig : config;
  cv_reports : job_report list;
  cv_summary : chaos_summary;
}

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ?admission
    ?economy ~policy ~quantum ~config ~fconfig ~slots ~templates ~arrivals () =
  let cv_serve, cv_reports, cv_summary =
    Serve.run_policy ?timing ?fuel ?layout ?backend ?trace_capacity
      ?scheduler ?admission ?economy ~policy ~quantum ~config ~fconfig ~slots
      ~templates ~arrivals ()
  in
  { cv_serve; cv_fconfig = fconfig; cv_reports; cv_summary }
