(* The fault-tolerance policy the serve loop runs under, and what it
   reports.  [Serve.run_policy] takes a [config]; [Serve.run] is that loop
   at [zero].  {!Chaos} re-exports every type here and documents it. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module Mix = Uhm_fault.Mix
module Resilient = Uhm_fault.Resilient

type brownout = {
  bo_window : int;
  bo_hi_detections : int;
  bo_hi_wait : int;
  bo_shed_above : int;
  bo_hysteresis : int;
  bo_quarantine : int;
}

let default_brownout =
  {
    bo_window = 200_000;
    bo_hi_detections = 8;
    bo_hi_wait = 400_000;
    bo_shed_above = 4;
    bo_hysteresis = 100_000;
    bo_quarantine = 250_000;
  }

type config = {
  c_fault : Resilient.config;
  c_job_retry_limit : int;
  c_job_backoff : int;
  c_deadline : int option;
  c_brownout : brownout option;
}

let zero =
  {
    c_fault = Resilient.zero;
    c_job_retry_limit = 2;
    c_job_backoff = 4096;
    c_deadline = None;
    c_brownout = None;
  }

type job_report = {
  cj_id : int;
  cj_attempts : int;
  cj_injected : int;
  cj_detected : int;
  cj_retries : int;
  cj_rollbacks : int;
  cj_downgraded : bool;
  cj_interp_admit : bool;
  cj_output : string;
  cj_arch_hash : int;
  cj_state_ok : bool;
}

type chaos_summary = {
  cs_slo_met : int;
  cs_slo_completed : int;
  cs_attainment : float;
  cs_goodput : float;
  cs_deadline_misses : int;
  cs_failed_jobs : int;
  cs_job_retries : int;
  cs_injected : int;
  cs_detected : int;
  cs_recovery_retries : int;
  cs_rollbacks : int;
  cs_downgrades : int;
  cs_interp_admits : int;
  cs_quarantines : int;
  cs_brownout_transitions : int;
  cs_max_stage : int;
}

type solo_ref = { sr_status : Machine.status; sr_output : string; sr_arch_hash : int }

(* The fault-free solo run of one template: the reference every accepted
   completion is verified against ("never a wrong answer" made literal).
   Run through the same Resilient machinery at the never-preempt quantum,
   so status, output and arch fingerprint come from the identical
   execution semantics as the in-service attempt. *)
let solo_reference ?timing ?fuel ?layout ?backend ~config (name, encoded) =
  let r =
    Resilient.run_encoded ?timing ?fuel ?layout ?backend ~trace_capacity:16
      ~policy:Dtb.Flush_on_switch ~quantum:Mix.solo_quantum ~config
      ~fconfig:Resilient.zero
      [ (name, encoded) ]
  in
  match r.Resilient.rr_programs with
  | [ p ] ->
      {
        sr_status = p.Resilient.pr_status;
        sr_output = p.Resilient.pr_output;
        sr_arch_hash = p.Resilient.pr_arch_hash;
      }
  | _ -> assert false
