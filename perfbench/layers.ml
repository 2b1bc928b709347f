(* The traced run's reader: folds the engine's spans and counters
   (Fppn_obs.Trace.hotspots, Fppn_obs.Metrics.counters), the
   benchmark's own spans and its outside timers into the per-layer
   metric names.  A metric whose layer a workload does not exercise
   reads 0. *)

type kind = Engine | Service

type inputs = {
  kind : kind;
  setup : Acc.t;  (** every set-up of the run *)
  untraced : Acc.t;
  untraced_gc : Stats.gc_mark;  (** allocation over the untraced phase *)
  traced : Acc.t;
  traced_wall_s : float;  (** wall time of the traced phase's loop *)
  hotspots : Fppn_obs.Trace.hotspot list;
  counters : (string * int) list;
  job_spans : (string, unit) Hashtbl.t;
  probe : Acc.t;
  verify_s : float;  (** the oracle's cost over the whole run *)
  setup_peak_mb : float;  (** largest major heap up to the last set-up *)
  calibration_ms : float;
  failed_share : float;
}

(* name, unit, per-layer metric this benchmark reports *)
let names =
  [
    ("setup.peak_heap_mb", "MB");
    ("taskgraph.derive_s", "s");
    ("sched.schedule_s", "s");
    ("runtime.prologue_self_ms", "ms");
    ("runtime.compile_per_run", "count");
    ("runtime.compile_self_ms", "ms");
    ("runtime.exec_setup_self_ms", "ms");
    ("runtime.replay_self_ms", "ms");
    ("runtime.replay_share", "share");
    ("runtime.eventloop_self_ms", "ms");
    ("runtime.skipped_share", "share");
    ("runtime.queue_pushes_per_job", "count");
    ("runtime.run_us", "us");
    ("runtime.materialize_us", "us");
    ("runtime.bytes_per_job", "B");
    ("runtime.major_gcs_per_kjob", "count");
    ("fppn.bodies_self_ms", "ms");
    ("service.submit_ns_per_event", "ns");
    ("service.dispatch_ms", "ms");
    ("service.engine_share", "share");
    ("service.legalize_us", "us");
    ("service.events_drained", "count");
    ("service.events_consumed", "count");
    ("service.events_dropped", "count");
    ("service.events_backpressure", "count");
    ("service.register_ms", "ms");
    ("service.register_p90_ms", "ms");
    ("service.admission_decide_ms", "ms");
    ("service.build_plan_ms", "ms");
    ("service.accepted_share", "share");
    ("service.retire_us", "us");
    ("service.verify_ms", "ms");
    ("util.pool_domains", "count");
    ("util.pool_steals_per_epoch", "count");
    ("util.pool_speedup", "ratio");
    ("obs.trace_overhead", "share");
    ("obs.unattributed_share", "share");
    ("host.calibration_ms", "ms");
    ("failed_share", "share");
  ]

let hotspot x name =
  List.find_opt (fun h -> String.equal h.Fppn_obs.Trace.hname name) x.hotspots

let calls x name = match hotspot x name with Some h -> h.calls | None -> 0
let self_ns x name = match hotspot x name with Some h -> h.self_ns | None -> 0
let total_ns x name = match hotspot x name with Some h -> h.total_ns | None -> 0

let counter x name =
  Option.value (List.assoc_opt name x.counters) ~default:0

let is_bench_span h =
  String.length h.Fppn_obs.Trace.hname > 6
  && String.sub h.Fppn_obs.Trace.hname 0 6 = "bench."

let compute x =
  let fl = float_of_int in
  let runs = fl (calls x "engine.run") in
  let per_run_ms ns = Stats.ratio (fl ns) runs /. 1e6 in
  let epochs acc = fl (Acc.count acc "epochs") in
  let per_epoch acc name = Stats.ratio (fl (Acc.count acc name)) (epochs acc) in
  let median acc name = Stats.median (Acc.timer_samples acc name) in
  let mean acc name = Stats.mean (Acc.timer_samples acc name) in
  let engine = x.kind = Engine and service = x.kind = Service in
  let only cond v = if cond then v else 0. in
  (* registrations: the churn loop's, else those of the set-ups *)
  let reg_acc =
    if Stats.count (Acc.timer x.untraced "register") > 0 then x.untraced
    else x.setup
  in
  let executed = counter x "engine.jobs_executed" in
  let skipped = counter x "engine.jobs_skipped" in
  let bodies_ns =
    List.fold_left
      (fun acc h ->
        if Hashtbl.mem x.job_spans h.Fppn_obs.Trace.hname then
          acc + h.Fppn_obs.Trace.self_ns
        else acc)
      0 x.hotspots
  in
  let bench_ns =
    List.fold_left
      (fun acc h -> if is_bench_span h then acc + h.Fppn_obs.Trace.total_ns else acc)
      0 x.hotspots
  in
  let ujobs = fl x.untraced.Acc.jobs in
  [
    ("setup.peak_heap_mb", x.setup_peak_mb);
    ( "taskgraph.derive_s",
      if engine then median x.setup "derive" else mean x.probe "probe_derive" );
    ( "sched.schedule_s",
      if engine then median x.setup "schedule" else mean x.probe "probe_schedule" );
    ("runtime.prologue_self_ms", per_run_ms (self_ns x "engine.run"));
    ("runtime.compile_per_run", Stats.ratio (fl (calls x "engine.compile")) runs);
    ("runtime.compile_self_ms", per_run_ms (self_ns x "engine.compile"));
    ("runtime.exec_setup_self_ms", per_run_ms (self_ns x "engine.exec.ticks"));
    ("runtime.replay_self_ms", per_run_ms (self_ns x "engine.replay"));
    ("runtime.replay_share", Stats.ratio (fl (counter x "engine.replays")) runs);
    ("runtime.eventloop_self_ms", per_run_ms (self_ns x "engine.eventloop"));
    ("runtime.skipped_share", Stats.ratio (fl skipped) (fl (executed + skipped)));
    ( "runtime.queue_pushes_per_job",
      Stats.ratio (fl (counter x "engine.queue_pushes")) (fl executed) );
    ("runtime.run_us", only engine (median x.untraced "run" *. 1e6));
    ("runtime.materialize_us", only engine (median x.untraced "materialize" *. 1e6));
    ("runtime.bytes_per_job", Stats.ratio x.untraced_gc.Stats.bytes ujobs);
    ( "runtime.major_gcs_per_kjob",
      Stats.ratio (fl x.untraced_gc.Stats.majors *. 1000.) ujobs );
    ("fppn.bodies_self_ms", per_run_ms bodies_ns);
    ( "service.submit_ns_per_event",
      only service
        (Stats.ratio
           (Stats.total (Acc.timer x.untraced "submit") *. 1e9)
           (fl (Acc.count x.untraced "submitted_events"))) );
    ( "service.dispatch_ms",
      only service
        (Stats.ratio (fl (self_ns x "bench.service.run_epoch")) (epochs x.traced)
        /. 1e6) );
    ( "service.engine_share",
      only service
        (Stats.ratio
           (fl (total_ns x "engine.run"))
           (fl (total_ns x "bench.service.run_epoch"))) );
    ("service.legalize_us", only service (mean x.probe "probe_legalize" *. 1e6));
    ("service.events_drained", per_epoch x.untraced "events_drained");
    ("service.events_consumed", per_epoch x.untraced "events_consumed");
    ("service.events_dropped", per_epoch x.untraced "events_dropped");
    ("service.events_backpressure", per_epoch x.untraced "events_backpressure");
    ("service.register_ms", only service (median reg_acc "register" *. 1e3));
    ( "service.register_p90_ms",
      only service (Stats.quantile (Acc.timer_samples reg_acc "register") 0.9 *. 1e3) );
    ("service.admission_decide_ms", only service (mean x.probe "probe_decide" *. 1e3));
    ("service.build_plan_ms", only service (mean x.probe "probe_build_plan" *. 1e3));
    ( "service.accepted_share",
      only service
        (Stats.ratio
           (fl (Acc.count reg_acc "register_accepted"))
           (fl (Acc.count reg_acc "register_attempts"))) );
    ("service.retire_us", only service (median x.untraced "retire" *. 1e6));
    ("service.verify_ms", x.verify_s *. 1e3);
    ("util.pool_domains", fl (Acc.count x.probe "fanout_domains"));
    ( "util.pool_steals_per_epoch",
      Stats.ratio
        (fl (Acc.count x.probe "fanout_steals"))
        (fl (Stats.count (Acc.timer x.probe "fanout_epoch"))) );
    ( "util.pool_speedup",
      only service
        (Stats.ratio (median x.untraced "epoch") (median x.probe "fanout_epoch")) );
    ( "obs.trace_overhead",
      1. -. Stats.ratio (Acc.jobs_per_s x.traced) (Acc.jobs_per_s x.untraced) );
    ( "obs.unattributed_share",
      Stats.ratio (x.traced_wall_s -. (fl bench_ns /. 1e9)) x.traced_wall_s );
    ("host.calibration_ms", x.calibration_ms);
    ("failed_share", x.failed_share);
  ]
