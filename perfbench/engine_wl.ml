(* Engine workloads: one network, derived and list-scheduled once, run
   frame after frame by Runtime.Engine on the calling domain. *)

module Rat = Rt_util.Rat
module Engine = Runtime.Engine
module Derive = Taskgraph.Derive

type state = {
  net : Fppn.Network.t;
  derived : Derive.t;
  sched : Sched.Static_schedule.t;
  base : Engine.config;
  configs : ((string * Rat.t list) list * (string * Fppn.Value.t list) list Lazy.t) array Lazy.t;
      (** sporadic traces per seeded configuration, with their reference
          signatures; built by [prepare], outside any timing *)
  mutable next : int;
}

(* Setup as a user pays it: build the network, derive, schedule. *)
let build acc ~network ~wcet ~schedule =
  let net = network () in
  let wcet = wcet net in
  let derived, dt_derive =
    Stats.timed_span "bench.taskgraph.derive" (fun () ->
        Derive.derive_exn ~wcet net)
  in
  Stats.push (Acc.timer acc "derive") dt_derive;
  let sched, dt_sched =
    Stats.timed_span "bench.sched.schedule" (fun () ->
        schedule derived.Derive.graph)
  in
  Stats.push (Acc.timer acc "schedule") dt_sched;
  (net, derived, sched)

let op st acc =
  let configs = Lazy.force st.configs in
  let i = st.next mod Array.length configs in
  st.next <- st.next + 1;
  let traces, reference = configs.(i) in
  let config = { st.base with Engine.sporadic = traces } in
  match
    Stats.timed_span "bench.engine.run" (fun () ->
        Engine.run st.net st.derived st.sched config)
  with
  | exception _ -> Acc.check acc "exception" false
  | r, dt_run -> (
    match
      Stats.timed_span "bench.engine.signature" (fun () -> Engine.signature r)
    with
    | exception _ -> Acc.check acc "exception" false
    | signature, dt_sig ->
      Acc.record acc "run" dt_run;
      Acc.record acc "materialize" dt_sig;
      Stats.push acc.Acc.ops (dt_run +. dt_sig);
      let stats = r.Engine.stats in
      acc.Acc.jobs <- acc.Acc.jobs + stats.Runtime.Exec_trace.executed;
      Acc.add_count acc "skipped" stats.Runtime.Exec_trace.skipped;
      (* checks run after the timer stopped *)
      let misses = stats.Runtime.Exec_trace.misses in
      let matches, dt_verify =
        Stats.timed (fun () ->
            Workload.signature_equal signature (Lazy.force reference))
      in
      Stats.push (Acc.timer acc "verify") dt_verify;
      if misses > 0 then Acc.check acc "deadline_miss" false
      else Acc.check acc "mismatch" matches)

let instance st =
  {
    Workload.op = op st;
    prepare =
      (fun acc ->
        Array.iter
          (fun (_, reference) ->
            let (), dt = Stats.timed (fun () -> ignore (Lazy.force reference)) in
            Stats.push (Acc.timer acc "verify") dt)
          (Lazy.force st.configs));
    (* every run was compared with its reference right after it *)
    verify = (fun _ -> ());
    probes = (fun _ -> ());
    job_spans =
      (fun () ->
        let h = Hashtbl.create 1024 in
        Workload.job_labels st.derived h;
        h);
  }

let reference_of net derived ~frames traces =
  lazy (Workload.reference_signature net derived ~frames traces)

(* The paper's reduced FMS (Fig. 7): 812 jobs per 10 s hyperperiod,
   seven sporadic configuration processes, M = 2, four frames per run.
   Eight seeded pilot-command configurations are cycled through, so
   consecutive runs never see the same trace value and every run pays
   its own prologue and compile. *)
let sporadic_frames = 4
let sporadic_configs = 8

let sporadic =
  {
    Workload.name = "engine-sporadic";
    setups = 10;
    why =
      "FMS with fresh sporadic stamps every run: per-run prologue \
       (sporadic window assignment) and compile cost";
    setup =
      (fun ~seed acc ->
        let net, derived, sched =
          build acc ~network:Fppn_apps.Fms.reduced
            ~wcet:(fun _ -> Fppn_apps.Fms.wcet)
            ~schedule:(fun g ->
              match snd (Sched.List_scheduler.auto ~n_procs:2 g) with
              | Some a -> a.Sched.List_scheduler.schedule
              | None -> failwith "engine-sporadic: FMS has no feasible M=2 schedule")
        in
        let frames = sporadic_frames in
        let horizon = Rat.mul derived.Derive.hyperperiod (Rat.of_int frames) in
        let configs =
          lazy
            (Array.init sporadic_configs (fun i ->
                 let traces =
                   Fppn_apps.Fms.random_config_traces
                     ~seed:((seed * 7919) + i) ~horizon ~density:0.5 net
                 in
                 (traces, reference_of net derived ~frames traces)))
        in
        instance
          {
            net;
            derived;
            sched;
            base = Engine.default_config ~frames ~n_procs:2 ();
            configs;
            next = 0;
          });
  }

(* A wide periodic Randgen network: 10^4 processes with one 100 ms
   period (one job each per frame), sparse channels, M = 4, four frames
   per run.  Every run has the same (empty) sporadic traces and the
   same platform, so after the first run the compiled plan is memoized
   and steady-frame replay does the work. *)
let wide_processes = 10_000
let wide_frames = 4

let wide =
  {
    Workload.name = "engine-wide";
    setups = 3;
    why =
      "10^4 periodic processes, no sporadics: memoized compile, \
       steady-frame replay and channel traffic on a large working set";
    setup =
      (fun ~seed ->
        (* the topology draw is input generation, not set-up *)
        let spec =
          Fppn_apps.Randgen.spec_of_params
            {
              Fppn_apps.Randgen.default_params with
              seed = 7 + (seed * 104729);
              n_periodic = wide_processes;
              n_sporadic = 0;
              periods = [ 100 ];
              channel_density = 3e-4;
            }
        in
        fun acc ->
        let net, derived, sched =
          build acc
            ~network:(fun () -> Fppn_apps.Randgen.build_exn spec)
            ~wcet:
              (* one tick of the 100 ms grid per job: every frame fits *)
              (Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 100_000)
                 (Derive.const_wcet Rat.one))
            ~schedule:
              (Sched.List_scheduler.schedule_with
                 ~heuristic:Sched.Priority.Alap_edf ~n_procs:4)
        in
        let frames = wide_frames in
        instance
          {
            net;
            derived;
            sched;
            base = Engine.default_config ~frames ~n_procs:4 ();
            configs = lazy [| ([], reference_of net derived ~frames []) |];
            next = 0;
          });
  }
