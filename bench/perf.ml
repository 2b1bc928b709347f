(* Perf-regression harness (bench/main.exe --json): hot pipeline stages
   timed at jobs=1 and jobs=N, written as JSON so successive commits can
   be diffed, and optionally gated against a baseline file.  The jobs=1
   numbers double as the Rat-sensitive scalar baselines (list
   scheduling, exact search and the engine all run on Rat arithmetic).

   [stages] is the one list the console summary, the JSON file and the
   gate all walk: adding a stage is adding one record. *)

module Rat = Rt_util.Rat
module Pool = Rt_util.Pool
module Json = Rt_util.Json
module Derive = Taskgraph.Derive
module Engine = Runtime.Engine
module Cosched = Sched.Cosched
module Service = Fppn_service.Service
module Tenant = Fppn_service.Tenant
module Randgen = Fppn_apps.Randgen
module Prng = Rt_util.Prng

(* How a stage's jobs=1 median may be compared across harness runs:
   rates (cases/s, jobs/s) are budget-invariant, [Seconds_stable]
   stages time the same workload under --smoke and full runs, and
   [Seconds_budgeted] stages shrink their workload under --smoke, so
   their absolute times only compare against a baseline of the same
   kind. *)
type gate = Rate | Seconds_stable | Seconds_budgeted | Not_gated

(* One sample list, written under [key]; [dist] adds min and
   interquartile range — used by the engine and service stages, whose
   5x run-to-run spreads made a bare median unreviewable. *)
type variant = { key : string; jobs : int; runs : float list; dist : bool }

type check = { check : string; ok : bool; detail : string }

type outcome = {
  variants : variant list;
  extra : (string * Json.t) list;
  checks : check list;  (** gate checks beyond the median comparison *)
}

type ctx = { pool : Pool.t; smoke : bool }

type stage = {
  name : string;
  metric : string;
  higher_is_better : bool;
  gate : gate;
  tolerance : float;  (** largest accepted slowdown against the baseline *)
  measure : ctx -> outcome;
}

let tolerance = 0.20

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let secs f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let safe_div a b = if b > 0.0 then a /. b else nan
let reps c = if c.smoke then 1 else 3
let samples n f = List.init n (fun _ -> f ())
let variant ?(dist = false) key jobs runs = { key; jobs; runs; dist }
let outcome ?(extra = []) ?(checks = []) variants = { variants; extra; checks }

let pair ?dist c runs1 runsn =
  [ variant ?dist "jobs1" 1 runs1; variant ?dist "jobsN" (Pool.jobs c.pool) runsn ]

let timed_pair c (run : ?pool:Pool.t -> unit -> _) =
  outcome
    (pair c
       (samples (reps c) (fun () -> secs (run ?pool:None)))
       (samples (reps c) (fun () -> secs (run ~pool:c.pool))))

(* --- measurements -------------------------------------------------------- *)

(* Fuzz campaign throughput, cases/s from the report's own wall clock —
   the same timing source the report exposes.  Rate stages keep the same
   workload in smoke and full modes, so their rates stay comparable
   across baselines, and always take three jobs=1 samples. *)
let fuzz c =
  let config = { Fppn_fuzz.Campaign.default_config with budget = 40 } in
  let last = [| None; None |] in
  let rate side jobs () =
    let r = Fppn_fuzz.Campaign.run ~jobs config in
    last.(side) <- Some r;
    Fppn_fuzz.Report.cases_per_s r
  in
  let runs1 = samples 3 (rate 0 1) in
  let steals0 = Pool.steals () in
  let runsn = samples (reps c) (rate 1 (Pool.jobs c.pool)) in
  (* steals across the jobsN runs: proof the work-stealing pool actually
     redistributed cases, not just that N domains existed *)
  let steals = Pool.steals () - steals0 in
  let normalized r = Fppn_fuzz.Report.(to_json (normalize_timing r)) in
  let deterministic =
    match last with
    | [| Some a; Some b |] -> String.equal (normalized a) (normalized b)
    | _ -> false
  in
  outcome (pair c runs1 runsn)
    ~extra:[ ("deterministic", Json.Bool deterministic); ("steals", Json.Int steals) ]

(* the report's co-scheduling graphs: fig1, automotive and the FMS *)
let graphs = lazy (Report.cosched_apps ())
let graph name = List.assoc name (Lazy.force graphs)

(* heuristic-portfolio list scheduling on the 812-job FMS *)
let list_auto c =
  let g = graph "fms" in
  timed_pair c (fun ?pool () -> Sched.List_scheduler.auto ?pool ~n_procs:2 g)

(* exact branch and bound on a random graph *)
let exact c =
  let params =
    { Randgen.default_params with seed = 101; n_periodic = 4; n_sporadic = 1 }
  in
  let net = Randgen.network params in
  let wcet = Randgen.wcet ~scale:(Rat.make 1 8) (Derive.const_wcet Rat.one) net in
  let g = (Derive.derive_exn ~wcet net).Derive.graph in
  let node_budget = if c.smoke then 20_000 else 300_000 in
  timed_pair c (fun ?pool () -> Sched.Exact.solve ?pool ~node_budget ~n_procs:2 g)

let engine_runner net wcet =
  let d = Derive.derive_exn ~wcet net in
  let sched, _ = Report.schedule_or_fallback ~n_procs:2 d.Derive.graph in
  fun ~frames ->
    let cfg = Engine.default_config ~frames ~n_procs:2 () in
    fun () -> Engine.run net d sched cfg

(* fig1 on M=2 through the compiled tick core — constant durations and
   no sporadic stamps, so the steady-frame replay path is exercised *)
let fig1_run =
  lazy (engine_runner (Fppn_apps.Fig1.network ()) Fppn_apps.Fig1.wcet ~frames:40)

let engine_iters = 32
let executed (r : Engine.result) = r.Engine.stats.Runtime.Exec_trace.executed

(* Jobs executed per second.  Each sample pins the iteration count and
   times the whole batch after one unmeasured warmup run (which prepares
   the memoized engine handle and sizes the workspace): single 20µs runs
   measured one clock pair at a time produced 5x run-to-run spreads on
   this box. *)
let engine_rate () =
  let run = Lazy.force fig1_run in
  ignore (run ());
  let n = ref 0 in
  let dt =
    secs (fun () ->
        for _ = 1 to engine_iters do
          n := !n + executed (run ())
        done)
  in
  safe_div (float_of_int !n) dt

let alloc_per_run run =
  ignore (run ());
  let k = 100 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to k do
    ignore (run ())
  done;
  (Gc.allocated_bytes () -. a0) /. float_of_int k

let engine_sim _ =
  let runs = samples 5 engine_rate in
  (* allocation probe: bytes allocated per executed job on the fig1
     workload, and the engine's own steady-frame allocation measured on
     a network whose job bodies allocate nothing — the replay loop must
     add zero bytes per frame on top of what the bodies allocate, so the
     64 B budget only covers measurement crumbs.  It catches the classic
     engine regression (allocation creep) at any CPU speed. *)
  let run = Lazy.force fig1_run in
  let per_run = alloc_per_run run in
  let bytes_per_job = per_run /. float_of_int (max 1 (executed (run ()))) in
  let probe =
    engine_runner (Fppn_apps.Alloc_probe.network ()) Fppn_apps.Alloc_probe.wcet
  in
  let at frames = alloc_per_run (probe ~frames) in
  let lo = 4 and hi = 40 in
  let steady = (at hi -. at lo) /. float_of_int (hi - lo) in
  outcome
    [ variant ~dist:true "jobs1" 1 runs ]
    ~extra:
      [ ("iterations", Json.Int engine_iters);
        ("bytes_per_job", Json.Float bytes_per_job);
        ("steady_frame_bytes", Json.Float steady) ]
    ~checks:
      [ { check = "engine-allocation"; ok = steady <= 64.0;
          detail = Printf.sprintf "%.1f bytes/steady frame (budget 64)" steady } ]

(* Observability overhead on the same engine workload — tracing fully
   off, spans only, spans + metrics.  The off variant re-times the exact
   engine-sim configuration inside this run, so the three variants are
   apples-to-apples regardless of machine noise between runs.  Five
   samples each: the sub-second engine runs showed up to 5x run-to-run
   variance with 3. *)
let trace_overhead _ =
  let open Fppn_obs in
  let traced () =
    Trace.reset ();
    engine_rate ()
  in
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let off = samples 5 engine_rate in
  Trace.set_enabled true;
  let spans = samples 5 traced in
  Metrics.set_enabled true;
  let full = samples 5 traced in
  Trace.set_enabled false;
  Metrics.set_enabled false;
  Trace.reset ();
  Metrics.reset ();
  (* run-to-run spread of the off samples, as a fraction of the median *)
  let spread =
    safe_div (List.fold_left max 0.0 off -. List.fold_left min infinity off) (median off)
  in
  outcome
    (List.map2 (fun key runs -> variant ~dist:true key 1 runs)
       [ "off"; "spans"; "spans_metrics" ] [ off; spans; full ])
    ~extra:[ ("iterations", Json.Int engine_iters); ("spread_off", Json.Float spread) ]

(* Multi-application co-scheduling: the heuristic portfolio over the
   fms+automotive pair on M=4, timed, plus the makespan the variant
   achieves so BENCH.json tracks schedule quality alongside speed. *)
let cosched variant c =
  let apps =
    List.mapi
      (fun i n -> { Cosched.app_name = n; app_priority = i; graph = graph n })
      [ "fms"; "automotive" ]
  in
  let run ?pool () = Cosched.auto ?pool ~variant ~n_procs:4 apps in
  let o = timed_pair c run in
  let r =
    match snd (run ()) with
    | Some a -> a.Cosched.result
    | None -> Cosched.schedule_with ~variant ~n_procs:4 apps
  in
  let makespan = Rat.to_float r.Cosched.makespan in
  let feasible = r.Cosched.feasible in
  { o with
    extra = [ ("makespan_ms", Json.Float makespan); ("feasible", Json.Bool feasible) ] }

(* Multi-tenant service throughput — 200 small tenants co-resident on
   M=4 behind MPR admission, scripted sporadic events pushed through the
   MPSC queue each epoch, rate = tenant engine jobs per second across
   the epoch loop. *)
let service c =
  let tenants = 200 and procs = 4 in
  let svc = Service.create ~queue_capacity:8192 ~procs ~frames:2 () in
  for i = 0 to tenants - 1 do
    let params =
      {
        Randgen.seed = 1000 + (7919 * i);
        n_periodic = 2;
        n_sporadic = 1;
        periods = [ 50; 100 ];
        channel_density = 0.4;
        max_burst = 2;
      }
    in
    let net = Randgen.network params in
    let wcet = Randgen.wcet ~scale:(Rat.make 1 2000) (Derive.const_wcet Rat.one) net in
    ignore (Service.register svc ~name:(Printf.sprintf "t%03d" i) ~wcet net)
  done;
  let admitted = List.length (Service.tenants svc) in
  let targets =
    Array.of_list
      (List.filter_map
         (fun ten ->
           match Tenant.sporadic_events ten with
           | [] -> None
           | sp ->
             let hp_ms = int_of_float (Rat.to_float (Tenant.hyperperiod ten)) in
             Some (ten.Tenant.name, Array.of_list (List.map fst sp), max 1 (hp_ms * 2)))
         (Service.tenants svc))
  in
  let epoch_events = 1024 in
  let submit seed =
    let prng = Prng.create seed in
    for _ = 1 to epoch_events do
      let tname, sp_names, horizon_ms = targets.(Prng.int prng (Array.length targets)) in
      let process = sp_names.(Prng.int prng (Array.length sp_names)) in
      let stamp = Rat.of_int (Prng.int prng horizon_ms) in
      ignore (Service.submit svc ~tenant:tname ~process ~stamp)
    done
  in
  let iters = 4 in
  let consumed = ref 0 in
  let rate pool () =
    (* one unmeasured warmup epoch compiles every tenant's engine plan *)
    submit 17;
    ignore (Service.run_epoch ?pool svc);
    let jobs_done = ref 0 in
    let dt =
      secs (fun () ->
          for e = 1 to iters do
            submit (31 * e);
            let r = Service.run_epoch ?pool svc in
            jobs_done := !jobs_done + r.Service.jobs_executed;
            consumed := !consumed + r.Service.events_consumed
          done)
    in
    safe_div (float_of_int !jobs_done) dt
  in
  let r1 = samples 3 (rate None) in
  let rn = samples 3 (rate (Some c.pool)) in
  let oracle = List.for_all snd (Service.verify ~pool:c.pool svc) in
  outcome (pair ~dist:true c r1 rn)
    ~extra:
      (List.map
         (fun (k, v) -> (k, Json.Int v))
         [ ("tenants", tenants); ("admitted", admitted); ("rejected", tenants - admitted);
           ("procs", procs); ("epochs_per_sample", iters);
           ("events_per_epoch", epoch_events); ("events_consumed", !consumed) ]
      @ [ ("oracle", Json.Bool oracle) ])

(* --- the stage table, in run and file order ------------------------------ *)

let stages =
  [
    { name = "fuzz-campaign"; metric = "cases_per_s"; higher_is_better = true;
      gate = Rate; tolerance; measure = fuzz };
    { name = "list-auto-fms-m2"; metric = "seconds"; higher_is_better = false;
      gate = Seconds_stable; tolerance; measure = list_auto };
    { name = "exact-solve-random-m2"; metric = "seconds"; higher_is_better = false;
      gate = Seconds_budgeted; tolerance; measure = exact };
    (* The host CPU settles into one of two persistent speed modes ~25%
       apart, and this stage resolves in microseconds — far too fast to
       straddle both modes — so a fast-mode baseline read back in slow
       mode sits right at a 0.80x ratio no matter how stable the
       per-mode median is; its allocation check holds at any speed. *)
    { name = "engine-sim-fig1-m2"; metric = "jobs_per_s"; higher_is_better = true;
      gate = Rate; tolerance = 0.35; measure = engine_sim };
    { name = "engine-trace-overhead"; metric = "jobs_per_s"; higher_is_better = true;
      gate = Not_gated; tolerance; measure = trace_overhead };
    { name = "cosched-fair-m4"; metric = "seconds"; higher_is_better = false;
      gate = Seconds_stable; tolerance; measure = cosched Cosched.Fair };
    { name = "cosched-slots-m4"; metric = "seconds"; higher_is_better = false;
      gate = Seconds_stable; tolerance; measure = cosched Cosched.Slots };
    { name = "service-mixed-m4"; metric = "jobs_per_s"; higher_is_better = true;
      gate = Rate; tolerance; measure = service };
  ]

(* --- output -------------------------------------------------------------- *)

let find_variant key o = List.find_opt (fun v -> String.equal v.key key) o.variants

(* jobs=N over jobs=1, oriented so that > 1 means faster *)
let speedup st o =
  match (find_variant "jobs1" o, find_variant "jobsN" o) with
  | Some a, Some b ->
    let a = median a.runs and b = median b.runs in
    let s = if st.higher_is_better then safe_div b a else safe_div a b in
    [ ("speedup", Json.Float s) ]
  | _ -> []

let variant_json v =
  let sorted = Array.of_list (List.sort compare v.runs) in
  let n = Array.length sorted in
  let num x = Json.Float x in
  Json.Obj
    ([ ("jobs", Json.Int v.jobs); ("runs", Json.Arr (List.map num v.runs));
       ("median", num (median v.runs)) ]
    @
    if v.dist then
      [ ("min", num (if n = 0 then nan else sorted.(0)));
        ("iqr", num (if n < 4 then nan else sorted.(3 * n / 4) -. sorted.(n / 4))) ]
    else [])

let stage_fields st o =
  [ ("name", Json.Str st.name); ("metric", Json.Str st.metric);
    ("higher_is_better", Json.Bool st.higher_is_better) ]
  @ List.map (fun v -> (v.key, variant_json v)) o.variants
  @ speedup st o @ o.extra

let print_summary st o =
  let median_of v = Printf.sprintf "%s %.6g" v.key (median v.runs) in
  let field (k, j) = Printf.sprintf ", %s %s" k (Json.to_string j) in
  Printf.printf "  %s: %s %s%s\n" st.name
    (String.concat ", " (List.map median_of o.variants))
    st.metric
    (String.concat "" (List.map field (speedup st o @ o.extra)))

let host () =
  let lines =
    try String.split_on_char '\n' In_channel.(with_open_text "/proc/cpuinfo" input_all)
    with Sys_error _ -> []
  in
  let value key l =
    match String.index_opt l ':' with
    | Some i when String.trim (String.sub l 0 i) = key ->
      Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
    | _ -> None
  in
  Json.Obj
    [ ("cpu", Option.fold ~none:Json.Null ~some:(fun m -> Json.Str m)
                (List.find_map (value "model name") lines));
      ("nproc", Json.Int (List.length (List.filter_map (value "processor") lines)));
      ("recommended_domains", Json.Int (Pool.default_jobs ())) ]

(* One top-level field per line and one stage per line, so BENCH.json
   diffs stage by stage. *)
let render fields stage_docs =
  let field (k, v) = Json.to_string (Json.Str k) ^ ": " ^ Json.to_string v in
  "{\n" ^ String.concat ",\n" (List.map field fields) ^ ",\n\"stages\": [\n"
  ^ String.concat ",\n" (List.map Json.to_string stage_docs) ^ "\n]}\n"

(* --- gate ---------------------------------------------------------------- *)

let run_gate ~smoke ~host results baseline_path =
  let base =
    match Json.parse (In_channel.with_open_text baseline_path In_channel.input_all) with
    | base -> base
    | exception Sys_error msg ->
      Printf.eprintf "gate: cannot read baseline: %s\n" msg;
      exit 2
    | exception Json.Malformed msg ->
      Printf.eprintf "gate: %s is not valid JSON: %s\n" baseline_path msg;
      exit 2
  in
  let base_smoke = Option.bind (Json.member "smoke" base) Json.as_bool = Some true in
  let base_stages =
    Option.value ~default:[] (Option.bind (Json.member "stages" base) Json.as_list)
  in
  let stage_name s = Option.bind (Json.member "name" s) Json.as_string in
  let find_stage name = List.find_opt (fun s -> stage_name s = Some name) base_stages in
  let failures = ref 0 in
  let line name ok detail =
    if not ok then incr failures;
    Printf.printf "  %-24s %s %s\n" name (if ok then "ok  " else "FAIL") detail
  in
  let pct t = int_of_float (t *. 100.0) in
  Printf.printf "gate: comparing against %s (tolerance %d%%)\n" baseline_path
    (pct tolerance);
  let base_host = Option.map Json.to_string (Json.member "host" base) in
  if base_host <> Some (Json.to_string host) then
    Printf.printf "gate: cross-host baseline (baseline host %s, this host %s)\n"
      (Option.value ~default:"unrecorded" base_host) (Json.to_string host);
  List.iter
    (fun (st, o) ->
      let base_median =
        Option.bind (find_stage st.name) (Json.member "jobs1")
        |> Fun.flip Option.bind (Json.member "median")
        |> Fun.flip Option.bind Json.as_float
      in
      let skip why = Printf.printf "  %-24s SKIP (%s)\n" st.name why in
      (match (st.gate, base_median, find_variant "jobs1" o) with
      | Not_gated, _, _ -> ()
      | _ when find_stage st.name = None -> skip "not in baseline"
      | Seconds_budgeted, _, _ when base_smoke <> smoke ->
        skip "budget differs between smoke and full runs"
      | _, (None | Some 0.0), _ | _, _, None -> skip "no jobs1 median in baseline"
      | _, Some b, Some v ->
        (* median, not best-of: stages pin their iteration counts and
           warm up before timing, so the median is stable and a best-of
           comparison would only hide real regressions *)
        let m = median v.runs in
        let ratio = if st.higher_is_better then m /. b else b /. m in
        line st.name
          (ratio >= 1.0 -. st.tolerance)
          (Printf.sprintf "baseline %.3f, median %.3f (%.2fx%s)" b m (m /. b)
             (if st.tolerance <> tolerance then
                Printf.sprintf ", tolerance %d%%" (pct st.tolerance)
              else "")));
      List.iter (fun ch -> line ch.check ch.ok ch.detail) o.checks)
    results;
  (* a baseline stage this run did not emit was dropped, not skipped *)
  List.iter
    (fun s ->
      match stage_name s with
      | Some n when not (List.exists (fun (st, _) -> st.name = n) results) ->
        incr failures;
        Printf.printf "  %-24s MISSING (in baseline, not emitted)\n" n
      | _ -> ())
    base_stages;
  if !failures > 0 then begin
    Printf.printf "gate: %d check(s) failed (tolerance %d%%)\n" !failures (pct tolerance);
    exit 1
  end
  else print_endline "gate: no perf regression"

let run ~pool ~smoke ?gate path =
  let c = { pool; smoke } and jobs = Pool.jobs pool in
  Printf.printf "perf harness: %d repetition(s) per stage, jobs=1 vs jobs=%d%s\n"
    (reps c) jobs (if smoke then " (smoke)" else "");
  let measure st =
    let o = st.measure c in
    print_summary st o;
    (st, o)
  in
  let results = List.map measure stages in
  let host = host () in
  Runtime.Export.write_file path
    (render
       [ ("schema", Json.Str "fppn-bench/1"); ("smoke", Json.Bool smoke);
         ("jobs", Json.Int jobs); ("jobs_requested", Json.Int jobs);
         ("recommended_domains", Json.Int (Pool.default_jobs ()));
         ("repetitions", Json.Int (reps c)); ("host", host) ]
       (List.map (fun (st, o) -> Json.Obj (stage_fields st o)) results));
  Printf.printf "wrote %s\n" path;
  Option.iter (run_gate ~smoke ~host results) gate
