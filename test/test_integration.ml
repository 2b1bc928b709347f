(* End-to-end pipeline tests: network -> task graph -> static schedule ->
   online execution, with the determinism checks of Prop. 2.1 / 4.1 run
   across processor counts, execution-time jitter and random sporadic
   event traces. *)

module Rat = Rt_util.Rat
module V = Fppn.Value
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module Graph = Taskgraph.Graph
module Analysis = Taskgraph.Analysis
module List_scheduler = Sched.List_scheduler
module Static_schedule = Sched.Static_schedule
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace

let ms = Rat.of_int

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

let qprop name ?(count = 25) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let pipeline ?(frames = 2) ?(n_procs = 2) ?(seed = 1) params =
  let net = Fppn_apps.Randgen.network params in
  let wcet =
    Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 25) (Derive.const_wcet Rat.one) net
  in
  let d = Derive.derive_exn ~wcet net in
  let g = d.Derive.graph in
  match snd (List_scheduler.auto ~n_procs g) with
  | None -> None
  | Some a ->
    let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
    let raw_traces =
      Fppn_apps.Randgen.random_traces ~seed ~horizon ~density:0.5 net
    in
    let traces = Engine.handled_traces net d ~frames raw_traces in
    let config =
      { (Engine.default_config ~frames ~n_procs ()) with
        Engine.sporadic = traces;
        exec = Exec_time.uniform ~seed ~min_fraction:0.25 }
    in
    let rt = Engine.run net d a.List_scheduler.schedule config in
    let zd =
      Semantics.run net (Semantics.invocations ~sporadic:traces ~horizon net)
    in
    Some (net, d, a, rt, zd)

let random_params =
  QCheck2.Gen.(
    let* seed = int_range 0 50_000 in
    let* n_periodic = int_range 2 8 in
    let* n_sporadic = int_range 0 3 in
    let* channel_density = float_range 0.2 0.8 in
    return
      { Fppn_apps.Randgen.default_params with
        seed; n_periodic; n_sporadic; channel_density })

let prop_runtime_deterministic_vs_zero_delay =
  qprop "random pipelines: runtime history = zero-delay history"
    QCheck2.Gen.(pair random_params (int_range 1 4))
    (fun (params, n_procs) ->
      match pipeline ~n_procs params with
      | None -> true (* infeasible workload: nothing to compare *)
      | Some (_, _, _, rt, zd) ->
        eq_sig (Semantics.signature zd) (Engine.signature rt))

let prop_no_misses_on_feasible_schedules =
  qprop "feasible static schedules never miss deadlines online (Prop 4.1)"
    QCheck2.Gen.(pair random_params (int_range 1 3))
    (fun (params, n_procs) ->
      match pipeline ~n_procs params with
      | None -> true
      | Some (_, _, _, rt, _) -> rt.Engine.stats.Exec_trace.misses = 0)

let prop_traces_comply_with_real_time_semantics =
  qprop "engine traces satisfy WCET/invocation/precedence/mutex (Sec. II)"
    QCheck2.Gen.(pair random_params (int_range 1 4))
    (fun (params, n_procs) ->
      match pipeline ~n_procs params with
      | None -> true
      | Some (_, d, _, rt, _) ->
        Exec_trace.check d.Derive.graph (Engine.trace rt) = [])

let prop_processor_count_invariance =
  qprop "output histories identical across processor counts" ~count:15
    random_params
    (fun params ->
      let run n_procs =
        Option.map (fun (_, _, _, rt, _) -> Engine.signature rt)
          (pipeline ~n_procs params)
      in
      match (run 1, run 2, run 4) with
      | Some s1, Some s2, Some s4 -> eq_sig s1 s2 && eq_sig s2 s4
      | _ -> true (* some M infeasible; skip *))

let prop_latency_wcet_bound_random =
  qprop "WCET end-to-end latency bounds jittered runs (random chains)" ~count:10
    random_params
    (fun params ->
      let net = Fppn_apps.Randgen.network params in
      let wcet =
        Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 25) (Derive.const_wcet Rat.one) net
      in
      let d = Derive.derive_exn ~wcet net in
      let g = d.Derive.graph in
      match snd (List_scheduler.auto ~n_procs:2 g) with
      | None -> true
      | Some a ->
        (* find a connected (source, sink) pair of distinct processes *)
        let names =
          Array.to_list (Array.map Fppn.Process.name (Network.processes net))
        in
        let connected =
          List.concat_map
            (fun src ->
              List.filter_map
                (fun snk ->
                  if src = snk then None
                  else
                    match
                      Runtime.Latency.analyse g ~source:src ~sink:snk []
                    with
                    | _ -> Some (src, snk)
                    | exception Invalid_argument _ -> None)
                names)
            names
        in
        (match connected with
        | [] -> true
        | (src, snk) :: _ ->
          let run exec =
            let cfg =
              { (Engine.default_config ~frames:2 ~n_procs:2 ()) with Engine.exec }
            in
            (Runtime.Latency.analyse g ~source:src ~sink:snk
               (Engine.trace (Engine.run net d a.List_scheduler.schedule cfg)))
              .Runtime.Latency.max_reaction
          in
          let bound = run Exec_time.constant in
          let jittered = run (Exec_time.uniform ~seed:params.Fppn_apps.Randgen.seed ~min_fraction:0.2) in
          Rat.(jittered <= bound)))

let prop_ta_backend_on_random_networks =
  qprop "generated TA networks reproduce the zero-delay histories" ~count:10
    random_params
    (fun params ->
      match pipeline ~frames:1 ~n_procs:2 params with
      | None -> true
      | Some (net, d, a, _, zd) ->
        let config =
          { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
            Engine.sporadic = [] }
        in
        (* the pipeline used sporadic traces; rebuild them for the TA run *)
        let horizon = d.Derive.hyperperiod in
        let raw =
          Fppn_apps.Randgen.random_traces ~seed:1 ~horizon ~density:0.5 net
        in
        let traces = Engine.handled_traces net d ~frames:1 raw in
        let config = { config with Engine.sporadic = traces } in
        let ta =
          Timedauto.Translate.execute
            (Timedauto.Translate.build net d a.List_scheduler.schedule config)
        in
        let zd' =
          Semantics.run net (Semantics.invocations ~sporadic:traces ~horizon net)
        in
        ignore zd;
        eq_sig (Semantics.signature zd') (Timedauto.Translate.signature ta))

(* Jitter invariance needs a shared sporadic trace across runs; Fig. 1
   gives us that directly. *)
let test_fig1_jitter_invariance () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  let sched =
    match snd (List_scheduler.auto ~n_procs:2 d.Derive.graph) with
    | Some a -> a.List_scheduler.schedule
    | None -> Alcotest.fail "fig1 infeasible on 2 processors"
  in
  let run seed =
    let config =
      { (Engine.default_config ~frames:3 ~n_procs:2 ()) with
        Engine.sporadic = [ ("CoefB", [ ms 50; ms 200 ]) ];
        inputs = Fppn_apps.Fig1.input_feed ~samples:64;
        exec = Exec_time.uniform ~seed ~min_fraction:0.1 }
    in
    Engine.signature (Engine.run net d sched config)
  in
  let reference = run 0 in
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d produces identical outputs" seed)
        true
        (eq_sig reference (run seed)))
    [ 1; 2; 3; 17; 99 ]

(* --- FMS end-to-end (Sec. V-B shape) ------------------------------------- *)

let test_fms_pipeline () =
  let net = Fppn_apps.Fms.reduced () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net in
  let g = d.Derive.graph in
  Alcotest.(check int) "812 jobs" 812 (Graph.n_jobs g);
  (* low load: single processor feasible, no misses online *)
  let attempts, best = List_scheduler.auto ~n_procs:1 g in
  Alcotest.(check bool) "some heuristic feasible on one processor" true
    (best <> None);
  ignore attempts;
  let sched = (Option.get best).List_scheduler.schedule in
  let horizon = d.Derive.hyperperiod in
  let traces =
    Fppn_apps.Fms.random_config_traces ~seed:3 ~horizon ~density:0.4 net
  in
  let traces = Engine.handled_traces net d ~frames:1 traces in
  let config =
    { (Engine.default_config ~frames:1 ~n_procs:1 ()) with
      Engine.sporadic = traces;
      exec = Exec_time.uniform ~seed:7 ~min_fraction:0.6 }
  in
  let rt = Engine.run net d sched config in
  Alcotest.(check int) "no deadline misses (paper: none at load 0.23)" 0
    rt.Engine.stats.Exec_trace.misses;
  let zd = Semantics.run net (Semantics.invocations ~sporadic:traces ~horizon net) in
  Alcotest.(check bool) "deterministic vs zero-delay" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_fms_multiprocessor_schedules () =
  (* "we still generated schedules for different number of processors" *)
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet (Fppn_apps.Fms.reduced ()) in
  List.iter
    (fun m ->
      match snd (List_scheduler.auto ~n_procs:m d.Derive.graph) with
      | Some a ->
        Alcotest.(check bool)
          (Printf.sprintf "M=%d schedule fits the frame" m)
          true
          Rat.(a.List_scheduler.makespan <= d.Derive.hyperperiod)
      | None -> Alcotest.failf "M=%d should be schedulable" m)
    [ 1; 2; 4 ]

(* --- FFT end-to-end (Sec. V-A shape) -------------------------------------- *)

let fft_schedule p net d ~n_procs =
  match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
  | Some a -> a.List_scheduler.schedule
  | None ->
    (* overload: fall back to the best-effort EDF schedule (misses expected) *)
    ignore p;
    ignore net;
    List_scheduler.schedule_with ~heuristic:Sched.Priority.Alap_edf ~n_procs
      d.Derive.graph

let test_fft_one_vs_two_processors () =
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network p in
  let d = Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) net in
  let overhead =
    { Runtime.Platform.first_frame = ms 41; steady_frame = ms 20; per_access = Rat.zero }
  in
  let run ~n_procs =
    let sched = fft_schedule p net d ~n_procs in
    let config =
      { (Engine.default_config ~frames:5 ~n_procs ()) with
        Engine.platform = Runtime.Platform.create ~overhead ~n_procs () }
    in
    (Engine.run net d sched config).Engine.stats
  in
  (* paper: single-processor mapping missed deadlines due to the runtime
     overhead; the two-processor mapping had none *)
  let s1 = run ~n_procs:1 in
  Alcotest.(check bool) "M=1 misses deadlines" true (s1.Exec_trace.misses > 0);
  let s2 = run ~n_procs:2 in
  Alcotest.(check int) "M=2 misses nothing" 0 s2.Exec_trace.misses

let test_fft_output_correct_under_runtime () =
  (* data correctness through the real runtime, not just zero-delay *)
  let p = Fppn_apps.Fft.default_params in
  let net = Fppn_apps.Fft.network p in
  let d = Derive.derive_exn ~wcet:(Fppn_apps.Fft.wcet_map p) net in
  let sched = fft_schedule p net d ~n_procs:2 in
  let feed = Fppn_apps.Fft.input_feed p ~frames:2 in
  let config =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with Engine.inputs = feed }
  in
  let rt = Engine.run net d sched config in
  let spectra = List.assoc "spectrum" (Engine.output_history rt) in
  Alcotest.(check int) "two spectra" 2 (List.length spectra);
  List.iteri
    (fun i v ->
      let input =
        match feed "fft_in" (i + 1) with
        | V.List l -> Array.of_list (List.map V.to_complex l)
        | _ -> Alcotest.fail "bad feed"
      in
      let expected = Fppn_apps.Fft.reference_dft input in
      let bins = Fppn_apps.Fft.spectrum_of_output v in
      Alcotest.(check bool)
        (Printf.sprintf "frame %d correct" (i + 1))
        true
        (Array.for_all2
           (fun (ar, ai) (br, bi) ->
             Float.abs (ar -. br) < 1e-6 && Float.abs (ai -. bi) < 1e-6)
           bins expected))
    spectra

let () =
  Alcotest.run "integration"
    [
      ( "random-pipelines",
        [
          prop_runtime_deterministic_vs_zero_delay;
          prop_no_misses_on_feasible_schedules;
          prop_traces_comply_with_real_time_semantics;
          prop_processor_count_invariance;
          prop_ta_backend_on_random_networks;
          prop_latency_wcet_bound_random;
        ] );
      ( "jitter",
        [ Alcotest.test_case "fig1 jitter invariance" `Quick test_fig1_jitter_invariance ] );
      ( "fms",
        [
          Alcotest.test_case "single-processor pipeline" `Slow test_fms_pipeline;
          Alcotest.test_case "multiprocessor schedules" `Slow
            test_fms_multiprocessor_schedules;
        ] );
      ( "fft",
        [
          Alcotest.test_case "1 vs 2 processors" `Quick test_fft_one_vs_two_processors;
          Alcotest.test_case "runtime output correct" `Quick
            test_fft_output_correct_under_runtime;
        ] );
    ]
