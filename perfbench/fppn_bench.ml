(* The FPPN benchmark.

     fppn_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up several times (setup_s is the median), lets
   caches fill with one untimed operation, then runs the closed loop
   for S seconds and checks every output.  With --trace 0 the last
   stdout line carries the end-to-end metrics; with --trace 1 the loop
   is split into an untraced and a traced half and the last line
   carries the per-layer metrics.  Lines before it start with '#': host
   facts and a human-readable summary. *)

module Json = Rt_util.Json

let workloads =
  [ Engine_wl.sporadic; Engine_wl.wide; Service_wl.steady; Service_wl.churn ]

let kind_of (w : Workload.t) =
  if String.length w.name >= 7 && String.sub w.name 0 7 = "service" then
    Layers.Service
  else Layers.Engine

(* Runs [inst.op] until [seconds] of wall time have passed; returns the
   loop's wall time.  Each time a block closes the calibration kernel
   runs once, outside the timed calls, so [calibration] follows the
   host's speed through the run. *)
let loop (inst : Workload.instance) acc ~calibration ~seconds =
  let t0 = Stats.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let step () =
    inst.op acc;
    if Acc.end_op acc ~heap_mb:(Stats.heap_mb ()) then
      Stats.push calibration (Host.calibrate ())
  in
  step ();
  while Stats.now_ns () < deadline do
    step ()
  done;
  Acc.end_loop acc;
  float_of_int (Stats.now_ns () - t0) /. 1e9

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Human-readable lines: latencies and rates from the untraced loop
   [acc], failures from [checked] (every check of the run). *)
let summary (w : Workload.t) acc ~checked ~setup_s ~n_setups ~peak ~setup_peak =
  let ops = Stats.to_array acc.Acc.ops in
  let op_name, op_what =
    match kind_of w with
    | Layers.Engine -> ("run", "Engine.run + Engine.signature")
    | Layers.Service -> ("epoch", "Service.run_epoch")
  in
  say "%s: %s" w.name w.why;
  say "setup_s %.4f s (median of %d set-ups)" setup_s n_setups;
  say "jobs_per_s %.0f 1/s (%d jobs in %.3f s of timed calls)" (Acc.jobs_per_s acc)
    acc.Acc.jobs acc.Acc.busy_s;
  say "%s_p50_ms %.4f ms (mean over %d blocks of the block median), %s_p90_ms %.4f ms (n=%d, one sample = %s)"
    op_name (Acc.block_p50 acc *. 1e3) (Acc.blocks acc) op_name
    (Stats.quantile ops 0.9 *. 1e3)
    (Array.length ops) op_what;
  (let reg = Acc.timer_samples acc "register" in
   if Array.length reg > 0 then
     say "admit_p50_ms %.4f ms, admit_p90_ms %.4f ms (n=%d, one sample = Service.register)"
       (Stats.quantile reg 0.5 *. 1e3)
       (Stats.quantile reg 0.9 *. 1e3)
       (Array.length reg));
  say "peak_heap_mb %.2f MB (median over %d blocks of the largest major heap after an operation; %.2f MB up to the last set-up)"
    peak (Acc.blocks acc) setup_peak;
  say "failed_share %g (%d failed of %d attempted)%s"
    (Stats.ratio (float_of_int checked.Acc.failed)
       (float_of_int checked.Acc.attempted))
    checked.Acc.failed checked.Acc.attempted
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf " %s=%d" k v)
          (Acc.failures checked)))

let run (w : Workload.t) ~seed ~seconds ~trace =
  let calibration = Stats.samples () in
  for _ = 1 to 5 do
    Stats.push calibration (Host.calibrate ())
  done;
  say "workload=%s seed=%d seconds=%g trace=%d" w.name seed seconds
    (if trace then 1 else 0);
  (* each set-up starts from a compacted heap; only the last one is kept *)
  let setup_acc = Acc.create () in
  let setup = w.setup ~seed in
  let inst = ref None in
  let times =
    Array.init w.setups (fun _ ->
        inst := None;
        Gc.compact ();
        let i, dt = Stats.timed (fun () -> setup setup_acc) in
        inst := Some i;
        dt)
  in
  let setup_s = Stats.median times in
  let setup_peak = Stats.top_heap_mb () in
  let inst = Option.get !inst in
  (* everything the oracle checks: the warm-up, both loops, verify *)
  let checked = Acc.create () in
  let oracle = Acc.create () in
  inst.prepare oracle;
  (* one untimed operation: caches fill, lazy set-up finishes *)
  inst.op oracle;
  (* the loop's heap figure starts from what the set-ups, the oracle's
     references and the warm-up keep alive *)
  Gc.compact ();
  let untraced = Acc.create () in
  let gc0 = Stats.gc_mark () in
  ignore (loop inst untraced ~calibration ~seconds:(if trace then seconds /. 2. else seconds));
  let peak = Acc.block_heap_mb untraced in
  let gc1 = Stats.gc_mark () in
  let traced = Acc.create () in
  let traced_wall_s =
    if not trace then 0.
    else begin
      Fppn_obs.Metrics.reset ();
      Fppn_obs.Trace.reset ();
      Fppn_obs.Metrics.set_enabled true;
      Fppn_obs.Trace.set_enabled true;
      let wall = loop inst traced ~calibration ~seconds:(seconds /. 2.) in
      Fppn_obs.Trace.set_enabled false;
      Fppn_obs.Metrics.set_enabled false;
      wall
    end
  in
  let probe = Acc.create () in
  if trace then inst.probes probe;
  inst.verify oracle;
  List.iter (Acc.merge_failures checked) [ untraced; traced; oracle; probe ];
  let calibration = Stats.to_array calibration in
  let calibration_ms = Stats.median calibration in
  say "host %s" (Json.to_string (Host.facts calibration));
  summary w untraced ~checked ~setup_s ~n_setups:w.setups ~peak
    ~setup_peak;
  let metrics =
    if not trace then
      let ops = Stats.to_array untraced.Acc.ops in
      [
        ("setup_s", "s", setup_s);
        ("jobs_per_s", "1/s", Acc.jobs_per_s untraced);
        ("op_p50_ms", "ms", Acc.block_p50 untraced *. 1e3);
        ("op_p90_ms", "ms", Stats.quantile ops 0.9 *. 1e3);
        ("peak_heap_mb", "MB", peak);
      ]
    else
      let values =
        Layers.compute
          {
            Layers.kind = kind_of w;
            setup = setup_acc;
            untraced;
            untraced_gc =
              { Stats.bytes = gc1.bytes -. gc0.bytes; majors = gc1.majors - gc0.majors };
            traced;
            traced_wall_s;
            hotspots = Fppn_obs.Trace.hotspots ();
            counters = Fppn_obs.Metrics.counters ();
            job_spans = inst.job_spans ();
            probe;
            verify_s =
              List.fold_left
                (fun s acc -> s +. Stats.total (Acc.timer acc "verify"))
                0. [ oracle; untraced; traced ];
            setup_peak_mb = setup_peak;
            calibration_ms;
            failed_share =
              Stats.ratio (float_of_int checked.Acc.failed)
                (float_of_int checked.Acc.attempted);
          }
      in
      List.map (fun (name, v) -> (name, List.assoc name Layers.names, v)) values
  in
  List.iter (fun (name, unit, v) -> if trace then say "%s %.6g %s" name v unit) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (checked.Acc.failed = 0));
            ("attempted", Json.Int checked.Acc.attempted);
            ("failed", Json.Int checked.Acc.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--plant-slowdown",
        Arg.Set_float Stats.planted,
        "F self-test: busy-wait F times each timed call's own duration" );
    ]
  in
  let usage =
    "fppn_bench.exe --workload {"
    ^ String.concat "|" (List.map (fun (w : Workload.t) -> w.name) workloads)
    ^ "} --seed N --seconds S --trace 0|1"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun (w : Workload.t) -> w.name = !workload) workloads with
  | None ->
    prerr_endline usage;
    exit 2
  | Some _ when !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
