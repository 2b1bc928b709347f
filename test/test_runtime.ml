module Rat = Rt_util.Rat
module V = Fppn.Value
module Event = Fppn.Event
module Process = Fppn.Process
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module List_scheduler = Sched.List_scheduler
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Platform = Runtime.Platform
module Uniproc_fp = Runtime.Uniproc_fp

let ms = Rat.of_int
let rat = Alcotest.testable Rat.pp Rat.equal

let eq_sig a b =
  List.equal
    (fun (n1, h1) (n2, h2) -> String.equal n1 n2 && List.equal V.equal h1 h2)
    a b

let schedule_for ?(n_procs = 2) d =
  match snd (List_scheduler.auto ~n_procs d.Derive.graph) with
  | Some a -> a.List_scheduler.schedule
  | None -> Alcotest.fail "no feasible schedule"

(* --- basic engine behaviour ------------------------------------------- *)

let fig1 () =
  let net = Fppn_apps.Fig1.network () in
  let d = Derive.derive_exn ~wcet:Fppn_apps.Fig1.wcet net in
  (net, d)

let test_engine_runs_frames () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let config = Engine.default_config ~frames:3 ~n_procs:2 () in
  let r = Engine.run net d sched config in
  (* 10 jobs per frame, 2 of which are CoefB server slots (skipped: no
     sporadic events were supplied) *)
  Alcotest.(check int) "executed jobs" (8 * 3) r.Engine.stats.Exec_trace.executed;
  Alcotest.(check int) "skipped server slots" (2 * 3) r.Engine.stats.Exec_trace.skipped;
  Alcotest.(check int) "no misses" 0 r.Engine.stats.Exec_trace.misses;
  Alcotest.(check int) "frames" 3 r.Engine.stats.Exec_trace.frames

let test_engine_respects_wcet_and_deadlines () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let config =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with
      Engine.exec = Exec_time.uniform ~seed:3 ~min_fraction:0.2 }
  in
  let r = Engine.run net d sched config in
  Alcotest.(check int) "no misses with early completions" 0
    r.Engine.stats.Exec_trace.misses;
  (* every record's span fits within [start, start + C] *)
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then begin
        let j = Taskgraph.Graph.job d.Derive.graph rec_.Exec_trace.job in
        let dur = Rat.sub rec_.Exec_trace.finish rec_.Exec_trace.start in
        Alcotest.(check bool) "duration <= WCET" true
          Rat.(dur <= j.Taskgraph.Job.wcet)
      end)
    (Engine.trace r)

let test_engine_precedence_order () =
  let net, d = fig1 () in
  let g = d.Derive.graph in
  let sched = schedule_for d in
  let r = Engine.run net d sched (Engine.default_config ~frames:2 ~n_procs:2 ()) in
  (* for every task-graph edge, within each frame, the predecessor must
     finish before the successor starts *)
  let finish = Hashtbl.create 64 and start = Hashtbl.create 64 in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      Hashtbl.replace finish (rec_.Exec_trace.job, rec_.Exec_trace.frame)
        rec_.Exec_trace.finish;
      Hashtbl.replace start (rec_.Exec_trace.job, rec_.Exec_trace.frame)
        rec_.Exec_trace.start)
    (Engine.trace r);
  List.iter
    (fun (a, b) ->
      for f = 0 to 1 do
        match (Hashtbl.find_opt finish (a, f), Hashtbl.find_opt start (b, f)) with
        | Some ea, Some sb ->
          Alcotest.(check bool)
            (Printf.sprintf "edge (%d,%d) frame %d ordered" a b f)
            true
            Rat.(ea <= sb)
        | _ -> Alcotest.fail "missing records"
      done)
    (Taskgraph.Graph.edges g)

let test_engine_mutual_exclusion () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let r = Engine.run net d sched (Engine.default_config ~frames:2 ~n_procs:2 ()) in
  (* on each processor, executions never overlap *)
  let by_proc = Hashtbl.create 4 in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then
        Hashtbl.replace by_proc rec_.Exec_trace.proc
          (rec_
          :: (try Hashtbl.find by_proc rec_.Exec_trace.proc with Not_found -> [])))
    (Engine.trace r);
  Hashtbl.iter
    (fun _ records ->
      let sorted =
        List.sort
          (fun (a : Exec_trace.record) b -> Rat.compare a.Exec_trace.start b.Exec_trace.start)
          records
      in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true
            Rat.(a.Exec_trace.finish <= b.Exec_trace.start);
          scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    by_proc

(* --- determinism under jitter and processor count (Prop. 2.1/4.1) ----- *)

let test_engine_matches_zero_delay () =
  let net, d = fig1 () in
  let frames = 3 in
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  let coefb = [ ms 50; ms 200 ] in
  let inputs = Fppn_apps.Fig1.input_feed ~samples:64 in
  let zd =
    Semantics.run ~inputs net
      (Semantics.invocations ~sporadic:[ ("CoefB", coefb) ] ~horizon net)
  in
  List.iter
    (fun (n_procs, seed) ->
      let sched = schedule_for ~n_procs d in
      let config =
        { (Engine.default_config ~frames ~n_procs ()) with
          Engine.sporadic = [ ("CoefB", coefb) ];
          inputs;
          exec = Exec_time.uniform ~seed ~min_fraction:0.3 }
      in
      let rt = Engine.run net d sched config in
      Alcotest.(check bool)
        (Printf.sprintf "signature equal on M=%d seed=%d" n_procs seed)
        true
        (eq_sig (Semantics.signature zd) (Engine.signature rt)))
    [ (2, 1); (2, 99); (3, 7); (4, 13) ]

(* --- sporadic boundary rule (Fig. 2) ----------------------------------- *)

(* Sporadic S configures periodic user U; U emits (k, cfg) pairs.  The
   scaled variant stretches every time by [scale] and gives S a burst. *)
let boundary_net_scaled ~scale ~burst ~sporadic_first =
  let ms n = Rat.mul scale (ms n) in
  let b = Network.Builder.create "boundary" in
  Network.Builder.add_process b
    (Process.make ~name:"U"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native
          (fun ctx ->
            let cfg = ctx.Process.read "cfg" in
            ctx.Process.write "o" (V.Pair (V.Int ctx.Process.job_index, cfg)))));
  Network.Builder.add_process b
    (Process.make ~name:"S"
       ~event:(Event.sporadic ~burst ~min_period:(ms 100) ~deadline:(ms 150) ())
       (Process.Native
          (fun ctx -> ctx.Process.write "cfg" (V.Int (100 + ctx.Process.job_index)))));
  Network.Builder.add_channel b ~kind:Fppn.Channel.Blackboard ~writer:"S"
    ~reader:"U" "cfg";
  if sporadic_first then Network.Builder.add_priority b "S" "U"
  else Network.Builder.add_priority b "U" "S";
  Network.Builder.add_output b ~owner:"U" "o";
  Network.Builder.finish_exn b

let boundary_net ~sporadic_first =
  boundary_net_scaled ~scale:Rat.one ~burst:1 ~sporadic_first

let boundary_run ~sporadic_first =
  let net = boundary_net ~sporadic_first in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  let sched = schedule_for ~n_procs:1 d in
  let config =
    { (Engine.default_config ~frames:3 ~n_procs:1 ()) with
      Engine.sporadic = [ ("S", [ ms 100 ]) ] (* exactly on a boundary *) }
  in
  let rt = Engine.run net d sched config in
  (net, d, rt)

let test_boundary_closed_right () =
  (* S -> U: the event at t=100 joins the subset at b=100 and is seen by
     U's job at t=100 *)
  let _, _, rt = boundary_run ~sporadic_first:true in
  let o = List.assoc "o" (Engine.output_history rt) in
  Alcotest.(check (list (testable V.pp V.equal))) "handled at b=100"
    [
      V.Pair (V.Int 1, V.Absent);
      V.Pair (V.Int 2, V.Int 101);
      V.Pair (V.Int 3, V.Int 101);
    ]
    o;
  (* matches the zero-delay semantics of the same trace *)
  let net = boundary_net ~sporadic_first:true in
  let zd =
    Semantics.run net
      (Semantics.invocations ~sporadic:[ ("S", [ ms 100 ]) ] ~horizon:(ms 300) net)
  in
  Alcotest.(check bool) "zero-delay agrees" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_boundary_open_right () =
  (* U -> S: the event at t=100 is postponed to the subset at b=200, so
     U's job at t=100 still sees Absent, U at t=200 sees the config *)
  let _, _, rt = boundary_run ~sporadic_first:false in
  let o = List.assoc "o" (Engine.output_history rt) in
  Alcotest.(check (list (testable V.pp V.equal))) "postponed to b=200"
    [
      V.Pair (V.Int 1, V.Absent);
      V.Pair (V.Int 2, V.Absent);
      V.Pair (V.Int 3, V.Int 101);
    ]
    o;
  let net = boundary_net ~sporadic_first:false in
  let zd =
    Semantics.run net
      (Semantics.invocations ~sporadic:[ ("S", [ ms 100 ]) ] ~horizon:(ms 300) net)
  in
  Alcotest.(check bool) "zero-delay agrees" true
    (eq_sig (Semantics.signature zd) (Engine.signature rt))

let test_boundary_assignment_slots () =
  (* Fig. 2 at the window edge, checked at the slot-assignment level: an
     event exactly at b = frame·H is part of the (b-T', b] subset when
     the sporadic has priority over its user, and of the [b, b+T')
     subset — the NEXT frame's slot — otherwise. *)
  let check_case ~sporadic_first ~frames expect_frame =
    let net = boundary_net ~sporadic_first in
    let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
    let assigned, unhandled =
      Engine.sporadic_assignment net d ~frames [ ("S", [ ms 100 ]) ]
    in
    let sp = Network.find net "S" in
    let job = Taskgraph.Graph.find_job d.Derive.graph ~proc:sp ~k:1 in
    match expect_frame with
    | Some f ->
      Alcotest.(check (option rat))
        "stamp assigned to the expected frame's slot" (Some (ms 100))
        (Hashtbl.find_opt assigned (job, f));
      Alcotest.(check (list (pair string rat))) "nothing unhandled" [] unhandled
    | None ->
      Alcotest.(check int) "no slot assigned" 0 (Hashtbl.length assigned);
      Alcotest.(check (list (pair string rat))) "reported beyond horizon"
        [ ("S", ms 100) ]
        unhandled
  in
  (* closed-right: t=100 belongs to the frame-1 window (0,100] *)
  check_case ~sporadic_first:true ~frames:2 (Some 1);
  (* closed-left: t=100 belongs to [100,200), i.e. the frame-2 slot ... *)
  check_case ~sporadic_first:false ~frames:3 (Some 2);
  (* ... which with only 2 simulated frames lies beyond the horizon *)
  check_case ~sporadic_first:false ~frames:2 None

let test_unhandled_horizon_events () =
  let net = boundary_net ~sporadic_first:false in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  let sched = schedule_for ~n_procs:1 d in
  (* open-right windows: an event at 250 falls in [200,300) handled at
     b=300 = beyond the 3-frame horizon of 300 *)
  let config =
    { (Engine.default_config ~frames:3 ~n_procs:1 ()) with
      Engine.sporadic = [ ("S", [ ms 250 ]) ] }
  in
  let rt = Engine.run net d sched config in
  Alcotest.(check (list (pair string rat))) "event reported unhandled"
    [ ("S", ms 250) ]
    rt.Engine.unhandled_events

let test_handled_traces () =
  (* open-right windows, 3 frames of 100: 150 is handled at b=200,
     250 only at b=300, past the horizon *)
  let net = boundary_net ~sporadic_first:false in
  let d = Derive.derive_exn ~wcet:(Derive.const_wcet (ms 10)) net in
  Alcotest.(check (list (pair string (list rat)))) "edge stamp dropped"
    [ ("S", [ ms 150 ]) ]
    (Engine.handled_traces net d ~frames:3 [ ("S", [ ms 150; ms 250 ]) ])

(* --- one-pass sporadic prologue ------------------------------------------ *)

module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Prng = Rt_util.Prng
module Metrics = Fppn_obs.Metrics

(* The former quadratic (m,T) check, kept as the oracle of the one-pass
   [Event.is_valid_sporadic_trace]. *)
let scan_is_valid (ev : Event.t) stamps =
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Rat.(a <= b) && ascending rest
  in
  let non_negative = List.for_all (fun s -> Rat.sign s >= 0) stamps in
  let arr = Array.of_list stamps in
  let n = Array.length arr in
  let window_ok i =
    let lo = Rat.sub arr.(i) ev.Event.period in
    let count = ref 0 in
    for j = 0 to i do
      if Rat.(arr.(j) > lo) then incr count
    done;
    !count <= ev.Event.burst
  in
  let rec all_windows i = i >= n || (window_ok i && all_windows (i + 1)) in
  ascending stamps && non_negative && all_windows 0

(* The former O(frames · slots · stamps) window scan, kept as the oracle
   of [Engine.sporadic_assignment]: every (frame, slot) window rescans
   the whole trace. *)
let scan_assignment net (derived : Derive.t) ~frames traces =
  let g = derived.Derive.graph in
  let hyperperiod = derived.Derive.hyperperiod in
  let find_job ~proc ~k =
    List.find (fun i -> (Graph.job g i).Job.k = k) (Graph.jobs_of_process g proc)
  in
  let assigned = Hashtbl.create 64 in
  let unhandled = ref [] in
  List.iter
    (fun (s : Derive.server_info) ->
      let p = s.Derive.sporadic in
      let proc = Network.process net p in
      let name = Process.name proc in
      let stamps =
        match List.assoc_opt name traces with Some l -> l | None -> []
      in
      if not (scan_is_valid (Process.event proc) stamps) then
        invalid_arg "scan: trace violates (m,T)";
      let ts = s.Derive.server_period in
      let burst = Process.burst proc in
      let slots_per_frame = Rat.to_int_exn (Rat.div hyperperiod ts) in
      let in_window ~b stamp =
        let lo = Rat.sub b ts in
        if s.Derive.boundary_closed_right then Rat.(stamp > lo) && Rat.(stamp <= b)
        else Rat.(stamp >= lo) && Rat.(stamp < b)
      in
      let consumed = Hashtbl.create 16 in
      for frame = 0 to frames - 1 do
        for slot = 1 to slots_per_frame do
          let b =
            Rat.add
              (Rat.mul hyperperiod (Rat.of_int frame))
              (Rat.mul ts (Rat.of_int (slot - 1)))
          in
          let idx = ref 0 in
          List.iteri
            (fun i stamp ->
              if (not (Hashtbl.mem consumed i)) && in_window ~b stamp then begin
                incr idx;
                if !idx <= burst then begin
                  Hashtbl.replace consumed i ();
                  let k = ((slot - 1) * burst) + !idx in
                  Hashtbl.replace assigned (find_job ~proc:p ~k, frame) stamp
                end
              end)
            stamps
        done
      done;
      List.iteri
        (fun i stamp ->
          if not (Hashtbl.mem consumed i) then
            unhandled := (name, stamp) :: !unhandled)
        stamps)
    derived.Derive.servers;
  (assigned, List.rev !unhandled)

let sorted_table tbl =
  List.sort compare
    (Hashtbl.fold (fun key s acc -> (key, Rat.to_string s) :: acc) tbl [])

let fms_derived =
  lazy
    (let net = Fppn_apps.Fms.reduced () in
     (net, Derive.derive_exn ~wcet:Fppn_apps.Fms.wcet net))

type prologue_case = {
  pc_seed : int;
  pc_net : int;  (* 0: reduced FMS; 1: boundary net in thirds of a ms *)
  pc_frames : int;
  pc_flip : bool;  (* swap every server's boundary rule *)
  pc_burst : int;  (* Randgen max_burst *)
  pc_eps : int;  (* edge offsets are ±1/pc_eps *)
  pc_raw : bool;  (* skip the greedy filter: often an invalid trace *)
  pc_mangle : int;  (* 1: swap two stamps; 2: add a negative one *)
}

let prologue_case_gen =
  QCheck2.Gen.(
    let* pc_seed = int_range 0 99999 in
    let* pc_net = int_range 0 5 in
    let* pc_frames = int_range 1 6 in
    let* pc_flip = bool in
    let* pc_burst = int_range 1 4 in
    let* pc_eps = oneofl [ 7; 1000; 3000 ] in
    let* pc_raw = map (fun i -> i = 0) (int_range 0 5) in
    let+ pc_mangle = map (fun i -> max 0 (i - 7)) (int_range 0 9) in
    { pc_seed; pc_net; pc_frames; pc_flip; pc_burst; pc_eps; pc_raw; pc_mangle })

let prologue_case_print c =
  Printf.sprintf
    "{seed=%d; net=%d; frames=%d; flip=%b; burst=%d; eps=1/%d; raw=%b; mangle=%d}"
    c.pc_seed c.pc_net c.pc_frames c.pc_flip c.pc_burst c.pc_eps c.pc_raw
    c.pc_mangle

(* Per server: window edges b = w·T' past the horizon, b ± ε, burst+1
   duplicates of an edge and random stamps, a random subset of them,
   sorted, then greedily made (m,T)-valid unless [pc_raw], and with
   [pc_mangle] put out of order or given a negative stamp.  The
   boundary net's windows end on non-integer edges. *)
let prologue_inputs c =
  let net, d =
    if c.pc_net = 0 then Lazy.force fms_derived
    else if c.pc_net = 1 then
      let net =
        boundary_net_scaled ~scale:(Rat.make 1 3) ~burst:c.pc_burst
          ~sporadic_first:(c.pc_seed mod 2 = 0)
      in
      (net, Derive.derive_exn ~wcet:(Derive.const_wcet (Rat.make 1 10)) net)
    else
      let net =
        Fppn_apps.Randgen.network
          {
            Fppn_apps.Randgen.default_params with
            seed = c.pc_seed;
            n_periodic = 1 + (c.pc_seed mod 4);
            n_sporadic = 1 + (c.pc_seed / 4 mod 3);
            max_burst = c.pc_burst;
          }
      in
      (net, Derive.derive_exn ~wcet:(Derive.const_wcet (Rat.make 1 10)) net)
  in
  let d =
    if not c.pc_flip then d
    else
      {
        d with
        Derive.servers =
          List.map
            (fun (s : Derive.server_info) ->
              { s with Derive.boundary_closed_right = not s.Derive.boundary_closed_right })
            d.Derive.servers;
      }
  in
  let prng = Prng.create c.pc_seed in
  let h = d.Derive.hyperperiod in
  let horizon = Rat.mul h (Rat.of_int c.pc_frames) in
  let eps = Rat.make 1 c.pc_eps in
  let traces =
    List.map
      (fun (s : Derive.server_info) ->
        let proc = Network.process net s.Derive.sporadic in
        let ts = s.Derive.server_period in
        let windows = (Rat.to_int_exn (Rat.div h ts) * c.pc_frames) + 2 in
        let keep = if c.pc_net = 0 then 0.15 else 0.5 in
        let cands = ref [] in
        let add x = if Rat.sign x >= 0 && Prng.float prng 1.0 < keep then cands := x :: !cands in
        for w = 0 to windows do
          let b = Rat.mul ts (Rat.of_int w) in
          List.iter add [ b; Rat.add b eps; Rat.sub b eps ];
          if Prng.float prng 1.0 < 0.1 then
            for _ = 0 to Process.burst proc do
              cands := b :: !cands
            done
        done;
        let span = Rat.floor (Rat.mul (Rat.add horizon ts) (Rat.of_int c.pc_eps)) in
        for _ = 1 to windows do
          add (Rat.make (Prng.int prng (max 1 span)) c.pc_eps)
        done;
        let stamps = List.sort Rat.compare !cands in
        ( Process.name proc,
          let stamps =
            if c.pc_raw then stamps
            else Fppn_fuzz.Adversary.greedy_valid (Process.event proc) stamps
          in
          match (c.pc_mangle, stamps) with
          | 1, a :: b :: rest -> b :: a :: rest
          | 2, _ -> stamps @ [ Rat.neg eps ]
          | _ -> stamps ))
      d.Derive.servers
  in
  (net, d, traces)

let prop_assignment_matches_scan =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"one-pass assignment = window scan" ~count:150
       ~print:prologue_case_print prologue_case_gen (fun c ->
         let net, d, traces = prologue_inputs c in
         let frames = c.pc_frames in
         let outcome f =
           match f () with
           | tbl, unhandled -> Ok (sorted_table tbl, unhandled)
           | exception Invalid_argument _ -> Error ()
         in
         let fast = outcome (fun () -> Engine.sporadic_assignment net d ~frames traces) in
         let scan = outcome (fun () -> scan_assignment net d ~frames traces) in
         match (fast, scan) with
         | Error (), Error () -> true
         | Ok (t1, u1), Ok (t2, u2) ->
           t1 = t2
           && List.equal (fun (n1, s1) (n2, s2) -> n1 = n2 && Rat.equal s1 s2) u1 u2
         | _ -> false))

let prop_validity_matches_scan =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"one-pass (m,T) check = quadratic check" ~count:500
       QCheck2.Gen.(
         let* burst = int_range 1 4 in
         let* pnum = int_range 1 20 in
         let* pden = int_range 1 3 in
         let* sorted = bool in
         let+ stamps =
           list_size (int_range 0 12)
             (map2 (fun num den -> Rat.make num den) (int_range (-5) 40) (int_range 1 3))
         in
         (burst, Rat.make pnum pden, if sorted then List.sort Rat.compare stamps else stamps))
       (fun (burst, period, stamps) ->
         let ev = Event.sporadic ~burst ~min_period:period ~deadline:period () in
         Event.is_valid_sporadic_trace ev stamps = scan_is_valid ev stamps))

(* The trace generators as they were before the one-pass check: the
   outputs of the linear versions must not change for any seed. *)
let old_random_sporadic_trace (ev : Event.t) prng ~horizon ~density =
  let horizon_ms = Rat.floor horizon in
  let p_event =
    density *. float_of_int ev.Event.burst /. Rat.to_float ev.Event.period
  in
  let accepted = ref [] in
  let window_count stamp =
    let lo = Rat.sub stamp ev.Event.period in
    List.length (List.filter (fun s -> Rat.(s > lo)) !accepted)
  in
  for ms = 0 to horizon_ms - 1 do
    if Prng.float prng 1.0 < p_event then begin
      let stamp = Rat.of_int ms in
      if window_count stamp < ev.Event.burst then accepted := stamp :: !accepted
    end
  done;
  List.rev !accepted

let old_greedy_valid ev stamps =
  List.fold_left
    (fun acc t ->
      let ext = acc @ [ t ] in
      if scan_is_valid ev ext then ext else acc)
    [] stamps

let test_generators_unchanged () =
  let events =
    [
      (1, ms 200); (2, ms 200); (2, ms 700); (5, ms 1000); (5, ms 1600); (3, Rat.make 70 3);
    ]
  in
  List.iter
    (fun (burst, period) ->
      let ev = Event.sporadic ~burst ~min_period:period ~deadline:period () in
      for seed = 1 to 4 do
        List.iter
          (fun density ->
            let horizon = ms (2000 + (seed * 1000)) in
            let fresh = Event.random_sporadic_trace ev (Prng.create seed) ~horizon ~density in
            let old = old_random_sporadic_trace ev (Prng.create seed) ~horizon ~density in
            Alcotest.(check (list rat)) "random_sporadic_trace unchanged" old fresh)
          [ 0.3; 0.8; 1.0 ];
        let prng = Prng.create (seed * 31) in
        let cands =
          List.init 40 (fun _ -> Rat.make (Prng.int_in prng (-20) 4000) (Prng.int_in prng 1 3))
        in
        List.iter
          (fun stamps ->
            Alcotest.(check (list rat)) "greedy_valid unchanged"
              (old_greedy_valid ev stamps)
              (Fppn_fuzz.Adversary.greedy_valid ev stamps))
          [ cands; List.sort Rat.compare cands; List.sort Rat.compare (cands @ cands) ]
      done)
    events

(* The plan no longer depends on the stamps: eight fresh configurations
   compile once, an off-grid stamp costs that run alone a one-off
   compile, and every signature stays the rational reference's. *)
let test_compile_once () =
  let net, d = Lazy.force fms_derived in
  let sched = schedule_for ~n_procs:2 d in
  let frames = 2 in
  let base = Engine.default_config ~frames ~n_procs:2 () in
  let horizon = Rat.mul d.Derive.hyperperiod (Rat.of_int frames) in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let same_as_reference config r =
    eq_sig (Engine.signature r)
      (Engine.signature (Engine.run_reference net d sched config))
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () ->
      for i = 0 to 7 do
        let traces =
          Fppn_apps.Fms.random_config_traces ~seed:(100 + i) ~horizon ~density:0.5 net
        in
        let config = { base with Engine.sporadic = traces } in
        Alcotest.(check bool) "signature = reference" true
          (same_as_reference config (Engine.run net d sched config))
      done;
      Alcotest.(check int) "one compile for eight configurations" 1
        (counter "engine.compiles");
      Alcotest.(check int) "no stamp recompile on the grid" 0
        (counter "engine.stamp_recompiles");
      let off_grid = Rat.add (ms 1000) (Rat.make 1 3000) in
      let config = { base with Engine.sporadic = [ ("AnemoConfig", [ off_grid ]) ] } in
      Alcotest.(check bool) "off-grid signature = reference" true
        (same_as_reference config (Engine.run net d sched config));
      Alcotest.(check int) "off-grid stamp: one recompile" 1
        (counter "engine.stamp_recompiles"))

(* --- overhead model ----------------------------------------------------- *)

let test_frame_overhead_delays_start () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let overhead =
    { Platform.first_frame = ms 41; steady_frame = ms 20; per_access = Rat.zero }
  in
  let config =
    { (Engine.default_config ~frames:2 ~n_procs:2 ()) with
      Engine.platform = Platform.create ~overhead ~n_procs:2 () }
  in
  let r = Engine.run net d sched config in
  List.iter
    (fun (rec_ : Exec_trace.record) ->
      if not rec_.Exec_trace.skipped then begin
        let bound = if rec_.Exec_trace.frame = 0 then ms 41 else ms 220 in
        Alcotest.(check bool) "start delayed past the frame overhead" true
          Rat.(rec_.Exec_trace.start >= bound)
      end)
    (Engine.trace r);
  Alcotest.(check int) "overhead segments reported" 2
    (List.length (Engine.overhead_segments r))

let test_per_access_overhead_inflates_duration () =
  let net, d = fig1 () in
  let sched = schedule_for d in
  let base = Engine.run net d sched (Engine.default_config ~frames:1 ~n_procs:2 ()) in
  let overhead =
    { Platform.first_frame = Rat.zero; steady_frame = Rat.zero; per_access = ms 1 }
  in
  let config =
    { (Engine.default_config ~frames:1 ~n_procs:2 ()) with
      Engine.platform = Platform.create ~overhead ~n_procs:2 () }
  in
  let inflated = Engine.run net d sched config in
  let dur r =
    List.fold_left
      (fun acc (rec_ : Exec_trace.record) ->
        Rat.add acc (Rat.sub rec_.Exec_trace.finish rec_.Exec_trace.start))
      Rat.zero (Engine.trace r)
  in
  Alcotest.(check bool) "total busy time grows with per-access cost" true
    Rat.(dur inflated > dur base)

(* --- uniprocessor fixed-priority baseline ------------------------------- *)

let test_uniproc_rm_equivalence_fms () =
  (* Sec. V-B: FMS under FPPN semantics is functionally equivalent to
     the rate-monotonic uniprocessor prototype *)
  let net = Fppn_apps.Fms.reduced () in
  let horizon = ms 2000 in
  let sporadic =
    [ ("BCPConfig", [ ms 70; ms 430 ]); ("PerformanceConfig", [ ms 120 ]) ]
  in
  let zd =
    Semantics.run net (Semantics.invocations ~sporadic ~horizon net)
  in
  let cfg =
    { (Uniproc_fp.default_config ~wcet:Fppn_apps.Fms.wcet ~horizon) with
      Uniproc_fp.sporadic }
  in
  let up = Uniproc_fp.run net cfg in
  Alcotest.(check int) "no misses at load 0.23" 0 up.Uniproc_fp.misses;
  Alcotest.(check bool) "uniproc RM functionally equivalent to zero-delay"
    true
    (eq_sig (Semantics.signature zd) (Uniproc_fp.signature up))

let test_uniproc_preemption_counted () =
  (* a long low-priority job is preempted by a short high-priority one *)
  let b = Network.Builder.create "preempt" in
  Network.Builder.add_process b
    (Process.make ~name:"Long"
       ~event:(Event.periodic ~period:(ms 1000) ~deadline:(ms 1000) ())
       (Process.Native (fun _ -> ())));
  Network.Builder.add_process b
    (Process.make ~name:"Short"
       ~event:(Event.periodic ~period:(ms 100) ~deadline:(ms 100) ())
       (Process.Native (fun _ -> ())));
  let net = Network.Builder.finish_exn b in
  let wcet = Derive.wcet_of_list (ms 10) [ ("Long", ms 250); ("Short", ms 10) ] in
  let cfg = Uniproc_fp.default_config ~wcet ~horizon:(ms 1000) in
  let up = Uniproc_fp.run net cfg in
  let long_rec =
    List.find (fun r -> r.Uniproc_fp.process = "Long") up.Uniproc_fp.records
  in
  Alcotest.(check bool) "Long was preempted" true
    (long_rec.Uniproc_fp.preemptions >= 2);
  (* RM: Short (smaller period) always runs first at common releases *)
  let short_first =
    List.find (fun r -> r.Uniproc_fp.process = "Short") up.Uniproc_fp.records
  in
  Alcotest.check rat "Short starts at 0" (ms 0) short_first.Uniproc_fp.started

let () =
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "frames" `Quick test_engine_runs_frames;
          Alcotest.test_case "wcet and deadlines" `Quick
            test_engine_respects_wcet_and_deadlines;
          Alcotest.test_case "precedence order" `Quick test_engine_precedence_order;
          Alcotest.test_case "mutual exclusion" `Quick test_engine_mutual_exclusion;
        ] );
      ( "determinism",
        [ Alcotest.test_case "matches zero-delay" `Quick test_engine_matches_zero_delay ] );
      ( "sporadic",
        [
          Alcotest.test_case "boundary closed-right" `Quick test_boundary_closed_right;
          Alcotest.test_case "boundary open-right" `Quick test_boundary_open_right;
          Alcotest.test_case "boundary slot assignment" `Quick
            test_boundary_assignment_slots;
          Alcotest.test_case "unhandled horizon events" `Quick
            test_unhandled_horizon_events;
          Alcotest.test_case "handled traces" `Quick test_handled_traces;
        ] );
      ( "sporadic-prologue",
        [
          prop_assignment_matches_scan;
          prop_validity_matches_scan;
          Alcotest.test_case "trace generators unchanged" `Quick
            test_generators_unchanged;
          Alcotest.test_case "compile once across stamps" `Quick test_compile_once;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "frame overhead" `Quick test_frame_overhead_delays_start;
          Alcotest.test_case "per-access overhead" `Quick
            test_per_access_overhead_inflates_duration;
        ] );
      ( "uniproc",
        [
          Alcotest.test_case "FMS RM equivalence" `Quick test_uniproc_rm_equivalence_fms;
          Alcotest.test_case "preemption" `Quick test_uniproc_preemption_counted;
        ] );
    ]
