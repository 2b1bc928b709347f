module Rat = Rt_util.Rat
module Timebase = Rt_util.Timebase
module Pqueue = Rt_util.Pqueue
module Iheap = Rt_util.Iheap
module Trace = Fppn_obs.Trace
module Metrics = Fppn_obs.Metrics
module Network = Fppn.Network
module Process = Fppn.Process
module Event = Fppn.Event
module Netstate = Fppn.Netstate
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job
module Derive = Taskgraph.Derive
module Static_schedule = Sched.Static_schedule

type config = {
  platform : Platform.t;
  exec : Exec_time.t;
  frames : int;
  sporadic : (string * Rat.t list) list;
  inputs : Netstate.input_feed;
}

let default_config ?(frames = 1) ~n_procs () =
  {
    platform = Platform.create ~n_procs ();
    exec = Exec_time.constant;
    frames;
    sporadic = [];
    inputs = Netstate.no_inputs;
  }

(* Traces, histories and overhead segments are produced lazily: the
   compiled core keeps its records as packed int arrays and most
   consumers (benchmarks, statistics, gates) never look at the rational
   view, so materializing it per run would dominate both time and
   allocation of short simulations.  Forcing is not synchronized —
   a result is meant to be consumed by the domain that ran it. *)
type result = {
  trace : Exec_trace.t Lazy.t;
  channel_history : (string * Fppn.Value.t list) list Lazy.t;
  output_history : (string * Fppn.Value.t list) list Lazy.t;
  stats : Exec_trace.stats;
  unhandled_events : (string * Rat.t) list;
  overhead_segments : (int * Rat.t * Rat.t) list Lazy.t;
}

let trace r = Lazy.force r.trace
let channel_history r = Lazy.force r.channel_history
let output_history r = Lazy.force r.output_history
let overhead_segments r = Lazy.force r.overhead_segments

(* Validation shared by both interpreter cores: the static part once per
   prepared handle, the sporadic traces once per run. *)
let check_static (derived : Derive.t) sched config =
  let n = Graph.n_jobs derived.Derive.graph in
  if config.frames <= 0 then invalid_arg "Engine.run: frames must be positive";
  if Static_schedule.n_jobs sched <> n then
    invalid_arg "Engine.run: schedule does not cover the task graph";
  if Static_schedule.n_procs sched <> config.platform.Platform.n_procs then
    invalid_arg "Engine.run: schedule and platform processor counts differ"

let check_sporadic net sporadic =
  List.iter
    (fun (name, _) ->
      let p =
        try Network.find net name
        with Not_found ->
          invalid_arg (Printf.sprintf "Engine.run: unknown process %S" name)
      in
      if not (Process.is_sporadic (Network.process net p)) then
        invalid_arg
          (Printf.sprintf "Engine.run: %S is periodic, not sporadic" name))
    sporadic

(* Map every (server job id, frame) to the real sporadic event it
   handles, applying the Fig. 2 boundary rule: [place ((frame · n) +
   job) stamp] for each handled event.  Returns the events that fall
   beyond the last simulated window or beyond the burst of their own.

   The server's windows tile the time line: window [w] (counted from 0
   across frames) is ((w-1)·T', w·T'] when right-closed and
   [(w-1)·T', w·T') otherwise, so a stamp's window is ⌈s/T'⌉ or
   ⌊s/T'⌋+1, computed once.  A valid trace ascends, so the stamps of
   one window are consecutive and a running counter ranks them; the
   rank-th stamp of window [w] goes to slot [w mod S] of frame [w / S]
   while the rank is within the burst.  With the one-pass (m,T) check,
   O(stamps). *)
let assign_windows net (derived : Derive.t) ~frames traces ~place =
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let unhandled = ref [] in
  List.iter
    (fun (s : Derive.server_info) ->
      let p = s.Derive.sporadic in
      let name = Process.name (Network.process net p) in
      let stamps =
        match List.assoc_opt name traces with Some l -> l | None -> []
      in
      let ev = Process.event (Network.process net p) in
      if not (Event.is_valid_sporadic_trace ev stamps) then
        invalid_arg
          (Printf.sprintf "Engine.run: sporadic trace of %S violates (m,T)" name);
      let ts = s.Derive.server_period in
      let burst = Process.burst (Network.process net p) in
      let slots_per_frame =
        Rat.to_int_exn (Rat.div derived.Derive.hyperperiod ts)
      in
      let closed_right = s.Derive.boundary_closed_right in
      (* integer stamps and periods, the common case, skip the gcds *)
      let window stamp =
        if Rat.den stamp = 1 && Rat.den ts = 1 then
          let a = Rat.num stamp and c = Rat.num ts in
          let q = a / c in
          if closed_right && q * c = a then q else q + 1
        else if closed_right then Rat.ceil (Rat.div stamp ts)
        else Rat.fdiv stamp ts + 1
      in
      (* the current window, its rank counter and, since windows only
         grow, its frame and that frame's first window *)
      let cur = ref (-1) and rank = ref 0 in
      let frame = ref 0 and frame_w = ref 0 in
      List.iter
        (fun stamp ->
          let w = window stamp in
          if w <> !cur then begin
            cur := w;
            rank := 0
          end;
          incr rank;
          if w < frames * slots_per_frame && !rank <= burst then begin
            while w >= !frame_w + slots_per_frame do
              incr frame;
              frame_w := !frame_w + slots_per_frame
            done;
            let k = ((w - !frame_w) * burst) + !rank in
            place ((!frame * n) + Graph.find_job g ~proc:p ~k) stamp
          end
          else unhandled := (name, stamp) :: !unhandled)
        stamps)
    derived.Derive.servers;
  List.rev !unhandled

(* The assignment as rationals for the reference core: flat at
   [(frame · n) + job], [None] for a slot without a real event. *)
let rat_assignment net (derived : Derive.t) ~frames traces =
  let assigned = Array.make (Graph.n_jobs derived.Derive.graph * frames) None in
  let unhandled =
    assign_windows net derived ~frames traces ~place:(fun i stamp ->
        assigned.(i) <- Some stamp)
  in
  (assigned, unhandled)

let sporadic_assignment net (derived : Derive.t) ~frames traces =
  let n = Graph.n_jobs derived.Derive.graph in
  let table = Hashtbl.create 64 in
  let unhandled =
    assign_windows net derived ~frames traces ~place:(fun i stamp ->
        Hashtbl.replace table (i mod n, i / n) stamp)
  in
  (table, unhandled)

let handled_traces net derived ~frames traces =
  let unhandled =
    assign_windows net derived ~frames traces ~place:(fun _ _ -> ())
  in
  let handled name s =
    not (List.exists (fun (n, u) -> String.equal n name && Rat.equal u s) unhandled)
  in
  List.map (fun (name, stamps) -> (name, List.filter (handled name) stamps)) traces

type proc_state = {
  order : int array;
  mutable frame : int;
  mutable pos : int;
  mutable busy_until : Rat.t option;
  mutable running : (int * Exec_trace.record) option;
      (** job id + its record-in-progress while busy *)
}

let overhead_segments_of config ~frame_base ~overhead_end =
  List.filter_map
    (fun frame ->
      let from = frame_base frame and till = overhead_end frame in
      if Rat.(till > from) then Some (frame, from, till) else None)
    (List.init config.frames Fun.id)

(* ------------------------------------------------------------------ *)
(* Reference core: exact rational arithmetic, polling fixpoint.         *)
(*                                                                      *)
(* This is the seed interpreter, kept verbatim as the semantic ground   *)
(* truth the compiled tick core is differentially tested against.       *)
(* ------------------------------------------------------------------ *)

let exec_rat net (derived : Derive.t) sched config ~assigned ~unhandled_events =
  let g = derived.Derive.graph in
  let h = derived.Derive.hyperperiod in
  let state = Netstate.create net in
  let n_procs = config.platform.Platform.n_procs in
  let procs =
    Array.init n_procs (fun p ->
        {
          order = Static_schedule.order_on sched p;
          frame = 0;
          pos = 0;
          busy_until = None;
          running = None;
        })
  in
  (* completions.(job) = number of frames in which the job has completed
     (executed or skipped); job j of frame f is done iff > f *)
  let n = Graph.n_jobs g in
  let completions = Array.make n 0 in
  let records = ref [] in
  let events = Pqueue.create ~cmp:Rat.compare in
  let now = ref Rat.zero in
  let frame_base frame = Rat.mul h (Rat.of_int frame) in
  let overhead_end frame =
    Rat.add (frame_base frame)
      (Platform.frame_overhead config.platform ~frame)
  in
  let preds_done frame job =
    List.for_all (fun p -> completions.(p) > frame) (Graph.preds g job)
  in
  let relative_deadline job =
    Process.deadline (Network.process net (Graph.job g job).Job.proc)
  in
  (* one attempt to make progress on processor [p]; true if state changed *)
  let advance ps =
    match ps.busy_until with
    | Some t when Rat.(t <= !now) ->
      (* job completes *)
      let job, record = Option.get ps.running in
      completions.(job) <- completions.(job) + 1;
      records := { record with Exec_trace.finish = t } :: !records;
      ps.busy_until <- None;
      ps.running <- None;
      ps.pos <- ps.pos + 1;
      if ps.pos >= Array.length ps.order then begin
        ps.pos <- 0;
        ps.frame <- ps.frame + 1
      end;
      true
    | Some _ -> false
    | None ->
      if ps.frame >= config.frames || Array.length ps.order = 0 then false
      else begin
        let job = ps.order.(ps.pos) in
        let j = Graph.job g job in
        let base = frame_base ps.frame in
        (* For periodic jobs the invocation occurs at A_i.  For server
           slots the real event may arrive earlier, but only at the
           boundary b = A_i can a slot be declared 'false' (Sec. IV), so
           the round synchronizes on A_i in both cases — conservative
           and sufficient for Prop. 4.1. *)
        let invocation = Rat.add base j.Job.arrival in
        let earliest = Rat.max invocation (overhead_end ps.frame) in
        if Rat.(earliest > !now) then begin
          Pqueue.push events earliest;
          false
        end
        else if not (preds_done ps.frame job) then false
        else begin
          let stamp =
            if j.Job.is_server then assigned.((ps.frame * n) + job)
            else Some (Rat.add base j.Job.arrival)
          in
          match stamp with
          | None ->
            (* 'false' job: skip without executing *)
            let b = Rat.add base j.Job.arrival in
            records :=
              {
                Exec_trace.job;
                label = Job.label j;
                frame = ps.frame;
                proc = Static_schedule.proc sched job;
                invoked = b;
                start = !now;
                finish = !now;
                deadline = Rat.add b (relative_deadline job);
                skipped = true;
              }
              :: !records;
            completions.(job) <- completions.(job) + 1;
            ps.pos <- ps.pos + 1;
            if ps.pos >= Array.length ps.order then begin
              ps.pos <- 0;
              ps.frame <- ps.frame + 1
            end;
            true
          | Some invoked ->
            (* execute the job body now; duration covers the WCET model
               plus per-access synchronisation overhead *)
            let accesses = ref 0 in
            let recorder = function
              | Fppn.Trace.Read _ | Fppn.Trace.Write _ -> incr accesses
              | _ -> ()
            in
            Netstate.run_job ~recorder ~inputs:config.inputs state
              ~proc:j.Job.proc ~now:invoked;
            let duration =
              Rat.add
                (Exec_time.sample config.exec j)
                (Rat.mul
                   config.platform.Platform.overhead.Platform.per_access
                   (Rat.of_int !accesses))
            in
            let finish = Rat.add !now duration in
            ps.busy_until <- Some finish;
            ps.running <-
              Some
                ( job,
                  {
                    Exec_trace.job;
                    label = Job.label j;
                    frame = ps.frame;
                    proc = Static_schedule.proc sched job;
                    invoked;
                    start = !now;
                    finish;
                    deadline = Rat.add invoked (relative_deadline job);
                    skipped = false;
                  } );
            Pqueue.push events finish;
            true
        end
      end
  in
  Pqueue.push events Rat.zero;
  let rec fixpoint () =
    let changed = Array.fold_left (fun acc ps -> advance ps || acc) false procs in
    if changed then fixpoint ()
  in
  let rec loop () =
    (* blocked processors re-push [earliest] on every poll; coalescing
       the duplicates here skips the no-op fixpoint per duplicate *)
    match Pqueue.pop_distinct events with
    | None -> ()
    | Some t ->
      if Rat.(t >= !now) then begin
        now := t;
        fixpoint ()
      end;
      loop ()
  in
  loop ();
  let trace =
    List.sort
      (fun (a : Exec_trace.record) b ->
        let c = Rat.compare a.start b.start in
        if c <> 0 then c
        else
          let c = Int.compare a.proc b.proc in
          if c <> 0 then c
          else
            let c = Int.compare a.frame b.frame in
            if c <> 0 then c else Int.compare a.job b.job)
      !records
  in
  {
    trace = Lazy.from_val trace;
    channel_history = lazy (Netstate.channel_history state);
    output_history = lazy (Netstate.output_history state);
    stats = Exec_trace.stats trace;
    unhandled_events;
    overhead_segments =
      lazy (overhead_segments_of config ~frame_base ~overhead_end);
  }

(* ------------------------------------------------------------------ *)
(* Compiled core: integer tick timeline, wake-list scheduling.          *)
(*                                                                      *)
(* Setup maps every model time onto the common-denominator tick grid    *)
(* of a [Timebase]; the event loop then runs on machine integers, and   *)
(* a completion re-examines only the processors registered on the       *)
(* completed job's wake list instead of polling all of them.  The       *)
(* transition order of the reference fixpoint (ascending processor      *)
(* index per sweep, sweeps repeated until quiescent) is replicated      *)
(* exactly, so execution-time PRNG draws, channel operations and trace  *)
(* records are bit-identical to [exec_rat]'s.                           *)
(* ------------------------------------------------------------------ *)

type tick_plan = {
  tb : Timebase.t;
  h_t : int;  (* hyperperiod *)
  first_t : int;  (* frame overheads *)
  steady_t : int;
  per_access_t : int;
  arr_t : int array;  (* per job: phase within the frame *)
  dl_rel_t : int array;  (* per job: relative deadline of its process *)
  dur_t : int array option;
      (* per job: fixed duration ticks; [None] = draw per execution *)
}

type tick_proc = {
  mutable t_order : int array;
  mutable t_frame : int;
  mutable t_pos : int;
  mutable t_busy : bool;
  (* the record-in-progress while busy, final since start time *)
  mutable t_job : int;
  mutable t_invoked : int;
  mutable t_start : int;
  mutable t_finish : int;
  mutable t_deadline : int;
  mutable t_missing : int;  (* wake-list registrations outstanding *)
}

(* index of the only set bit of [b] *)
let bit_index b =
  let i = ref 0 and b = ref b in
  while !b land 1 = 0 do
    if !b land 0xffffffff = 0 then begin
      b := !b lsr 32;
      i := !i + 32
    end
    else if !b land 0xff = 0 then begin
      b := !b lsr 8;
      i := !i + 8
    end
    else begin
      b := !b lsr 1;
      incr i
    end
  done;
  !i

(* Compile the run onto a tick grid, or [None] when any time cannot be
   represented (unpredictable execution-time model, common-denominator
   overflow, horizon too large) — the caller then uses the exact
   rational core, so compilation failures degrade, never crash.  The
   grid covers the static times only, plus any extra [stamps]: a plan
   compiled without stamps serves every run whose stamps land on it. *)
let tick_compile ?(stamps = []) net (derived : Derive.t) config =
  let g = derived.Derive.graph in
  let jobs = Graph.jobs g in
  match Exec_time.durations config.exec ~jobs with
  | Exec_time.Opaque -> None
  | (Exec_time.Fixed _ | Exec_time.Extras _) as durs -> (
    let dur_times =
      match durs with
      | Exec_time.Fixed a -> Array.to_list a
      | Exec_time.Extras l -> l
      | Exec_time.Opaque -> []
    in
    match
      let ov = config.platform.Platform.overhead in
      let times =
        derived.Derive.hyperperiod :: ov.Platform.first_frame
        :: ov.Platform.steady_frame :: ov.Platform.per_access
        :: stamps
        @ dur_times
        @ Array.to_list (Array.map (fun j -> j.Job.wcet) jobs)
        @ Array.to_list (Array.map (fun j -> j.Job.arrival) jobs)
        @ List.init (Network.n_processes net) (fun p ->
              Process.deadline (Network.process net p))
      in
      let horizon =
        Rat.mul derived.Derive.hyperperiod (Rat.of_int config.frames)
      in
      Timebase.create ~horizon times
    with
    | exception Rat.Overflow -> None
    | None -> None
    | Some tb -> (
      let ov = config.platform.Platform.overhead in
      match
        let tk = Timebase.ticks tb in
        {
          tb;
          h_t = tk derived.Derive.hyperperiod;
          first_t = tk ov.Platform.first_frame;
          steady_t = tk ov.Platform.steady_frame;
          per_access_t = tk ov.Platform.per_access;
          arr_t = Array.map (fun j -> tk j.Job.arrival) jobs;
          dl_rel_t =
            Array.map
              (fun j -> tk (Process.deadline (Network.process net j.Job.proc)))
              jobs;
          dur_t =
            (match durs with
            | Exec_time.Fixed a -> Some (Array.map tk a)
            | Exec_time.Extras _ | Exec_time.Opaque -> None);
        }
      with
      | plan -> Some plan
      | exception (Timebase.Inexact | Rat.Overflow) -> None))

let compile ?stamps net derived config =
  if Metrics.enabled () then Metrics.incr (Metrics.counter "engine.compiles");
  Trace.with_span "engine.compile" (fun () ->
      tick_compile ?stamps net derived config)

(* Per-domain engine workspace: every working array of [exec_ticks]
   whose contents live for one run only.  Their shapes depend on sizes
   alone (jobs, dependence edges, processors, records), so one
   grow-only set per domain serves every prepared handle; nothing is
   keyed on it, so it can never go stale, and a run reads only the
   prefixes it wrote.  The first run of the largest network sizes it;
   later runs pay a handful of prefix [fill]s. *)
type workspace = {
  mutable procs : tick_proc array;
  mutable completions : int array;
  (* per-job waiter segments, at the handle's [succ_off] and sized by
     out-degree: a processor registers on a job only while its current
     job has it as predecessor, and distinct registrants host distinct
     successors, so out-degree bounds each segment.  A completion then
     walks just its own segment — no list cell is ever consed. *)
  mutable w_proc : int array;
  mutable w_frame : int array;
  mutable w_len : int array;
  (* completed records as packed parallel arrays (grown on demand) *)
  mutable s_job : int array;
  mutable s_frame : int array;
  mutable s_invoked : int array;
  mutable s_start : int array;
  mutable s_finish : int array;
  mutable s_deadline : int array;
  mutable s_skip : Bytes.t;
  (* replay template, captured in job start order *)
  mutable p_job : int array;
  mutable p_invoked : int array;
  mutable p_start : int array;
  mutable p_finish : int array;
  mutable p_deadline : int array;
  mutable p_skip : Bytes.t;
  (* the steady-frame replay program: the template frame's executed
     bodies in call order, each with the index of its invocation
     instant among the frame's distinct instants [u_tick] *)
  mutable r_proc : int array;
  mutable r_uidx : int array;
  mutable u_tick : int array;
  (* the run's stamps as ticks at [(frame · n) + job]; see
     [tick_assignment] *)
  mutable stamps : int array;
  events : Iheap.t;
  mutable hot : int array;
}

let workspace_key : workspace Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        procs = [||];
        completions = [||];
        w_proc = [||];
        w_frame = [||];
        w_len = [||];
        s_job = [||];
        s_frame = [||];
        s_invoked = [||];
        s_start = [||];
        s_finish = [||];
        s_deadline = [||];
        s_skip = Bytes.empty;
        p_job = [||];
        p_invoked = [||];
        p_start = [||];
        p_finish = [||];
        p_deadline = [||];
        p_skip = Bytes.empty;
        r_proc = [||];
        r_uidx = [||];
        u_tick = [||];
        stamps = [||];
        events = Iheap.create ~capacity:16 ();
        hot = [||];
      })

(* [a] itself when it holds [len] entries, else a fresh zeroed array *)
let fit a len = if Array.length a >= len then a else Array.make len 0
let fit_bytes b len = if Bytes.length b >= len then b else Bytes.make len '\000'

(* The Fig. 2 assignment straight onto [plan]'s grid: [Some (table,
   unhandled)] with the table flat at [(frame · n) + job], [min_int] for
   a slot without a real event and [[||]] for a run without any, or
   [None] when a stamp is off the grid.  The table is the workspace's
   buffer, refilled per run and read only while the run executes. *)
let tick_assignment net (derived : Derive.t) plan ws ~frames traces =
  let size = Graph.n_jobs derived.Derive.graph * frames in
  let used = ref false in
  let place i stamp =
    if not !used then begin
      used := true;
      ws.stamps <- fit ws.stamps size;
      Array.fill ws.stamps 0 size min_int
    end;
    ws.stamps.(i) <- Timebase.ticks plan.tb stamp
  in
  match assign_windows net derived ~frames traces ~place with
  | unhandled -> Some ((if !used then ws.stamps else [||]), unhandled)
  | exception (Timebase.Inexact | Rat.Overflow) -> None

(* The handle: everything a run needs that does not depend on its
   sporadic stamps. *)
type prepared = {
  net : Network.t;
  derived : Derive.t;
  sched : Static_schedule.t;
  config : config;  (* its [sporadic] plays no part *)
  plan : tick_plan option;  (* [None]: the rational core runs *)
  (* flat predecessor segments, and each job's waiter segment offset *)
  pred_off : int array;
  pred_job : int array;
  succ_off : int array;
  state : Netstate.t;
  mutable replay_nows : Rat.t array;
      (* every replayed frame's distinct invocation instants, [(f · n_u)
         + u] for replayed frame [f]; built by the first replay *)
}

let prepare net (derived : Derive.t) sched config =
  check_static derived sched config;
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let pred_off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    pred_off.(j + 1) <- pred_off.(j) + List.length (Graph.preds g j)
  done;
  let pred_job = Array.make pred_off.(n) 0 in
  let succ_off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let i = ref pred_off.(j) in
    List.iter
      (fun q ->
        pred_job.(!i) <- q;
        incr i;
        succ_off.(q + 1) <- succ_off.(q + 1) + 1)
      (Graph.preds g j)
  done;
  for q = 0 to n - 1 do
    succ_off.(q + 1) <- succ_off.(q + 1) + succ_off.(q)
  done;
  {
    net;
    derived;
    sched;
    config;
    plan = compile net derived config;
    pred_off;
    pred_job;
    succ_off;
    state = Netstate.create net;
    replay_nows = [||];
  }

(* The workspace, fitted to [p] and cleared over the prefixes a run
   reads before writing. *)
let fitted_workspace p ~cap0 =
  let ws = Domain.DLS.get workspace_key in
  let n = Graph.n_jobs p.derived.Derive.graph in
  let n_procs = p.config.platform.Platform.n_procs in
  let m_edges = Array.length p.pred_job in
  let nw = (n_procs + 62) / 63 in
  ws.completions <- fit ws.completions n;
  ws.w_proc <- fit ws.w_proc m_edges;
  ws.w_frame <- fit ws.w_frame m_edges;
  ws.w_len <- fit ws.w_len n;
  ws.hot <- fit ws.hot nw;
  ws.s_job <- fit ws.s_job cap0;
  ws.s_frame <- fit ws.s_frame cap0;
  ws.s_invoked <- fit ws.s_invoked cap0;
  ws.s_start <- fit ws.s_start cap0;
  ws.s_finish <- fit ws.s_finish cap0;
  ws.s_deadline <- fit ws.s_deadline cap0;
  ws.s_skip <- fit_bytes ws.s_skip cap0;
  ws.p_job <- fit ws.p_job n;
  ws.p_invoked <- fit ws.p_invoked n;
  ws.p_start <- fit ws.p_start n;
  ws.p_finish <- fit ws.p_finish n;
  ws.p_deadline <- fit ws.p_deadline n;
  ws.p_skip <- fit_bytes ws.p_skip n;
  if Array.length ws.procs < n_procs then
    ws.procs <-
      Array.init n_procs (fun i ->
          if i < Array.length ws.procs then ws.procs.(i)
          else
            {
              t_order = [||];
              t_frame = 0;
              t_pos = 0;
              t_busy = false;
              t_job = -1;
              t_invoked = 0;
              t_start = 0;
              t_finish = 0;
              t_deadline = 0;
              t_missing = 0;
            });
  Array.fill ws.completions 0 n 0;
  Array.fill ws.w_len 0 n 0;
  Array.fill ws.hot 0 nw 0;
  Iheap.clear ws.events;
  for i = 0 to n_procs - 1 do
    let ps = ws.procs.(i) in
    ps.t_order <- Static_schedule.order_on p.sched i;
    ps.t_frame <- 0;
    ps.t_pos <- 0;
    ps.t_busy <- false;
    ps.t_job <- -1;
    ps.t_invoked <- 0;
    ps.t_start <- 0;
    ps.t_finish <- 0;
    ps.t_deadline <- 0;
    ps.t_missing <- 0
  done;
  (* skip flags are only ever set, never cleared, on the hot path *)
  Bytes.fill ws.s_skip 0
    (min (Bytes.length ws.s_skip) (n * p.config.frames))
    '\000';
  Bytes.fill ws.p_skip 0 n '\000';
  ws

(* The first [len] entries of a record column, copied in chunks of at
   most 256 words, so every chunk is allocated in the minor heap: a
   result dropped soon after its run, the common case when only stats
   or signatures are read, then dies young and never leaves large
   blocks for the major collector.  Forcing the trace joins them. *)
let chunked sub a len =
  List.init ((len + 255) / 256) (fun c ->
      sub a (c * 256) (min 256 (len - (c * 256))))

let exec_ticks p ~unhandled_events plan ~stamp_arr =
  let derived = p.derived and config = p.config in
  let g = derived.Derive.graph in
  let n = Graph.n_jobs g in
  let jobs = Graph.jobs g in
  let frames = config.frames in
  let n_procs = config.platform.Platform.n_procs in
  let state = p.state in
  Netstate.reset state;
  let runner =
    Netstate.runner ~counting:(plan.per_access_t > 0) ~inputs:config.inputs
      state
  in
  (* runs without real events skip the stamp table entirely *)
  let have_stamps = Array.length stamp_arr > 0 in
  (* Steady-state replay: with per-job deterministic durations, no
     sporadic stamps and zero per-access cost, the schedule of any
     steady frame whose window is self-contained is the template
     frame's shifted by a hyperperiod multiple.  The template frame is
     frame 0 itself when the first-frame overhead equals the steady one
     (then every frame is alike), frame 1 otherwise.  Frames up to and
     including the template run through the event loop; if they all
     stay inside their windows, the remaining frames only re-run the
     template's job bodies in call order — their records are implied by
     the captured template and materialized on demand.  (A one-off
     plan only ever serves a run with stamps, so a replay always runs
     on the handle's own plan.) *)
  let tpl_frame = if plan.first_t = plan.steady_t then 0 else 1 in
  let replay_candidate =
    plan.dur_t <> None && plan.per_access_t = 0 && (not have_stamps)
    && frames > tpl_frame + 1
  in
  (* completed records as packed parallel arrays; presized for the head
     frames when replay may make the rest implicit, grown once if not *)
  let cap0 =
    max 1 (if replay_candidate then (tpl_frame + 1) * n else n * frames)
  in
  let ws = fitted_workspace p ~cap0 in
  let procs = ws.procs in
  let completions = ws.completions in
  let pred_off = p.pred_off in
  let pred_job = p.pred_job in
  let succ_off = p.succ_off in
  let w_proc = ws.w_proc in
  let w_frame = ws.w_frame in
  let w_len = ws.w_len in
  let s_n = ref 0 in
  let push_rec job frame invoked start finish deadline skipped =
    let i = !s_n in
    if i = Array.length ws.s_job then begin
      (* replay declined after frame 1: grow to the full horizon *)
      let cap = n * frames in
      let grow a =
        let na = Array.make cap 0 in
        Array.blit a 0 na 0 i;
        na
      in
      ws.s_job <- grow ws.s_job;
      ws.s_frame <- grow ws.s_frame;
      ws.s_invoked <- grow ws.s_invoked;
      ws.s_start <- grow ws.s_start;
      ws.s_finish <- grow ws.s_finish;
      ws.s_deadline <- grow ws.s_deadline;
      let nb = Bytes.make cap '\000' in
      Bytes.blit ws.s_skip 0 nb 0 i;
      ws.s_skip <- nb
    end;
    ws.s_job.(i) <- job;
    ws.s_frame.(i) <- frame;
    ws.s_invoked.(i) <- invoked;
    ws.s_start.(i) <- start;
    ws.s_finish.(i) <- finish;
    ws.s_deadline.(i) <- deadline;
    if skipped then Bytes.set ws.s_skip i '\001';
    s_n := i + 1
  in
  (* template, captured in job start order — the order bodies must
     re-run in for channel histories to stay bit-identical *)
  let p_job = ws.p_job in
  let p_invoked = ws.p_invoked in
  let p_start = ws.p_start in
  let p_finish = ws.p_finish in
  let p_deadline = ws.p_deadline in
  let p_skip = ws.p_skip in
  let tpl_n = ref 0 in
  let capture frame job invoked start finish deadline skipped =
    if replay_candidate && frame = tpl_frame && !tpl_n < n then begin
      let i = !tpl_n in
      p_job.(i) <- job;
      p_invoked.(i) <- invoked;
      p_start.(i) <- start;
      p_finish.(i) <- finish;
      p_deadline.(i) <- deadline;
      if skipped then Bytes.set p_skip i '\001';
      incr tpl_n
    end
  in
  (* observability: [tracing] is captured once, so the hot loop pays a
     single immutable-bool branch per site when tracing is off; job
     labels are pre-interned so per-job spans never hash on dispatch,
     and spans open/close through the preallocated ring without any
     closure allocation *)
  let tracing = Trace.enabled () in
  let span_ids =
    if tracing then
      Array.init n (fun j -> Trace.intern (Job.label (Graph.job g j)))
    else [||]
  in
  let miss_id = Trace.intern "engine.deadline_miss" in
  let depth_id = Trace.intern "engine.queue_depth" in
  let q_pushes = ref 0 in
  (* events carry the tick as key and the processor as payload — two
     immediate ints, so any processor count fits (the previous packed
     encoding capped networks at 64 processors) *)
  let events = ws.events in
  let push_event tick p =
    incr q_pushes;
    Iheap.push events ~key:tick ~pay:p
  in
  let now = ref 0 in
  (* hot set: one bit per processor, swept in ascending index *)
  let nw = (n_procs + 62) / 63 in
  let hot = ws.hot in
  let set_hot p = hot.(p / 63) <- hot.(p / 63) lor (1 lsl (p mod 63)) in
  (* model-time rationals survive only inside job bodies ([ctx.now]);
     arrivals repeat across jobs, so a one-entry cache makes the
     conversion all but free *)
  let last_tick = ref min_int and last_rat = ref Rat.zero in
  let now_rat tick =
    if tick = !last_tick then !last_rat
    else begin
      let r = Timebase.of_ticks plan.tb tick in
      last_tick := tick;
      last_rat := r;
      r
    end
  in
  let wake job =
    if w_len.(job) > 0 then begin
      let c = completions.(job) in
      let base = succ_off.(job) in
      let i = ref 0 in
      while !i < w_len.(job) do
        let idx = base + !i in
        if c > w_frame.(idx) then begin
          let p = w_proc.(idx) in
          let ps = procs.(p) in
          ps.t_missing <- ps.t_missing - 1;
          if ps.t_missing = 0 then set_hot p;
          (* swap-remove; segment order is irrelevant *)
          let last = base + w_len.(job) - 1 in
          w_proc.(idx) <- w_proc.(last);
          w_frame.(idx) <- w_frame.(last);
          w_len.(job) <- w_len.(job) - 1
        end
        else incr i
      done
    end
  in
  let step_order ps =
    ps.t_pos <- ps.t_pos + 1;
    if ps.t_pos >= Array.length ps.t_order then begin
      ps.t_pos <- 0;
      ps.t_frame <- ps.t_frame + 1
    end
  in
  (* one attempt to make progress on processor [p]; true if state
     changed — mirrors [exec_rat]'s [advance] transition for transition *)
  let try_advance p ps =
    if ps.t_busy then
      if ps.t_finish <= !now then begin
        let job = ps.t_job in
        completions.(job) <- completions.(job) + 1;
        (* the record was final at start time *)
        push_rec job ps.t_frame ps.t_invoked ps.t_start ps.t_finish
          ps.t_deadline false;
        if tracing && ps.t_finish > ps.t_deadline then
          Trace.instant_id miss_id;
        ps.t_busy <- false;
        step_order ps;
        wake job;
        true
      end
      else false
    else if ps.t_frame >= frames || Array.length ps.t_order = 0 then false
    else begin
      let job = ps.t_order.(ps.t_pos) in
      let base = ps.t_frame * plan.h_t in
      let invocation = base + plan.arr_t.(job) in
      let oh_end =
        base + if ps.t_frame = 0 then plan.first_t else plan.steady_t
      in
      let earliest = if invocation > oh_end then invocation else oh_end in
      if earliest > !now then begin
        push_event earliest p;
        false
      end
      else if ps.t_missing > 0 then false
      else begin
        (* count unfinished predecessors and register on their waiter
           segments; nothing to poll until the last one completes *)
        let missing = ref 0 in
        for i = pred_off.(job) to pred_off.(job + 1) - 1 do
          let q = pred_job.(i) in
          if completions.(q) <= ps.t_frame then begin
            incr missing;
            let idx = succ_off.(q) + w_len.(q) in
            w_proc.(idx) <- p;
            w_frame.(idx) <- ps.t_frame;
            w_len.(q) <- w_len.(q) + 1
          end
        done;
        if !missing > 0 then begin
          ps.t_missing <- !missing;
          false
        end
        else begin
          let stamp =
            if jobs.(job).Job.is_server then
              if have_stamps then stamp_arr.((ps.t_frame * n) + job)
              else min_int
            else invocation
          in
          if stamp = min_int then begin
            (* 'false' job: skip without executing *)
            let deadline = invocation + plan.dl_rel_t.(job) in
            push_rec job ps.t_frame invocation !now !now deadline true;
            capture ps.t_frame job invocation !now !now deadline true;
            completions.(job) <- completions.(job) + 1;
            step_order ps;
            wake job;
            true
          end
          else begin
            if tracing then Trace.span_begin span_ids.(job);
            let a0 =
              if plan.per_access_t = 0 then 0 else Netstate.access_count state
            in
            Netstate.run_job_fast runner ~proc:jobs.(job).Job.proc
              ~now:(now_rat stamp);
            if tracing then Trace.span_end ();
            let duration =
              (match plan.dur_t with
              | Some d -> Array.unsafe_get d job
              | None ->
                Timebase.ticks plan.tb
                  (Exec_time.sample config.exec (Graph.job g job)))
              +
              if plan.per_access_t = 0 then 0
              else plan.per_access_t * (Netstate.access_count state - a0)
            in
            let finish = !now + duration in
            let deadline = stamp + plan.dl_rel_t.(job) in
            ps.t_busy <- true;
            ps.t_job <- job;
            ps.t_invoked <- stamp;
            ps.t_start <- !now;
            ps.t_finish <- finish;
            ps.t_deadline <- deadline;
            capture ps.t_frame job stamp !now finish deadline false;
            push_event finish p;
            true
          end
        end
      end
    end
  in
  (* sweeps over the hot set in ascending processor index, repeated
     until quiescent — the reference fixpoint restricted to processors
     that can actually transition.  A processor set hot at an index at
     or below the sweep cursor waits for the next sweep, exactly like
     the reference's [for] loop. *)
  let rec rounds () =
    let changed = ref false in
    for wi = 0 to nw - 1 do
      let base = wi * 63 in
      let mask = ref (-1) in
      let continue = ref true in
      while !continue do
        let avail = hot.(wi) land !mask in
        if avail = 0 then continue := false
        else begin
          let b = avail land -avail in
          let p = base + bit_index b in
          (* bits strictly above [b]: lower re-arrivals wait a sweep *)
          mask := -(b lsl 1);
          hot.(wi) <- hot.(wi) land lnot b;
          if try_advance p procs.(p) then begin
            changed := true;
            hot.(wi) <- hot.(wi) lor b
          end
        end
      done
    done;
    if !changed then rounds ()
  in
  (* advance to instant [t], draining every event scheduled on it so
     one sweep sees them all *)
  let process_at t =
    now := t;
    if tracing then Trace.counter_id depth_id (Iheap.length events);
    while (not (Iheap.is_empty events)) && Iheap.top_key events = t do
      set_hot (Iheap.top_pay events);
      Iheap.drop events
    done;
    rounds ()
  in
  let rec run_all () =
    if not (Iheap.is_empty events) then begin
      process_at (Iheap.top_key events);
      run_all ()
    end
  in
  (* process events strictly before [limit] ticks, leaving the rest
     queued *)
  let rec run_until limit =
    if (not (Iheap.is_empty events)) && Iheap.top_key events < limit then begin
      process_at (Iheap.top_key events);
      run_until limit
    end
  in
  (* the head frames each ran wholly inside their own window, and every
     processor stands idle at the post-template boundary: the engine
     state there (and at every later boundary, inductively) matches the
     template boundary shifted by the hyperperiod, so each remaining
     frame is the template's captured sequence shifted in time. *)
  let steady_state_ok () =
    !tpl_n = n
    && !s_n = (tpl_frame + 1) * n
    && (let rec idle p =
          p >= n_procs
          ||
          let ps = procs.(p) in
          (Array.length ps.t_order = 0
          || ((not ps.t_busy)
             && ps.t_frame = tpl_frame + 1
             && ps.t_missing = 0))
          && idle (p + 1)
        in
        idle 0)
    &&
    let ok = ref true in
    let sf = ws.s_finish and sfr = ws.s_frame in
    for i = 0 to !s_n - 1 do
      if sf.(i) >= (sfr.(i) + 1) * plan.h_t then ok := false
    done;
    !ok
  in
  let replayed = ref false in
  let replay () =
    (* compact the template to its executed entries and dedup their
       invocation instants: a frame has at most a handful of distinct
       arrival times, so each frame converts each tick to a rational
       once instead of once per job.  The template is a function of the
       handle's (plan, schedule, frames) alone — durations are fixed and
       no stamps are in play — so the rationals, all of them up front,
       are computed by the first replay and kept on the handle: the
       steady-frame loop below then allocates nothing at all (the
       allocation gate in the perf harness holds it to that). *)
    ws.r_proc <- fit ws.r_proc n;
    ws.r_uidx <- fit ws.r_uidx n;
    ws.u_tick <- fit ws.u_tick n;
    let r_proc = ws.r_proc and r_uidx = ws.r_uidx and u_tick = ws.u_tick in
    let n_u = ref 0 and m = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get p_skip i = '\000' then begin
        let inv = p_invoked.(i) in
        let j = ref 0 in
        while !j < !n_u && u_tick.(!j) <> inv do
          incr j
        done;
        if !j = !n_u then begin
          u_tick.(!n_u) <- inv;
          incr n_u
        end;
        r_proc.(!m) <- jobs.(p_job.(i)).Job.proc;
        r_uidx.(!m) <- !j;
        incr m
      end
    done;
    let n_u = !n_u and k_frames = frames - 1 - tpl_frame in
    if Array.length p.replay_nows <> k_frames * n_u then begin
      let nows = Array.make (k_frames * n_u) Rat.zero in
      for f = 0 to k_frames - 1 do
        let shift = (f + 1) * plan.h_t in
        for j = 0 to n_u - 1 do
          nows.((f * n_u) + j) <- Timebase.of_ticks plan.tb (u_tick.(j) + shift)
        done
      done;
      p.replay_nows <- nows
    end;
    for f = 0 to k_frames - 1 do
      Netstate.run_jobs_fast runner ~procs:r_proc ~now_idx:r_uidx
        ~nows:p.replay_nows ~now_base:(f * n_u) ~count:!m
    done;
    replayed := true
  in
  for p = 0 to n_procs - 1 do
    set_hot p
  done;
  rounds ();
  (if replay_candidate then begin
     run_until ((tpl_frame + 1) * plan.h_t);
     if steady_state_ok () then Trace.with_span "engine.replay" replay
     else Trace.with_span "engine.eventloop" run_all
   end
   else Trace.with_span "engine.eventloop" run_all);
  (* statistics over the packed records; replayed frames contribute the
     template's per-frame counts, whose miss and response figures are
     shift-invariant *)
  let executed = ref 0
  and skipped = ref 0
  and misses = ref 0
  and max_resp = ref 0
  and max_frame = ref (-1) in
  (let sj = ws.s_skip
   and sfin = ws.s_finish
   and sdl = ws.s_deadline
   and sin = ws.s_invoked
   and sfr = ws.s_frame in
   for i = 0 to !s_n - 1 do
     if Bytes.get sj i <> '\000' then incr skipped
     else begin
       incr executed;
       if sfin.(i) > sdl.(i) then incr misses;
       let resp = sfin.(i) - sin.(i) in
       if resp > !max_resp then max_resp := resp;
       if sfr.(i) > !max_frame then max_frame := sfr.(i)
     end
   done);
  if !replayed then begin
    let ex_t = ref 0 and sk_t = ref 0 and mi_t = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get p_skip i <> '\000' then incr sk_t
      else begin
        incr ex_t;
        if p_finish.(i) > p_deadline.(i) then incr mi_t
      end
    done;
    let k = frames - 1 - tpl_frame in
    executed := !executed + (k * !ex_t);
    skipped := !skipped + (k * !sk_t);
    misses := !misses + (k * !mi_t);
    if !ex_t > 0 then max_frame := frames - 1
  end;
  if Metrics.enabled () then begin
    Metrics.add (Metrics.counter "engine.jobs_executed") !executed;
    Metrics.add (Metrics.counter "engine.jobs_skipped") !skipped;
    Metrics.add (Metrics.counter "engine.deadline_misses") !misses;
    Metrics.add (Metrics.counter "engine.frames") frames;
    Metrics.add (Metrics.counter "engine.queue_pushes") !q_pushes;
    if !replayed then Metrics.incr (Metrics.counter "engine.replays")
  end;
  (* the workspace arrays are overwritten by the next run on this
     domain, so the (lazily built) trace captures exact-length copies
     now, in minor-heap-sized chunks (see [chunked]) *)
  let c_n = !s_n in
  let c_job = chunked Array.sub ws.s_job c_n
  and c_frame = chunked Array.sub ws.s_frame c_n
  and c_invoked = chunked Array.sub ws.s_invoked c_n
  and c_start = chunked Array.sub ws.s_start c_n
  and c_finish = chunked Array.sub ws.s_finish c_n
  and c_deadline = chunked Array.sub ws.s_deadline c_n
  and c_skip = chunked Bytes.sub ws.s_skip c_n in
  let t_n = if !replayed then n else 0 in
  let cp_job = chunked Array.sub p_job t_n
  and cp_invoked = chunked Array.sub p_invoked t_n
  and cp_start = chunked Array.sub p_start t_n
  and cp_finish = chunked Array.sub p_finish t_n
  and cp_deadline = chunked Array.sub p_deadline t_n
  and cp_skip = chunked Bytes.sub p_skip t_n in
  let trace =
    lazy
      begin
        let cp_job = Array.concat cp_job
        and cp_invoked = Array.concat cp_invoked
        and cp_start = Array.concat cp_start
        and cp_finish = Array.concat cp_finish
        and cp_deadline = Array.concat cp_deadline
        and cp_skip = Bytes.concat Bytes.empty cp_skip in
        (* completed records sit in completion order; sort a permutation
           by (start, proc, frame, job) — the reference trace order —
           and materialize rationals only here.  With replay, frames
           0-1 all precede frame 2 and each template frame is disjoint
           from the next, so sorted blocks concatenate sorted. *)
        let proc_of = Array.init n (Static_schedule.proc p.sched) in
        let m = c_n in
        let sj = Array.concat c_job
        and sfr = Array.concat c_frame
        and sin = Array.concat c_invoked
        and sst = Array.concat c_start
        and sfin = Array.concat c_finish
        and sdl = Array.concat c_deadline
        and ssk = Bytes.concat Bytes.empty c_skip in
        let cmp a b =
          let c = Int.compare sst.(a) sst.(b) in
          if c <> 0 then c
          else
            let c = Int.compare proc_of.(sj.(a)) proc_of.(sj.(b)) in
            if c <> 0 then c
            else
              let c = Int.compare sfr.(a) sfr.(b) in
              if c <> 0 then c else Int.compare sj.(a) sj.(b)
        in
        let perm = Array.init m Fun.id in
        Array.sort cmp perm;
        let pick a = Array.init m (fun i -> a.(perm.(i))) in
        let job = pick sj
        and frame = pick sfr
        and invoked = pick sin
        and start = pick sst
        and finish = pick sfin
        and deadline = pick sdl in
        let skipped = Bytes.init m (fun i -> Bytes.get ssk perm.(i)) in
        let labels =
          Array.init n (fun j -> Job.label (Graph.job g j))
        in
        let den = Timebase.den plan.tb in
        let acc = ref [] in
        if !replayed then begin
          let tcmp a b =
            let c = Int.compare cp_start.(a) cp_start.(b) in
            if c <> 0 then c
            else
              let c =
                Int.compare proc_of.(cp_job.(a)) proc_of.(cp_job.(b))
              in
              if c <> 0 then c else Int.compare cp_job.(a) cp_job.(b)
          in
          let tperm = Array.init n Fun.id in
          Array.sort tcmp tperm;
          let tpick a = Array.init n (fun i -> a.(tperm.(i))) in
          let tjob = tpick cp_job
          and tinv = tpick cp_invoked
          and tstart = tpick cp_start
          and tfin = tpick cp_finish
          and tdl = tpick cp_deadline in
          let tskip = Bytes.init n (fun i -> Bytes.get cp_skip tperm.(i)) in
          let tframe = Array.make n tpl_frame in
          for f = frames - 1 downto tpl_frame + 1 do
            acc :=
              Exec_trace.of_ticks ~den ~labels ~procs:proc_of ~count:n
                ~job:tjob ~frame:tframe ~invoked:tinv ~start:tstart
                ~finish:tfin ~deadline:tdl ~skipped:tskip
                ~tick_shift:((f - tpl_frame) * plan.h_t)
                ~frame_shift:(f - tpl_frame) !acc
          done
        end;
        Exec_trace.of_ticks ~den ~labels ~procs:proc_of ~count:m ~job
          ~frame ~invoked ~start ~finish ~deadline ~skipped ~tick_shift:0
          ~frame_shift:0 !acc
      end
  in
  let rat = Timebase.of_ticks plan.tb in
  let h = derived.Derive.hyperperiod in
  let frame_base frame = Rat.mul h (Rat.of_int frame) in
  let overhead_end frame =
    Rat.add (frame_base frame) (Platform.frame_overhead config.platform ~frame)
  in
  (* O(#channels) snapshots decouple the result from the handle's
     state: the next run resets and reuses [state], and these keep reading
     the arrays this run wrote *)
  let chan_snap = Netstate.channel_snapshot state in
  let out_snap = Netstate.output_snapshot state in
  let materialize snaps =
    List.map (fun (c, s) -> (c, Fppn.Channel.snapshot_history s)) snaps
  in
  {
    trace;
    channel_history = lazy (materialize chan_snap);
    output_history = lazy (materialize out_snap);
    stats =
      {
        Exec_trace.executed = !executed;
        skipped = !skipped;
        misses = !misses;
        max_response = rat !max_resp;
        frames = !max_frame + 1;
      };
    unhandled_events;
    overhead_segments =
      lazy (overhead_segments_of config ~frame_base ~overhead_end);
  }


let run_rat net derived sched config =
  let assigned, unhandled_events =
    rat_assignment net derived ~frames:config.frames config.sporadic
  in
  Trace.with_span "engine.exec.rat" (fun () ->
      exec_rat net derived sched config ~assigned ~unhandled_events)

(* The run's stamps on the handle's grid.  A stamp off that grid makes
   this run alone compile a one-off plan that includes its stamps
   (counted by [engine.stamp_recompiles]); the handle keeps its own. *)
let exec_unspanned p ~sporadic =
  check_sporadic p.net sporadic;
  let net = p.net and derived = p.derived and frames = p.config.frames in
  let rat () = run_rat net derived p.sched { p.config with sporadic } in
  let ticks plan (stamp_arr, unhandled_events) =
    Trace.with_span "engine.exec.ticks" (fun () ->
        exec_ticks p ~unhandled_events plan ~stamp_arr)
  in
  match p.plan with
  | None -> rat ()
  | Some plan -> (
    let ws = Domain.DLS.get workspace_key in
    match tick_assignment net derived plan ws ~frames sporadic with
    | Some assignment -> ticks plan assignment
    | None -> (
      if Metrics.enabled () then
        Metrics.incr (Metrics.counter "engine.stamp_recompiles");
      let stamps = ref [] in
      ignore
        (assign_windows net derived ~frames sporadic ~place:(fun _ s ->
             stamps := s :: !stamps));
      match compile ~stamps:!stamps net derived p.config with
      | None -> rat ()
      | Some plan -> (
        match tick_assignment net derived plan ws ~frames sporadic with
        | Some assignment -> ticks plan assignment
        | None -> rat ())))

let exec p ~sporadic =
  Trace.with_span "engine.run" (fun () -> exec_unspanned p ~sporadic)

module Prepared = struct
  type t = prepared

  let config p = p.config
  let grid_den p = Option.map (fun plan -> Timebase.den plan.tb) p.plan
end

(* One-entry, domain-local memo of the handle for [run].  Benchmarks
   and periodic re-simulation call [run] repeatedly with identical
   arguments; preparation is pure for every compilable model
   ([Profile] callbacks are required to be pure), so the handle can be
   reused whenever net, derivation and schedule are physically
   unchanged and the configs agree: scalars by value, closures by
   identity (callers that rebuild [default_config] per run share the
   library-level defaults, so the common case still hits).  The
   sporadic traces play no part.  The memo is per-domain, so
   concurrent runs never share a handle. *)
let same_config a b =
  a == b
  || (a.frames = b.frames && a.exec == b.exec && a.inputs == b.inputs
     && (a.platform == b.platform
        || (a.platform.Platform.n_procs = b.platform.Platform.n_procs
           && a.platform.Platform.overhead == b.platform.Platform.overhead)))

let handle_key : prepared option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let run net derived sched config =
  Trace.with_span "engine.run" (fun () ->
      let memo = Domain.DLS.get handle_key in
      let p =
        match !memo with
        | Some p
          when p.net == net && p.derived == derived && p.sched == sched
               && same_config p.config config ->
          p
        | _ ->
          let p = prepare net derived sched config in
          memo := Some p;
          p
      in
      exec_unspanned p ~sporadic:config.sporadic)

let run_reference net derived sched config =
  Trace.with_span "engine.run_reference" (fun () ->
      check_static derived sched config;
      check_sporadic net config.sporadic;
      run_rat net derived sched config)

let signature r =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Lazy.force r.channel_history @ Lazy.force r.output_history)
