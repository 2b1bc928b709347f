(** Discrete-event multiprocessor runtime implementing the online
    static-order scheduling policy (Sec. IV).

    The static schedule's frame is repeated with period [H].  On each
    processor, independently, the runtime picks its jobs in static-order
    and executes a {e round} per job:

    - {e Synchronize invocation}: wait for the event invocation of the
      current job.  Periodic jobs are invoked at [frame·H + A_i].  A
      sporadic (server) job slot is matched against the real sporadic
      events that arrived in its window; if fewer real events arrived
      than the slot's position, the job is marked ['false'] and skipped.
      The window is right-closed, [(b−T', b]], when the sporadic process
      has functional priority over its user ([p → u(p)]), and
      left-closed otherwise (Fig. 2).
    - {e Synchronize precedence}: wait until all task-graph predecessors
      (running on any processor) have completed in this frame.
    - {e Execute} the job, unless marked ['false'].

    Job bodies run against the shared network state, so the simulation
    produces real output data; comparing its channel histories with the
    zero-delay interpreter's is the determinism check of Prop. 2.1 /
    Prop. 4.1.

    The frame-management overhead measured in Sec. V-A is modelled by
    delaying every job of frame [f] by [Platform.frame_overhead] and by
    inflating execution times per channel access. *)

type config = {
  platform : Platform.t;
  exec : Exec_time.t;
  frames : int;  (** number of hyperperiod frames to simulate *)
  sporadic : (string * Rt_util.Rat.t list) list;
      (** absolute real event stamps per sporadic process, over the
          whole simulation [\[0, frames·H)] *)
  inputs : Fppn.Netstate.input_feed;
}

val default_config : ?frames:int -> n_procs:int -> unit -> config

(** Traces, histories and overhead segments are lazy: the compiled tick
    core keeps its records as packed integer arrays and only
    materializes the rational view on demand — callers that consume
    just [stats] (benchmarks, gates) never pay for it.  Use the
    accessors below; forcing is not synchronized across domains. *)
type result = {
  trace : Exec_trace.t Lazy.t;
  channel_history : (string * Fppn.Value.t list) list Lazy.t;
      (** [Value] is [Fppn.Value] *)
  output_history : (string * Fppn.Value.t list) list Lazy.t;
  stats : Exec_trace.stats;
  unhandled_events : (string * Rt_util.Rat.t) list;
      (** sporadic events falling in the final, unsimulated window *)
  overhead_segments : (int * Rt_util.Rat.t * Rt_util.Rat.t) list Lazy.t;
      (** per-frame runtime-overhead activity, for Fig. 6-style charts *)
}

val trace : result -> Exec_trace.t
(** Forces and returns the trace, sorted by
    (start, processor, frame, job). *)

val channel_history : result -> (string * Fppn.Value.t list) list
val output_history : result -> (string * Fppn.Value.t list) list
val overhead_segments : result -> (int * Rt_util.Rat.t * Rt_util.Rat.t) list

(** {1 Prepared handles: compile once, execute per run}

    The Sec. IV policy fixes the static-order schedule offline and
    leaves only invocation and precedence synchronization to run time.
    The engine mirrors that split: {!prepare} does everything that does
    not depend on the sporadic stamps, {!exec} does the rest. *)

module Prepared : sig
  type t
  (** A network compiled for one (derivation, schedule, configuration).

      {e Static}, built by {!prepare} and kept for the handle's life:
      the tick plan over the static times (hyperperiod, overheads,
      durations, WCETs, arrivals, deadlines), the task graph's
      dependence segments, and the network's execution state
      ({!Fppn.Netstate.t}, reset at the start of every run).  The first
      run that replays steady frames adds their invocation instants as
      rationals, which every later replay reuses.

      {e Per run}, owned by {!exec}: the sporadic stamps and their
      window assignment, the job context ({!Fppn.Netstate.runner}), and
      every working array (completions, waiter segments, record
      columns, replay template and program, event queue, hot set,
      per-processor static orders).  The arrays depend only on sizes and
      live in one grow-only workspace per domain, shared by all handles;
      nothing is keyed on it, so it never goes stale.

      Ownership: the caller that prepared a handle owns it.  Results of
      {!exec} stay valid after later runs (they keep copies and channel
      snapshots, never the handle's state), but a handle runs {e one
      {!exec} at a time}: two domains must not execute the same handle
      concurrently.  Different handles may run on different domains at
      once. *)

  val config : t -> config
  (** The configuration the handle was prepared for; its [sporadic]
      field plays no part, {!exec} takes the stamps. *)

  val grid_den : t -> int option
  (** Ticks per model time unit of the handle's own plan, or [None]
      when the network runs on the rational core (no common grid). *)
end

val prepare :
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config ->
  Prepared.t
(** Compiles the network's static part (one [engine.compile] span and
    [engine.compiles] count).  [config.sporadic] is ignored.
    @raise Invalid_argument if the schedule does not cover the derived
    graph, if [frames <= 0], or if the schedule and platform processor
    counts differ. *)

val exec : Prepared.t -> sporadic:(string * Rt_util.Rat.t list) list -> result
(** One run of the prepared handle with the given sporadic traces, on
    the compiled integer-tick core when the handle has a plan and on the
    exact rational interpreter otherwise; both produce bit-identical
    results.  The stamps are mapped onto the handle's grid; a stamp off
    that grid makes this run alone compile a one-off plan including its
    stamps, counted by [engine.stamp_recompiles], while the handle keeps
    its own plan.  Traced as one [engine.run] span.
    @raise Invalid_argument if a sporadic trace names an unknown or
    periodic process or violates its generator's [(m,T)] constraint. *)

val run :
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config -> result
(** [exec] over a handle held in a single-slot per-domain memo: the
    handle is reused while net, derivation and schedule are physically
    the same and the configuration agrees (scalars by value, closures
    by identity; the sporadic traces play no part), and prepared afresh
    otherwise.  So repeated runs over one network — benchmarks,
    re-simulation — compile once, while callers alternating between
    networks should own their handles instead.
    @raise Invalid_argument as {!prepare} and {!exec}. *)

val run_reference :
  Fppn.Network.t -> Taskgraph.Derive.t -> Sched.Static_schedule.t -> config -> result
(** {!run} forced onto the exact rational interpreter core — the
    semantic ground truth the compiled tick core is differentially
    tested against.  Raises as {!run}. *)

val sporadic_assignment :
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  frames:int ->
  (string * Rt_util.Rat.t list) list ->
  ((int * int, Rt_util.Rat.t) Hashtbl.t * (string * Rt_util.Rat.t) list)
(** The window mapping of Sec. IV / Fig. 2, exposed for the
    timed-automata backend and for tests: maps [(server job id, frame)]
    to the real event stamp that slot handles; the second component
    lists the events left for the window after the simulated horizon,
    or beyond the burst of their window, per server in stamp order.

    Cost O(servers + stamps).  A server's windows of length [T'] tile
    the time line, so each stamp [s] lies in exactly one window, number
    [⌈s/T'⌉] (right-closed) or [⌊s/T'⌋+1] (left-closed) counted from 0
    across frames; a valid trace ascends, so the stamps of one window
    are consecutive and a running counter gives each its position in
    the window.  Window [w] is slot [w mod S] of frame [w / S], [S]
    slots per frame.  The [(m,T)] validity check is one pass too.
    @raise Invalid_argument as {!run} on an invalid trace. *)

val handled_traces :
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  frames:int ->
  (string * Rt_util.Rat.t list) list ->
  (string * Rt_util.Rat.t list) list
(** [traces] without the events {!sporadic_assignment} leaves unhandled
    (a window after the simulated horizon, or past its burst) — the
    event set a run actually handles, which a zero-delay reference over
    the same horizon must be given.
    @raise Invalid_argument as {!sporadic_assignment}. *)

val signature : result -> (string * Fppn.Value.t list) list
(** Channel write sequences (internal + external outputs), sorted by
    name — directly comparable with [Fppn.Semantics.signature]. *)
