(** Low-overhead span and instant-event recorder.

    Each domain writes into its own fixed-capacity ring buffer of
    packed events (no locks, no allocation on the record path beyond
    first use), stamped with the monotonic clock.  When tracing is
    disabled every recording entry point is a single flag load and a
    branch — the PR 3 engine hot path stays untouched.

    Ring overflow drops the {e oldest} events (the latest
    [capacity] per domain are kept) but the hotspot aggregates in
    {!hotspots} are exact regardless of overflow: they are accumulated
    online as spans close, not reconstructed from the rings. *)

type id
(** A pre-interned event name.  Ids are {e domain-local}: an id is
    only meaningful in the domain whose {!intern} produced it.  Code
    that runs on pool workers must intern inside the task (interning
    an already-known name is a single hash lookup). *)

val set_enabled : bool -> unit
(** Turn recording on or off.  Off is the default; while off, every
    recording function is a no-op costing one flag check. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded events, span stacks and hotspot aggregates in
    every domain's buffer.  Does not change the enabled flag. *)

val capacity : int
(** Ring capacity per domain (events). *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds (same timebase as event
    timestamps). *)

val intern : string -> id
(** Intern [name] in the calling domain's buffer. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span named [name]:
    recorded as one complete event (start timestamp + duration) when
    [f] returns {e or raises}.  Spans nest; the recorder maintains a
    per-domain stack so {!hotspots} can attribute self time. *)

val span_begin : id -> unit
(** Opens a span on the calling domain's stack without wrapping a
    closure — the zero-allocation form of {!with_span} for hot
    loops whose body would otherwise capture loop state.  Must be
    balanced by {!span_end}; an exception escaping between the two
    loses the open span. *)

val span_end : unit -> unit
(** Closes the innermost {!span_begin} span and records it. *)

val instant : string -> unit
(** Record a point event (e.g. a deadline miss, a bound update). *)

val instant_id : id -> unit

val counter : string -> int -> unit
(** Record a sampled counter value (e.g. queue depth); exported as a
    Chrome counter-track event. *)

val counter_id : id -> int -> unit

(** {1 Inspection} — call these at quiescence (no concurrent
    recorders), e.g. after a pool has drained or been shut down. *)

type kind =
  | Span of { dur_ns : int }
  | Instant
  | Counter of int

type event = { lane : int; name : string; ts_ns : int; kind : kind }
(** [lane] is the {!Rt_util.Pool.self_id} of the recording domain. *)

val events : unit -> event list
(** All retained events from every domain, sorted by timestamp. *)

val dropped : unit -> int
(** Total events lost to ring overflow since the last {!reset}. *)

type hotspot = {
  hname : string;
  calls : int;
  total_ns : int;  (** wall time inside the span, children included *)
  self_ns : int;  (** wall time minus time spent in child spans *)
}

val hotspots : unit -> hotspot list
(** Per-name aggregates merged across domains, sorted by self time,
    largest first.  Exact even when the rings overflowed. *)
