(** Adversarial stimulus generation for the determinism oracle.

    Prop. 2.1 claims channel histories depend only on input data and
    event time stamps.  The two classic ways to break a buggy
    implementation of that claim are (a) reordering {e simultaneous}
    invocations — the semantics must re-sort them by functional
    priority, so any order-sensitivity is a race — and (b) placing
    sporadic events {e exactly on} sporadic-server window boundaries,
    where the right-closed [(a,b]] vs left-closed [[a,b)] rule of
    Fig. 2 decides which frame handles them.  This module produces both
    stimuli deterministically from a seed. *)

val permute_simultaneous :
  Rt_util.Prng.t -> Fppn.Semantics.event_trace -> Fppn.Semantics.event_trace
(** Randomly shuffles every group of equal-time invocations, leaving
    the groups themselves in ascending time order.  A correct zero-delay
    interpreter must produce identical channel histories for any such
    permutation. *)

val greedy_valid : Fppn.Event.t -> Rt_util.Rat.t list -> Rt_util.Rat.t list
(** [greedy_valid ev stamps] keeps, in order, each stamp that leaves the
    kept trace valid for [ev] ({!Fppn.Event.is_valid_sporadic_trace}),
    and drops the rest.  Linear: each candidate is checked against the
    last kept stamp and the [m_e]-th most recent one. *)

val boundary_traces :
  Fppn.Network.t ->
  Taskgraph.Derive.t ->
  frames:int ->
  seed:int ->
  (string * Rt_util.Rat.t list) list
(** For every sporadic server, a valid event trace whose stamps sit on
    (or within 1/1000 ms of) the server's window boundaries
    [frame·H + (slot−1)·T'] over [\[0, frames·H)] — the stamps that
    discriminate the Fig. 2 boundary rule.  Stamps violating the
    sporadic [(m,T)] constraint are greedily dropped, so the result is
    always a valid trace. *)

val merge_traces :
  Fppn.Network.t ->
  (string * Rt_util.Rat.t list) list ->
  (string * Rt_util.Rat.t list) list ->
  (string * Rt_util.Rat.t list) list
(** Per-process union of two trace sets, greedily dropping stamps that
    would violate the process' sporadic constraint.  Burst duplicates
    are preserved. *)
