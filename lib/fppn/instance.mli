(** Runtime instance of a process: its persistent local-variable store
    and invocation counter.

    Shared by the zero-delay interpreter, the multiprocessor runtime and
    the uniprocessor baseline, so that all three execute process
    behaviors through exactly the same code path. *)

type t

val create : Process.t -> t
val process : t -> Process.t

val job_count : t -> int
(** Jobs completed so far; the next job has index [job_count + 1]. *)

val get : t -> string -> Value.t
(** Current value of a local variable.  @raise Not_found *)

val run_job :
  t ->
  now:Rt_util.Rat.t ->
  read:(string -> Value.t) ->
  write:(string -> Value.t -> unit) ->
  unit
(** Executes one job run of the behavior.  [read]/[write] resolve
    channel names (the caller adds trace recording and internal/external
    routing).  Increments the job counter. *)

val lookup : t -> string -> Value.t
(** Current value of a local variable, as a job body sees it.
    @raise Invalid_argument if the process declares no such variable. *)

val assign : t -> string -> Value.t -> unit
(** Sets a local variable, as a job body does.
    @raise Invalid_argument if the process declares no such variable. *)

val run_with :
  t -> ctx:Process.job_ctx -> env:Automaton.env -> now:Rt_util.Rat.t -> unit
(** Executes one job run through a caller-owned context without
    allocating: a native body gets [ctx] with its index and time stamp
    rebound, an automaton runs in [env].  The caller must route their
    [get]/[set] ([lookup]/[assign]) to this instance ({!lookup},
    {!assign}) and their channel operations to its router, so one
    context can serve every instance of a network.  Equivalent to
    {!run_job}; increments the job counter. *)

val skip_job : t -> unit
(** Advances the counter without running the behavior — used when the
    semantics consumes an invocation whose job was marked ['false']
    (sporadic server slot with no real event, Sec. IV). *)

val reset : t -> unit
(** Restores initial variable values and a zero counter. *)
