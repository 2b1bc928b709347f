(** Persistence of static schedules.

    The paper's compile-time algorithm "prepares a configuration for
    the online policy"; this module is that handoff: a schedule computed
    once can be saved, inspected and later fed to the runtime without
    re-running the scheduler.

    Format (line-oriented text, stable across versions of this library):
    {v
    fppn-schedule v1
    procs 2
    jobs 10
    0 0 0        # <job-id> <processor> <start-time as rational>
    1 1 25
    ...
    v}
    Lines starting with [#] and blank lines are ignored; an inline [#]
    starts a comment. *)

val to_string : ?graph:Taskgraph.Graph.t -> Static_schedule.t -> string
(** [graph], if given, adds job labels as comments. *)

val of_string : string -> (Static_schedule.t, string) result
(** Parses {!to_string} output; the error describes the offending line. *)

val save : ?graph:Taskgraph.Graph.t -> string -> Static_schedule.t -> unit
(** [save path sched]. *)

val load : string -> (Static_schedule.t, string) result

val matches : Taskgraph.Graph.t -> Static_schedule.t -> bool
(** Sanity check before running a loaded schedule: covers exactly the
    graph's jobs. *)

(** {1 Multi-application co-schedules}

    A co-schedule ({!Cosched}) carries one schedule per application plus
    shared-platform metadata, which the line format above cannot express;
    it persists as a JSON document instead (schema [fppn-cosched/1]):
    {v
    {"schema":"fppn-cosched/1","variant":"fair","procs":4,
     "apps":[{"name":"fig1","priority":0,"slots":[],"jobs":10,
              "entries":[{"id":0,"proc":0,"start":"0","start_ms":0},...]},
             ...]}
    v}
    Start times are exact rational strings; [start_ms] floats are
    informational only and ignored on load. *)

type section = {
  sec_name : string;
  sec_priority : int;
  sec_slots : int list;  (** reserved processors; empty for fair *)
  sec_schedule : Static_schedule.t;
}

val sections_to_json : variant:string -> n_procs:int -> section list -> string

val sections_of_json : string -> (string * int * section list, string) result
(** Parses {!sections_to_json} output back into
    [(variant, n_procs, sections)]. *)

val save_sections : variant:string -> n_procs:int -> string -> section list -> unit
(** [save_sections ~variant ~n_procs path sections]. *)
