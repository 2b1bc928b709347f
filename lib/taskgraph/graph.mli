(** The task graph [TG(J, E)] (Def. 3.1): a DAG whose nodes are jobs
    and whose edges constrain execution order. *)

type t

val make : Job.t array -> Rt_util.Digraph.t -> t
(** [make jobs dag] — [jobs.(i).id] must equal [i] and the digraph must
    be an acyclic graph over the same node count.
    @raise Invalid_argument otherwise. *)

val n_jobs : t -> int
val n_edges : t -> int
val job : t -> int -> Job.t
val jobs : t -> Job.t array
val dag : t -> Rt_util.Digraph.t
(** The underlying precedence DAG (shared, do not mutate). *)

val preds : t -> int -> int list
val succs : t -> int -> int list
val edges : t -> (int * int) list
val has_edge : t -> int -> int -> bool

val topo_order : t -> int list
(** Deterministic topological order, computed once. *)

val sources : t -> int list

val jobs_of_process : t -> int -> int list
(** Job ids of one source process, ascending [k]. *)

val find_job : t -> proc:int -> k:int -> int
(** The job [proc\[k\]], in O(1) (each process keeps its job ids in an
    array indexed by [k]).
    @raise Not_found *)

val total_wcet : t -> Rt_util.Rat.t

val induced : keep:(Job.t -> bool) -> t -> t * int array
(** [induced ~keep g] is the subgraph on the jobs satisfying [keep],
    with ids renumbered positionally; the returned array maps new ids
    back to the original ones.  Precedence is preserved through dropped
    jobs: two kept jobs are connected iff a path joined them in [g]
    (computed via the transitive closure, then reduced), so scheduling
    the restriction still respects the original ordering constraints.
    @raise Invalid_argument if no job is kept. *)

val disjoint_union : ?prefixes:string array -> t list -> t * (int * int) array
(** [disjoint_union gs] merges several task graphs into one: job ids are
    renumbered positionally (graphs in list order), process indices are
    offset per graph so [jobs_of_process] stays disjoint across members,
    and no cross-graph edges are added.  [prefixes.(i)], if given, is
    prepended to every process name of graph [i] (useful to keep Gantt
    and trace labels distinguishable when co-scheduling applications).
    The returned array maps each merged job id to
    [(graph index, original job id)].
    @raise Invalid_argument on an empty list, an empty member graph, or
    a prefix array of the wrong length. *)

val map_wcet : (Job.t -> Rt_util.Rat.t) -> t -> t
(** Same structure with per-job WCETs replaced (e.g. switching a
    mixed-criticality graph from optimistic to conservative budgets). *)

val to_dot : t -> string
(** Fig. 3-style rendering: nodes labelled [p\[k\] (A,D,C)]. *)

val to_json : t -> string
(** Machine-readable dump for external tools: a JSON object with a
    [jobs] array (id, process, k, arrival/deadline/wcet as exact strings
    and [*_ms] floats, server flag) and an [edges] array of id pairs. *)
