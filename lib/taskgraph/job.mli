(** Jobs of a task graph (Def. 3.1).

    A job is the 6-tuple [(p_i, k_i, A_i, D_i, C_i)] plus its node index
    in the graph.  Jobs derived from a sporadic process are {e server}
    jobs (Sec. III-A): at run time they may carry a real sporadic
    invocation or be marked ['false'] and skipped. *)

type t = {
  id : int;  (** node index within the task graph *)
  proc : int;  (** process index in the source network *)
  proc_name : string;
  k : int;  (** invocation count, 1-based: this job is [p\[k\]] *)
  arrival : Rt_util.Rat.t;  (** [A_i] *)
  deadline : Rt_util.Rat.t;  (** absolute required time [D_i], truncated to the hyperperiod *)
  wcet : Rt_util.Rat.t;  (** [C_i] *)
  is_server : bool;  (** derived from a sporadic process via its server *)
}

val pp : Format.formatter -> t -> unit
(** [name\[k\] (A,D,C)] as in Fig. 3. *)

val label : t -> string
(** [name\[k\]]. *)
