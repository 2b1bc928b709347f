(* A workload, once set up: a closed-loop operation, the oracle run
   after the timed loop, and the probes a traced run adds. *)

type instance = {
  prepare : Acc.t -> unit;
      (** builds the oracle's references, before and outside any timing *)
  op : Acc.t -> unit;
      (** one closed-loop operation: its latency goes to [Acc.ops] *)
  verify : Acc.t -> unit;  (** outside any timing *)
  probes : Acc.t -> unit;  (** per-layer probes of a traced run *)
  job_spans : unit -> (string, unit) Hashtbl.t;
      (** names of the per-job spans the engine emits for this workload *)
}

type t = {
  name : string;
  why : string;
  setups : int;
      (** set-ups per run, [setup_s] being their median: a fixed count,
          so the heap the loop starts from does not depend on how fast
          the host ran them *)
  setup : seed:int -> Acc.t -> instance;
      (** [setup ~seed] generates the inputs from [seed]; applied to an
          accumulator it performs one timed set-up, recording its layer
          timers there *)
}

let signature_equal a b =
  List.equal
    (fun (n1, h1) (n2, h2) ->
      String.equal n1 n2 && List.equal Fppn.Value.equal h1 h2)
    a b

(* The zero-delay reference (Sec. II-B) for one engine run: the
   sporadic events the engine reports as falling in the final,
   unsimulated window are not part of the run, so they are left out of
   the reference too. *)
let reference_signature ?(inputs = Fppn.Netstate.no_inputs) net derived
    ~frames sporadic =
  let _, unhandled =
    Runtime.Engine.sporadic_assignment net derived ~frames sporadic
  in
  let handled =
    List.map
      (fun (name, stamps) ->
        ( name,
          List.filter
            (fun s ->
              not
                (List.exists
                   (fun (n, u) -> String.equal n name && Rt_util.Rat.equal u s)
                   unhandled))
            stamps ))
      sporadic
  in
  let horizon =
    Rt_util.Rat.mul derived.Taskgraph.Derive.hyperperiod
      (Rt_util.Rat.of_int frames)
  in
  Fppn.Semantics.signature
    (Fppn.Semantics.run ~inputs net
       (Fppn.Semantics.invocations ~sporadic:handled ~horizon net))

let job_labels derived acc =
  let g = derived.Taskgraph.Derive.graph in
  for j = 0 to Taskgraph.Graph.n_jobs g - 1 do
    Hashtbl.replace acc (Taskgraph.Job.label (Taskgraph.Graph.job g j)) ()
  done
