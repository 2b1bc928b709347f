module Rat = Rt_util.Rat
module Digraph = Rt_util.Digraph

type t = {
  jobs : Job.t array;
  dag : Digraph.t;
  topo : int list;
  by_proc : (int, int list) Hashtbl.t; (* proc -> job ids ascending k *)
  by_k : int array array; (* proc -> job id at index k, or -1 *)
}

let make jobs dag =
  if Array.length jobs <> Digraph.n_nodes dag then
    invalid_arg "Taskgraph.Graph.make: job count and node count differ";
  Array.iteri
    (fun i j ->
      if j.Job.id <> i then
        invalid_arg "Taskgraph.Graph.make: job ids must be positional")
    jobs;
  let topo =
    match Digraph.topo_sort dag with
    | Some o -> o
    | None -> invalid_arg "Taskgraph.Graph.make: precedence graph is cyclic"
  in
  let by_proc = Hashtbl.create 16 in
  Array.iter
    (fun j ->
      let prev = try Hashtbl.find by_proc j.Job.proc with Not_found -> [] in
      Hashtbl.replace by_proc j.Job.proc (j.Job.id :: prev))
    jobs;
  let n_procs = Array.fold_left (fun m j -> max m (j.Job.proc + 1)) 0 jobs in
  let by_k = Array.make n_procs [||] in
  Hashtbl.iter
    (fun p ids ->
      let sorted =
        List.sort (fun a b -> Int.compare jobs.(a).Job.k jobs.(b).Job.k) ids
      in
      Hashtbl.replace by_proc p sorted;
      let max_k = List.fold_left (fun m i -> max m jobs.(i).Job.k) 0 sorted in
      let ids_by_k = Array.make (max_k + 1) (-1) in
      List.iter
        (fun i ->
          let k = jobs.(i).Job.k in
          if k >= 0 && ids_by_k.(k) < 0 then ids_by_k.(k) <- i)
        sorted;
      if p >= 0 then by_k.(p) <- ids_by_k)
    (Hashtbl.copy by_proc);
  { jobs; dag; topo; by_proc; by_k }

let n_jobs t = Array.length t.jobs
let n_edges t = Digraph.n_edges t.dag
let job t i = t.jobs.(i)
let jobs t = t.jobs
let dag t = t.dag
let preds t i = Digraph.preds t.dag i
let succs t i = Digraph.succs t.dag i
let edges t = Digraph.edges t.dag
let has_edge t i j = Digraph.has_edge t.dag i j
let topo_order t = t.topo

let sources t =
  List.filter (fun i -> Digraph.in_degree t.dag i = 0) (List.init (n_jobs t) Fun.id)

let jobs_of_process t p = try Hashtbl.find t.by_proc p with Not_found -> []

let find_job t ~proc ~k =
  if proc < 0 || proc >= Array.length t.by_k then raise Not_found;
  let ids = t.by_k.(proc) in
  if k >= 0 && k < Array.length ids && ids.(k) >= 0 then ids.(k)
  else raise Not_found

let total_wcet t =
  Array.fold_left (fun acc j -> Rat.add acc j.Job.wcet) Rat.zero t.jobs

let induced ~keep t =
  let kept =
    List.filter (fun i -> keep t.jobs.(i)) (List.init (n_jobs t) Fun.id)
  in
  if kept = [] then invalid_arg "Taskgraph.Graph.induced: no jobs kept";
  let old_of_new = Array.of_list kept in
  let new_of_old = Array.make (n_jobs t) (-1) in
  Array.iteri (fun n o -> new_of_old.(o) <- n) old_of_new;
  let jobs' =
    Array.mapi (fun n o -> { t.jobs.(o) with Job.id = n }) old_of_new
  in
  (* connect kept jobs that were joined by any path, then minimize *)
  let closure = Digraph.transitive_closure t.dag in
  let dag' = Digraph.create (Array.length old_of_new) in
  Array.iteri
    (fun na oa ->
      Rt_util.Bitset.iter
        (fun ob -> if new_of_old.(ob) >= 0 then Digraph.add_edge dag' na new_of_old.(ob))
        closure.(oa))
    old_of_new;
  (make jobs' (Digraph.transitive_reduction dag'), old_of_new)

let disjoint_union ?prefixes gs =
  if gs = [] then invalid_arg "Taskgraph.Graph.disjoint_union: no graphs";
  let gs = Array.of_list gs in
  (match prefixes with
  | Some ps when Array.length ps <> Array.length gs ->
    invalid_arg "Taskgraph.Graph.disjoint_union: one prefix per graph required"
  | _ -> ());
  Array.iter
    (fun g ->
      if n_jobs g = 0 then
        invalid_arg "Taskgraph.Graph.disjoint_union: member graph has no jobs")
    gs;
  let total = Array.fold_left (fun acc g -> acc + n_jobs g) 0 gs in
  let jobs' = Array.make total gs.(0).jobs.(0) in
  let owner = Array.make total (0, 0) in
  let dag' = Digraph.create total in
  let off = ref 0 and proc_off = ref 0 in
  Array.iteri
    (fun gi g ->
      let max_proc =
        Array.fold_left (fun m j -> Stdlib.max m j.Job.proc) (-1) g.jobs
      in
      Array.iteri
        (fun i j ->
          let proc_name =
            match prefixes with
            | Some ps -> ps.(gi) ^ j.Job.proc_name
            | None -> j.Job.proc_name
          in
          jobs'.(!off + i) <-
            { j with Job.id = !off + i; proc = j.Job.proc + !proc_off; proc_name };
          owner.(!off + i) <- (gi, i))
        g.jobs;
      List.iter (fun (u, v) -> Digraph.add_edge dag' (!off + u) (!off + v)) (edges g);
      off := !off + n_jobs g;
      proc_off := !proc_off + max_proc + 1)
    gs;
  (make jobs' dag', owner)

let map_wcet f t =
  let jobs' = Array.map (fun j -> { j with Job.wcet = f j }) t.jobs in
  make jobs' (Digraph.copy t.dag)

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"jobs\": [\n";
  Array.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\":%d,\"process\":\"%s\",\"k\":%d,\"arrival\":\"%s\",\
            \"deadline\":\"%s\",\"wcet\":\"%s\",\"arrival_ms\":%g,\
            \"deadline_ms\":%g,\"wcet_ms\":%g,\"server\":%b}%s\n"
           j.Job.id j.Job.proc_name j.Job.k
           (Rat.to_string j.Job.arrival)
           (Rat.to_string j.Job.deadline)
           (Rat.to_string j.Job.wcet)
           (Rat.to_float j.Job.arrival)
           (Rat.to_float j.Job.deadline)
           (Rat.to_float j.Job.wcet)
           j.Job.is_server
           (if i = Array.length t.jobs - 1 then "" else ",")))
    t.jobs;
  Buffer.add_string buf "  ],\n  \"edges\": [\n";
  let es = edges t in
  List.iteri
    (fun i (u, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    [%d,%d]%s\n" u v
           (if i = List.length es - 1 then "" else ",")))
    es;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let to_dot t =
  let module Dot = Rt_util.Dot in
  let nodes =
    Array.to_list
      (Array.map
         (fun j ->
           let label = Format.asprintf "%a" Job.pp j in
           let style = if j.Job.is_server then "dashed" else "" in
           Dot.node ~label ~shape:"ellipse" ~style (Job.label j))
         t.jobs)
  in
  let es =
    List.map
      (fun (u, v) -> Dot.edge (Job.label t.jobs.(u)) (Job.label t.jobs.(v)))
      (edges t)
  in
  Dot.render ~name:"taskgraph" nodes es
