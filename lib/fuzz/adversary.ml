module Rat = Rt_util.Rat
module Prng = Rt_util.Prng
module Semantics = Fppn.Semantics
module Event = Fppn.Event
module Network = Fppn.Network
module Process = Fppn.Process
module Derive = Taskgraph.Derive

let permute_simultaneous prng trace =
  let rec split_group t acc = function
    | (inv : Semantics.invocation) :: rest when Rat.equal inv.Semantics.time t ->
      split_group t (inv :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | (inv : Semantics.invocation) :: rest ->
      let group, rest = split_group inv.Semantics.time [ inv ] rest in
      let arr = Array.of_list group in
      Prng.shuffle prng arr;
      loop (List.rev_append (Array.to_list arr) acc) rest
  in
  loop [] trace

(* Greedily extend the trace with the given stamps in order, keeping
   only those that leave it valid for [ev].  The kept prefix is always
   valid, so a candidate only has to be non-negative, not below the
   last kept stamp, and at least [T] after the [m_e]-th most recent kept
   one — the check {!Event.is_valid_sporadic_trace} makes at the new
   last stamp. *)
let greedy_valid ev stamps =
  let fits rev_kept t =
    Rat.sign t >= 0
    && (match rev_kept with [] -> true | last :: _ -> Rat.(last <= t))
    &&
    match List.nth_opt rev_kept (ev.Event.burst - 1) with
    | None -> true
    | Some s -> Rat.(add s ev.Event.period <= t)
  in
  List.rev
    (List.fold_left
       (fun rev_kept t -> if fits rev_kept t then t :: rev_kept else rev_kept)
       [] stamps)

let boundary_traces net (d : Derive.t) ~frames ~seed =
  let h = d.Derive.hyperperiod in
  let horizon = Rat.mul h (Rat.of_int frames) in
  let prng = Prng.create seed in
  let eps = Rat.make 1 1000 in
  List.map
    (fun (s : Derive.server_info) ->
      let proc = Network.process net s.Derive.sporadic in
      let name = Process.name proc in
      let ev = Process.event proc in
      let ts = s.Derive.server_period in
      let slots = Rat.to_int_exn (Rat.div h ts) in
      let candidates = ref [] in
      for frame = 0 to frames - 1 do
        for slot = 1 to slots do
          let b =
            Rat.add
              (Rat.mul h (Rat.of_int frame))
              (Rat.mul ts (Rat.of_int (slot - 1)))
          in
          List.iter
            (fun c -> candidates := c :: !candidates)
            [ b; Rat.add b eps; Rat.sub b eps ]
        done
      done;
      let candidates =
        List.sort_uniq Rat.compare !candidates
        |> List.filter (fun t -> Rat.sign t >= 0 && Rat.(t < horizon))
      in
      (* a random subset keeps successive cases from probing the same
         boundaries; greedy filtering keeps the trace (m,T)-valid *)
      let kept = List.filter (fun _ -> Prng.float prng 1.0 < 0.6) candidates in
      (name, greedy_valid ev kept))
    d.Derive.servers

let merge_traces net a b =
  let names =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun name ->
      let ev = Process.event (Network.process net (Network.find net name)) in
      let stamps l = match List.assoc_opt name l with Some s -> s | None -> [] in
      (* plain sort (not uniq): equal stamps are burst events *)
      let all = List.sort Rat.compare (stamps a @ stamps b) in
      (name, greedy_valid ev all))
    names
