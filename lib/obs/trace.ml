type id = int

let on = ref false
let set_enabled b = on := b
let enabled () = !on
let capacity = 65536
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Event kinds in the packed ring: 0 = span, 1 = instant, 2 = counter.
   A span's [aux] field is its duration; a counter's is its value. *)

type agg = { mutable calls : int; mutable total : int; mutable self : int }

type buf = {
  lane : int;
  mutable names : string array;
  mutable n_names : int;
  tbl : (string, int) Hashtbl.t;
  kinds : Bytes.t;
  name_of : int array;
  ts_of : int array;
  aux_of : int array;
  mutable written : int;
  (* span stack: name id, start ns, accumulated child ns per open span *)
  mutable st_name : int array;
  mutable st_start : int array;
  mutable st_child : int array;
  mutable depth : int;
  agg : (int, agg) Hashtbl.t;
}

let registry : buf list ref = ref []
let reg_mu = Mutex.create ()

let make_buf lane =
  {
    lane;
    names = Array.make 64 "";
    n_names = 0;
    tbl = Hashtbl.create 64;
    kinds = Bytes.create capacity;
    name_of = Array.make capacity 0;
    ts_of = Array.make capacity 0;
    aux_of = Array.make capacity 0;
    written = 0;
    st_name = Array.make 64 0;
    st_start = Array.make 64 0;
    st_child = Array.make 64 0;
    depth = 0;
    agg = Hashtbl.create 64;
  }

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = make_buf (Rt_util.Pool.self_id ()) in
      Mutex.lock reg_mu;
      registry := b :: !registry;
      Mutex.unlock reg_mu;
      b)

let my_buf () = Domain.DLS.get buf_key

let clear_buf b =
  b.written <- 0;
  b.depth <- 0;
  Hashtbl.reset b.agg

let reset () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  List.iter clear_buf bufs

let intern_in b name =
  match Hashtbl.find_opt b.tbl name with
  | Some i -> i
  | None ->
    let i = b.n_names in
    if i = Array.length b.names then begin
      let ns = Array.make (2 * i) "" in
      Array.blit b.names 0 ns 0 i;
      b.names <- ns
    end;
    b.names.(i) <- name;
    b.n_names <- i + 1;
    Hashtbl.add b.tbl name i;
    i

let intern name = intern_in (my_buf ()) name

let push b kind name_id ts aux =
  let i = b.written mod capacity in
  Bytes.unsafe_set b.kinds i (Char.unsafe_chr kind);
  b.name_of.(i) <- name_id;
  b.ts_of.(i) <- ts;
  b.aux_of.(i) <- aux;
  b.written <- b.written + 1

let begin_span b id =
  let d = b.depth in
  if d = Array.length b.st_name then begin
    let grow a =
      let a' = Array.make (2 * d) 0 in
      Array.blit a 0 a' 0 d;
      a'
    in
    b.st_name <- grow b.st_name;
    b.st_start <- grow b.st_start;
    b.st_child <- grow b.st_child
  end;
  b.st_name.(d) <- id;
  b.st_start.(d) <- now_ns ();
  b.st_child.(d) <- 0;
  b.depth <- d + 1

let agg_for b id =
  match Hashtbl.find_opt b.agg id with
  | Some a -> a
  | None ->
    let a = { calls = 0; total = 0; self = 0 } in
    Hashtbl.add b.agg id a;
    a

let end_span b =
  let d = b.depth - 1 in
  b.depth <- d;
  let total = now_ns () - b.st_start.(d) in
  let self = total - b.st_child.(d) in
  if d > 0 then b.st_child.(d - 1) <- b.st_child.(d - 1) + total;
  let id = b.st_name.(d) in
  push b 0 id b.st_start.(d) total;
  let a = agg_for b id in
  a.calls <- a.calls + 1;
  a.total <- a.total + total;
  a.self <- a.self + self

let with_span name f =
  if not !on then f ()
  else begin
    let b = my_buf () in
    begin_span b (intern_in b name);
    match f () with
    | v ->
      end_span b;
      v
    | exception e ->
      end_span b;
      raise e
  end

(* Closure-free span edges for hot loops: [with_span] allocates a
   closure per call site when its body captures loop state, which is
   exactly what the tick engine's per-job spans would do.  The caller
   must pair begin/end; an escaping exception between them loses the
   open span (tolerable — the run is crashing). *)
let span_begin id = if !on then begin_span (my_buf ()) id
let span_end () = if !on then end_span (my_buf ())

let instant_id id =
  if !on then
    let b = my_buf () in
    push b 1 id (now_ns ()) 0

let instant name =
  if !on then
    let b = my_buf () in
    push b 1 (intern_in b name) (now_ns ()) 0

let counter name v =
  if !on then
    let b = my_buf () in
    push b 2 (intern_in b name) (now_ns ()) v

let counter_id id v =
  if !on then
    let b = my_buf () in
    push b 2 id (now_ns ()) v

type kind =
  | Span of { dur_ns : int }
  | Instant
  | Counter of int

type event = { lane : int; name : string; ts_ns : int; kind : kind }

let buf_events b acc =
  let n = min b.written capacity in
  let first = if b.written <= capacity then 0 else b.written mod capacity in
  let acc = ref acc in
  for k = 0 to n - 1 do
    let i = (first + k) mod capacity in
    let id = b.name_of.(i) in
    let name = if id < b.n_names then b.names.(id) else "?" in
    let kind =
      match Bytes.unsafe_get b.kinds i with
      | '\000' -> Span { dur_ns = b.aux_of.(i) }
      | '\001' -> Instant
      | _ -> Counter b.aux_of.(i)
    in
    acc := { lane = b.lane; name; ts_ns = b.ts_of.(i); kind } :: !acc
  done;
  !acc

let events () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  let evs = List.fold_left (fun acc b -> buf_events b acc) [] bufs in
  List.stable_sort (fun a b -> compare a.ts_ns b.ts_ns) evs

let dropped () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  List.fold_left (fun acc b -> acc + max 0 (b.written - capacity)) 0 bufs

type hotspot = { hname : string; calls : int; total_ns : int; self_ns : int }

let hotspots () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  let merged : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun id (a : agg) ->
          let name = if id < b.n_names then b.names.(id) else "?" in
          match Hashtbl.find_opt merged name with
          | Some m ->
            m.calls <- m.calls + a.calls;
            m.total <- m.total + a.total;
            m.self <- m.self + a.self
          | None ->
            Hashtbl.add merged name
              { calls = a.calls; total = a.total; self = a.self })
        b.agg)
    bufs;
  Hashtbl.fold
    (fun name (a : agg) acc ->
      { hname = name; calls = a.calls; total_ns = a.total; self_ns = a.self }
      :: acc)
    merged []
  |> List.sort (fun a b ->
         match compare b.self_ns a.self_ns with
         | 0 -> compare a.hname b.hname
         | c -> c)
