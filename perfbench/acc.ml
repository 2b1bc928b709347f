(* What one measured phase accumulates: operation latencies, named
   outside timers and counts, executed jobs, and failures by kind. *)

type t = {
  ops : Stats.samples;  (** one closed-loop operation each, seconds *)
  mutable busy_s : float;  (** sum of every timed call of the phase *)
  mutable jobs : int;  (** engine jobs executed *)
  mutable attempted : int;
  mutable failed : int;
  failures : (string, int) Hashtbl.t;
  timers : (string, Stats.samples) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  (* blocks of consecutive operations, see [end_op] *)
  block_p50 : Stats.samples;  (** median operation latency of each block *)
  block_heap : Stats.samples;  (** largest major heap of each block, MB *)
  mutable b_ops : int;
  mutable b_busy : float;
  mutable b_heap : float;
}

let create () =
  {
    ops = Stats.samples ();
    busy_s = 0.;
    jobs = 0;
    attempted = 0;
    failed = 0;
    failures = Hashtbl.create 8;
    timers = Hashtbl.create 8;
    counts = Hashtbl.create 8;
    block_p50 = Stats.samples ();
    block_heap = Stats.samples ();
    b_ops = 0;
    b_busy = 0.;
    b_heap = 0.;
  }

(* The measured loop is cut into blocks of consecutive operations
   holding at least [block_s] seconds of timed calls.  The host this
   benchmark was tuned on changes speed by a fifth or more every few
   seconds, and its operation latencies then fall into a fast and a
   slow cluster: a whole-run median lands in one or the other, while
   the mean of the blocks' medians moves in proportion to the time
   spent in each (in 15 s windows of one long engine-sporadic run its
   spread was 16 % against 25 %).  The heap figure is the median of the
   blocks' largest heaps: the single largest reading of a run depends
   on where the major GC's cycles happen to fall and swung by up to
   45 % between runs of the same code. *)
let block_s = 0.5

let close_block t =
  let n = Stats.count t.ops in
  if n > t.b_ops then begin
    Stats.push t.block_p50 (Stats.median (Array.sub t.ops.Stats.data t.b_ops (n - t.b_ops)));
    Stats.push t.block_heap t.b_heap;
    t.b_ops <- n;
    t.b_busy <- t.busy_s;
    t.b_heap <- 0.
  end

(* Called after every operation of a measured loop with the major-heap
   size then, in MB; [true] when it closed a block. *)
let end_op t ~heap_mb =
  t.b_heap <- Float.max t.b_heap heap_mb;
  let full = t.busy_s -. t.b_busy >= block_s in
  if full then close_block t;
  full

(* Called after the loop: a run too short for one full block still
   reports its operations as a single block. *)
let end_loop t = if Stats.count t.block_p50 = 0 then close_block t

let fail t kind =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.failures kind
    (1 + Option.value (Hashtbl.find_opt t.failures kind) ~default:0)

(* [check t kind ok] counts one attempted check and a failure of
   [kind] when it does not hold. *)
let check t kind ok =
  t.attempted <- t.attempted + 1;
  if not ok then fail t kind

let timer t name =
  match Hashtbl.find_opt t.timers name with
  | Some s -> s
  | None ->
    let s = Stats.samples () in
    Hashtbl.replace t.timers name s;
    s

(* Records a timed call under [name] and adds it to the busy time. *)
let record t name dt =
  Stats.push (timer t name) dt;
  t.busy_s <- t.busy_s +. dt

let timer_samples t name =
  match Hashtbl.find_opt t.timers name with
  | Some s -> Stats.to_array s
  | None -> [||]

let add_count t name n =
  Hashtbl.replace t.counts name
    (n + Option.value (Hashtbl.find_opt t.counts name) ~default:0)

let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let jobs_per_s t = Stats.ratio (float_of_int t.jobs) t.busy_s
let block_p50 t = Stats.mean (Stats.to_array t.block_p50)
let block_heap_mb t = Stats.median (Stats.to_array t.block_heap)
let blocks t = Stats.count t.block_p50

let failures t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.failures [])

(* Folds [b] into [a]: the traced and untraced halves of a traced run
   are checked alike. *)
let merge_failures a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace a.failures k
        (v + Option.value (Hashtbl.find_opt a.failures k) ~default:0))
    b.failures
