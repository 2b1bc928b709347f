(* Sample statistics and the benchmark's outside timer. *)

let now_ns = Fppn_obs.Trace.now_ns

(* Nearest-rank quantile of an unsorted sample ([q] in [0, 1]). *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then 0.
  else
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median samples = quantile samples 0.5

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

let ratio a b = if b = 0. then 0. else a /. b

(* Growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len
let count s = s.len
let total s = Array.fold_left ( +. ) 0. (to_array s)

(* Self-test hook: every timed call is followed, inside its timed
   interval, by a busy wait of [planted] times its own duration.  It
   lives here, in the benchmark's wrapper, so a planted slowdown never
   touches the program under test. *)
let planted = ref 0.

let spin_ns ns =
  let until = now_ns () + ns in
  while now_ns () < until do
    ()
  done

(* [timed f] runs [f ()] and returns its result with the elapsed
   seconds, the planted slowdown included. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  let dt = now_ns () - t0 in
  if !planted > 0. then spin_ns (int_of_float (!planted *. float_of_int dt));
  (v, float_of_int (now_ns () - t0) /. 1e9)

(* Timed call wrapped in a benchmark-side span, so the traced run sees
   the benchmark's own calls into each layer. *)
let timed_span name f = timed (fun () -> Fppn_obs.Trace.with_span name f)

(* Allocation and major-collection counters, sampled around a phase. *)
type gc_mark = { bytes : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { bytes = Gc.allocated_bytes (); majors = s.Gc.major_collections }

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* Major-heap size now, and the largest it has been in the process. *)
let heap_mb () = words_mb (Gc.quick_stat ()).Gc.heap_words
let top_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words
