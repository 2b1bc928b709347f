type input_feed = string -> int -> Value.t

let no_inputs _ _ = Value.Absent

(* compile each feed list to an array once; looking up sample [k] is
   then O(1) instead of an O(k) [List.nth] per access *)
let feed_of_list feeds =
  let compiled =
    List.map (fun (c, samples) -> (c, Array.of_list samples)) feeds
  in
  fun channel k ->
    match List.assoc_opt channel compiled with
    | None -> Value.Absent
    | Some samples ->
      if k >= 1 && k <= Array.length samples then samples.(k - 1)
      else Value.Absent

type target =
  | Internal of Channel.t
  | Ext_input
  | Ext_output of Channel.t

(* One channel a process reads or writes.  [seen] is the call-site
   cache of the fast path (see [route_index]). *)
type route = { name : string; target : target; mutable seen : string }

(* A process touches a handful of channels, so per-process route arrays
   resolved once at [create] beat hashing a (proc, name) pair on every
   access: routing in [run_job] becomes a short scan over strings that
   usually differ in the first character. *)
type t = {
  net : Network.t;
  instances : Instance.t array;
  chan_states : (string * Channel.t) list; (* internal, sorted by name *)
  out_states : (string * Channel.t) list; (* external outputs, sorted *)
  reads : route array array; (* per process *)
  writes : route array array;
  mutable cur : int;  (* the process a runner is running *)
  mutable access_count : int;
}

let create net =
  let instances =
    Array.map Instance.create (Network.processes net)
  in
  let chan_states =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map
         (fun c ->
           ( c.Network.ch_name,
             Channel.create ?init:c.Network.init c.Network.ch_kind ))
         (Network.channels net))
  in
  let out_states =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map
         (fun io -> (io.Network.io_name, Channel.create Channel.Fifo))
         (Network.outputs net))
  in
  let n = Network.n_processes net in
  let reads = Array.make n [] and writes = Array.make n [] in
  List.iter
    (fun c ->
      let state = List.assoc c.Network.ch_name chan_states in
      let r = Network.find net c.Network.reader
      and w = Network.find net c.Network.writer in
      reads.(r) <- (c.Network.ch_name, Internal state) :: reads.(r);
      writes.(w) <- (c.Network.ch_name, Internal state) :: writes.(w))
    (Network.channels net);
  List.iter
    (fun io ->
      let owner = Network.find net io.Network.owner in
      match io.Network.dir with
      | Network.In ->
        reads.(owner) <- (io.Network.io_name, Ext_input) :: reads.(owner)
      | Network.Out ->
        let state = List.assoc io.Network.io_name out_states in
        writes.(owner) <-
          (io.Network.io_name, Ext_output state) :: writes.(owner))
    (Network.inputs net @ Network.outputs net);
  (* the [""] filler can never alias a caller's string, so a fresh
     cache never matches *)
  let routes table =
    Array.map
      (fun l ->
        Array.of_list
          (List.map (fun (name, target) -> { name; target; seen = "" }) l))
      table
  in
  {
    net;
    instances;
    chan_states;
    out_states;
    reads = routes reads;
    writes = routes writes;
    cur = 0;
    access_count = 0;
  }

(* top-level tail recursion: the fast-path closures call these on
   every channel access, so they must allocate nothing — no inner
   closure, no option; [-1] = not found *)
let rec route_scan routes c i n =
  if i >= n then -1
  else if String.equal (Array.unsafe_get routes i).name c then i
  else route_scan routes c (i + 1) n

(* Call-site cache: process bodies name channels with string literals,
   so the very same string *object* recurs at each call site.  A route
   remembers in [seen] the last object that named it; a
   physical-equality probe over those resolves the route without
   touching the string bytes, and only a miss compares strings (and
   remembers the new object).  One slot per channel keeps the cache as
   small as the route table; a name built afresh per access just always
   misses. *)
let rec seen_scan routes c i n =
  if i >= n then -1
  else if (Array.unsafe_get routes i).seen == c then i
  else seen_scan routes c (i + 1) n

let route_index routes c =
  let n = Array.length routes in
  let i = seen_scan routes c 0 n in
  if i >= 0 then i
  else begin
    let i = route_scan routes c 0 n in
    if i >= 0 then (Array.unsafe_get routes i).seen <- c;
    i
  end

let find_route routes c =
  let i = route_scan routes c 0 (Array.length routes) in
  if i < 0 then None else Some routes.(i).target

let unattached t dir c =
  let pname = Process.name (Instance.process t.instances.(t.cur)) in
  invalid_arg
    (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)

(* The zero-allocation job path of one run: one job context (and
   automaton environment) serves every process, its closures routing
   against the state's [cur] process and the run's [inputs] instead of
   taking a process, a feed and a recorder per call.  Built per run, so
   a state kept between runs holds no closures; the counting variant
   bumps [access_count] per channel access (needed only when the
   platform charges a per-access overhead), the plain one doesn't pay
   the store. *)
type runner = { state : t; ctx : Process.job_ctx; env : Automaton.env }

(* [route_index] with its first two probes inlined: almost every process
   touches at most two channels per direction, so the common access
   resolves in one or two pointer compares without an out-of-line
   call *)
let[@inline] probe routes c =
  let n = Array.length routes in
  if n > 0 && (Array.unsafe_get routes 0).seen == c then 0
  else if n > 1 && (Array.unsafe_get routes 1).seen == c then 1
  else route_index routes c

let runner ?(counting = false) ?(inputs = no_inputs) t =
  let read c =
    let p = t.cur in
    let routes = Array.unsafe_get t.reads p in
    let i = probe routes c in
    if i < 0 then unattached t "read" c
    else
      match (Array.unsafe_get routes i).target with
      | Internal state -> Channel.read state
      | Ext_input ->
        inputs c (Instance.job_count (Array.unsafe_get t.instances p) + 1)
      | Ext_output _ -> unattached t "read" c
  in
  let write c v =
    let p = t.cur in
    let routes = Array.unsafe_get t.writes p in
    let i = probe routes c in
    if i < 0 then unattached t "write" c
    else
      match (Array.unsafe_get routes i).target with
      | Internal state | Ext_output state -> Channel.write state v
      | Ext_input -> unattached t "write" c
  in
  let read, write =
    if counting then
      ( (fun c ->
          t.access_count <- t.access_count + 1;
          read c),
        fun c v ->
          t.access_count <- t.access_count + 1;
          write c v )
    else (read, write)
  in
  let get x = Instance.lookup (Array.unsafe_get t.instances t.cur) x in
  let set x v = Instance.assign (Array.unsafe_get t.instances t.cur) x v in
  {
    state = t;
    ctx =
      { Process.job_index = 0; now = Rt_util.Rat.zero; read; write; get; set };
    env =
      { Automaton.lookup = get; assign = set; read_channel = read; write_channel = write };
  }

let access_count t = t.access_count

let run_job_fast r ~proc ~now =
  r.state.cur <- proc;
  Instance.run_with r.state.instances.(proc) ~ctx:r.ctx ~env:r.env ~now

(* the replay inner loop of the tick engine: job [i] runs process
   [procs.(i)] at instant [nows.(now_base + now_idx.(i))].  Hosting the
   loop here keeps the per-job work to a few unchecked loads and one
   call — the callers guarantee indices in range ([procs]/[now_idx]
   come from the captured template, [now_base + now_idx] indexes
   [nows]). *)
let run_jobs_fast r ~procs ~now_idx ~nows ~now_base ~count =
  let t = r.state and ctx = r.ctx and env = r.env in
  for i = 0 to count - 1 do
    let p = Array.unsafe_get procs i in
    t.cur <- p;
    Instance.run_with
      (Array.unsafe_get t.instances p)
      ~ctx ~env
      ~now:(Array.unsafe_get nows (now_base + Array.unsafe_get now_idx i))
  done

let network t = t.net
let instance t i = t.instances.(i)

(* [recorder] stays optional all the way down so the unrecorded path
   never even allocates the [Trace.action] values — each construction is
   guarded by the option match, which matters in simulation hot loops *)
let run_job ?recorder ?(inputs = no_inputs) t ~proc ~now =
  let inst = t.instances.(proc) in
  let pname = Process.name (Instance.process inst) in
  let k = Instance.job_count inst + 1 in
  let unknown dir c =
    invalid_arg
      (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)
  in
  let read c =
    let v =
      match find_route t.reads.(proc) c with
      | Some (Internal state) -> Channel.read state
      | Some Ext_input -> inputs c k
      | Some (Ext_output _) | None -> unknown "read" c
    in
    (match recorder with
    | Some r -> r (Trace.Read { process = pname; k; channel = c; value = v })
    | None -> ());
    v
  in
  let write c v =
    (match find_route t.writes.(proc) c with
    | Some (Internal state) | Some (Ext_output state) -> Channel.write state v
    | Some Ext_input | None -> unknown "write" c);
    match recorder with
    | Some r -> r (Trace.Write { process = pname; k; channel = c; value = v })
    | None -> ()
  in
  (match recorder with
  | Some r -> r (Trace.Job_start { process = pname; k })
  | None -> ());
  Instance.run_job inst ~now ~read ~write;
  match recorder with
  | Some r -> r (Trace.Job_end { process = pname; k })
  | None -> ()

let skip_job t ~proc = Instance.skip_job t.instances.(proc)

let run_job_deferred ?(recorder = fun _ -> ()) ?(inputs = no_inputs) t ~proc ~now =
  let inst = t.instances.(proc) in
  let pname = Process.name (Instance.process inst) in
  let k = Instance.job_count inst + 1 in
  let unknown dir c =
    invalid_arg
      (Printf.sprintf "process %s: %s to unattached channel %S" pname dir c)
  in
  let read c =
    let v =
      match find_route t.reads.(proc) c with
      | Some (Internal state) -> Channel.read state
      | Some Ext_input -> inputs c k
      | Some (Ext_output _) | None -> unknown "read" c
    in
    recorder (Trace.Read { process = pname; k; channel = c; value = v });
    v
  in
  let buffered = ref [] in
  let write c v =
    (match find_route t.writes.(proc) c with
    | Some (Internal state) | Some (Ext_output state) ->
      buffered := (state, c, v) :: !buffered
    | Some Ext_input | None -> unknown "write" c);
    recorder (Trace.Write { process = pname; k; channel = c; value = v })
  in
  recorder (Trace.Job_start { process = pname; k });
  Instance.run_job inst ~now ~read ~write;
  let to_flush = List.rev !buffered in
  fun () ->
    List.iter (fun (state, _, v) -> Channel.write state v) to_flush;
    recorder (Trace.Job_end { process = pname; k })

let histories states = List.map (fun (n, st) -> (n, Channel.history st)) states
let channel_history t = histories t.chan_states
let output_history t = histories t.out_states

(* O(#channels) capture decoupled from the state's lifetime: the engine
   snapshots at run end, so the state can be reset and reused for the
   next run while earlier results still materialize their histories *)
let snapshots states = List.map (fun (n, st) -> (n, Channel.snapshot st)) states
let channel_snapshot t = snapshots t.chan_states
let output_snapshot t = snapshots t.out_states

let channel_state t name =
  match List.assoc_opt name t.chan_states with
  | Some st -> st
  | None -> (
    match List.assoc_opt name t.out_states with
    | Some st -> st
    | None -> raise Not_found)

let reset t =
  Array.iter Instance.reset t.instances;
  List.iter (fun (_, st) -> Channel.reset st) t.chan_states;
  List.iter (fun (_, st) -> Channel.reset st) t.out_states;
  t.access_count <- 0
