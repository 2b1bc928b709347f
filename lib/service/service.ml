module Rat = Rt_util.Rat
module Json = Rt_util.Json
module Pool = Rt_util.Pool
module Metrics = Fppn_obs.Metrics

let m_ingested = Metrics.counter "service.events_ingested"
let m_dropped = Metrics.counter "service.events_dropped"
let m_backpressure = Metrics.counter "service.events_backpressure"
let m_epochs = Metrics.counter "service.epochs"
let m_jobs = Metrics.counter "service.jobs_executed"
let m_misses = Metrics.counter "service.deadline_misses"
let g_tenants = Metrics.gauge "service.tenants"

type t = {
  procs : int;
  frames : int;
  queue : Ingest.t;
  (* the residents in registration order: [slots.(0 .. used - 1)], with
     [None] for a retired tenant until the next compaction; [index] maps
     each resident's name to its slot *)
  mutable slots : Tenant.t option array;
  mutable used : int;
  mutable live : int;
  index : (string, int) Hashtbl.t;
  mutable epochs : int;
  mutable dropped_total : int;
  mutable backpressure_seen : int;  (* Ingest rejects already counted *)
}

type epoch_report = {
  epoch : int;
  events_drained : int;
  events_dropped : int;
  events_consumed : int;
  jobs_executed : int;
  deadline_misses : int;
  wall_s : float;
}

let create ?(queue_capacity = 1024) ~procs ~frames () =
  if procs <= 0 then invalid_arg "Service.create: procs <= 0";
  if frames <= 0 then invalid_arg "Service.create: frames <= 0";
  {
    procs;
    frames;
    queue = Ingest.create ~capacity:queue_capacity;
    slots = Array.make 16 None;
    used = 0;
    live = 0;
    index = Hashtbl.create 64;
    epochs = 0;
    dropped_total = 0;
    backpressure_seen = 0;
  }

let procs t = t.procs
let frames t = t.frames

(* [f slot tenant] over the residents, last registered first *)
let fold_residents t f acc =
  let acc = ref acc in
  for i = t.used - 1 downto 0 do
    match t.slots.(i) with Some ten -> acc := f i ten !acc | None -> ()
  done;
  !acc

let tenants t = fold_residents t (fun _ ten acc -> ten :: acc) []

let find t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> t.slots.(i)
  | None -> None

let resident_interfaces t =
  fold_residents t (fun _ ten acc -> ten.Tenant.interface :: acc) []

let set_tenants_gauge t = Metrics.set_gauge g_tenants (float_of_int t.live)

let register ?pool ?inputs t ~name ~wcet net =
  if Hashtbl.mem t.index name then Error (Admission.Duplicate_tenant name)
  else
    let derive = Taskgraph.Derive.derive_exn ~wcet net in
    let cand = Admission.candidate ~name ~wcet net derive in
    match Admission.decide ~procs:t.procs ~resident:(resident_interfaces t) cand with
    | Admission.Rejected r -> Error r
    | Admission.Accepted interface -> (
      let min_procs = max 1 cand.Admission.c_lower_bound in
      match
        Tenant.build_plan ?pool ?inputs ~derive ~min_procs ~max_procs:t.procs
          ~wcet net
      with
      | Error searched -> Error (Admission.No_schedule { procs = searched })
      | Ok plan ->
        let ten =
          Tenant.make ~name ~plan ~interface ~taskset:cand.Admission.c_taskset
            ~load:cand.Admission.c_load
            ~lower_bound:cand.Admission.c_lower_bound
        in
        if t.used = Array.length t.slots then begin
          let slots = Array.make (2 * t.used) None in
          Array.blit t.slots 0 slots 0 t.used;
          t.slots <- slots
        end;
        t.slots.(t.used) <- Some ten;
        Hashtbl.replace t.index name t.used;
        t.used <- t.used + 1;
        t.live <- t.live + 1;
        set_tenants_gauge t;
        Ok ten)

(* Squeezes out the retired slots once they outnumber the residents, so
   a walk over the slots stays O(residents) and each retirement pays
   O(1) amortized. *)
let compact t =
  let live = ref 0 in
  for i = 0 to t.used - 1 do
    match t.slots.(i) with
    | Some ten ->
      t.slots.(!live) <- Some ten;
      Hashtbl.replace t.index ten.Tenant.name !live;
      incr live
    | None -> ()
  done;
  Array.fill t.slots !live (t.used - !live) None;
  t.used <- !live

let retire t name =
  match Hashtbl.find_opt t.index name with
  | None -> false
  | Some i ->
    Hashtbl.remove t.index name;
    t.slots.(i) <- None;
    t.live <- t.live - 1;
    if t.used > 2 * t.live then compact t;
    set_tenants_gauge t;
    true

let submit t ~tenant ~process ~stamp =
  let ok =
    Ingest.submit t.queue
      { Ingest.ev_tenant = tenant; ev_process = process; ev_stamp = stamp }
  in
  if ok then Metrics.incr m_ingested;
  ok

let queue_pending t = Ingest.pending t.queue
let backpressure t = Ingest.rejected t.queue

let run_epoch ?pool t =
  let t0 = Fppn_obs.Trace.now_ns () in
  (* account queue-full rejects that accumulated since last epoch *)
  let bp = Ingest.rejected t.queue in
  Metrics.add m_backpressure (bp - t.backpressure_seen);
  t.backpressure_seen <- bp;
  let events = Ingest.drain t.queue in
  let drained = List.length events in
  (* one index lookup per event groups the batch by resident slot *)
  let by_slot = Array.make t.used [] in
  let unaddressed = ref 0 in
  List.iter
    (fun (ev : Ingest.event) ->
      match Hashtbl.find_opt t.index ev.Ingest.ev_tenant with
      | None -> incr unaddressed
      | Some i -> by_slot.(i) <- ev :: by_slot.(i))
    events;
  let legalized_for i ten =
    match by_slot.(i) with
    | [] -> ([], 0)
    | evs ->
      let horizon =
        Rat.mul (Rat.of_int t.frames) (Tenant.hyperperiod ten)
      in
      Ingest.legalize
        ~generators:(Tenant.sporadic_events ten)
        ~horizon (List.rev evs)
  in
  let work =
    Array.of_list
      (fold_residents t (fun i ten acc -> (ten, legalized_for i ten) :: acc) [])
  in
  let dropped =
    !unaddressed
    + Array.fold_left (fun acc (_, (_, d)) -> acc + d) 0 work
  in
  let run (ten, (sporadic, _)) =
    Tenant.run_epoch ten ~frames:t.frames ~sporadic
  in
  let outcomes =
    match pool with
    | Some pool -> Pool.parallel_map pool run work
    | None -> Array.map run work
  in
  let consumed =
    Array.fold_left
      (fun acc (_, (sporadic, _)) ->
        acc
        + List.fold_left (fun a (_, stamps) -> a + List.length stamps) 0 sporadic)
      0 work
  in
  let jobs =
    Array.fold_left (fun acc (o : Tenant.outcome) -> acc + o.executed) 0 outcomes
  in
  let misses =
    Array.fold_left (fun acc (o : Tenant.outcome) -> acc + o.misses) 0 outcomes
  in
  t.epochs <- t.epochs + 1;
  t.dropped_total <- t.dropped_total + dropped;
  Metrics.incr m_epochs;
  Metrics.add m_dropped dropped;
  Metrics.add m_jobs jobs;
  Metrics.add m_misses misses;
  let wall_s =
    float_of_int (Fppn_obs.Trace.now_ns () - t0) /. 1e9
  in
  {
    epoch = t.epochs;
    events_drained = drained;
    events_dropped = dropped;
    events_consumed = consumed;
    jobs_executed = jobs;
    deadline_misses = misses;
    wall_s;
  }

let verify ?pool t =
  let ran =
    Array.of_list
      (List.filter
         (fun ten -> ten.Tenant.last_signature <> None)
         (tenants t))
  in
  let check ten =
    let standalone = Tenant.standalone_signature ten ~frames:t.frames in
    (ten.Tenant.name, ten.Tenant.last_signature = Some standalone)
  in
  let results =
    match pool with
    | Some pool -> Pool.parallel_map pool check ran
    | None -> Array.map check ran
  in
  Array.to_list results

let epoch_report_to_json r =
  Json.Obj
    [
      ("epoch", Json.Int r.epoch);
      ("events_drained", Json.Int r.events_drained);
      ("events_dropped", Json.Int r.events_dropped);
      ("events_consumed", Json.Int r.events_consumed);
      ("jobs_executed", Json.Int r.jobs_executed);
      ("deadline_misses", Json.Int r.deadline_misses);
      ("wall_s", Json.Float r.wall_s);
    ]

let status_json t =
  let total_bandwidth =
    List.fold_left
      (fun acc ten -> Rat.add acc (Mpr.bandwidth ten.Tenant.interface))
      Rat.zero (tenants t)
  in
  Json.Obj
    [
      ("procs", Json.Int t.procs);
      ("frames", Json.Int t.frames);
      ("epochs", Json.Int t.epochs);
      ("tenants", Json.Arr (List.map Tenant.to_json (tenants t)));
      ("total_bandwidth", Json.Float (Rat.to_float total_bandwidth));
      ("queue_capacity", Json.Int (Ingest.capacity t.queue));
      ("queue_pending", Json.Int (Ingest.pending t.queue));
      ("events_submitted", Json.Int (Ingest.submitted t.queue));
      ("events_backpressure", Json.Int (Ingest.rejected t.queue));
      ("events_dropped", Json.Int t.dropped_total);
    ]
