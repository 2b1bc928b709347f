(* Service workloads: a Fppn_service.Service hosting a few hundred
   small Randgen tenants on M = 4 shared processors, two hyperperiod
   frames per tenant per epoch.

   The measured loops run every epoch on the calling domain: on a host
   whose second CPU is shared with other machines' work, a two-domain
   epoch waits for whichever domain was descheduled, and its figures
   swung by a third between runs of the same code, while one domain
   stayed within a few percent.  The fan-out over
   Pool.recommended_domains () domains, the default of
   [fppn-tool serve], is a per-layer probe of the traced run. *)

module Rat = Rt_util.Rat
module Prng = Rt_util.Prng
module Service = Fppn_service.Service
module Tenant = Fppn_service.Tenant
module Derive = Taskgraph.Derive

let procs = 4
let frames = 2
let tenants = 200
let events_per_epoch = 1024
let queue_capacity = 4096

type state = {
  svc : Service.t;
  prng : Prng.t;  (** events and churn draws *)
  draw : Prng.t -> Fppn_apps.Randgen.params;
  churn : int;  (** tenants replaced per epoch *)
  mutable serial : int;  (** next tenant number *)
  (* event conservation: submitted = consumed + dropped + backpressure
     + pending, over the whole life of the service *)
  mutable submitted : int;
  mutable consumed : int;
  mutable dropped : int;
  (* the last few epochs' submitted batches, per tenant, for the
     legalization probe *)
  mutable batches : (string * Fppn_service.Ingest.event list) list list;
}

(* The legacy service-mixed-m4 tenant shape. *)
let steady_params prng =
  {
    Fppn_apps.Randgen.seed = Prng.int prng 1_000_000_000;
    n_periodic = 2;
    n_sporadic = 1;
    periods = [ 50; 100 ];
    channel_density = 0.4;
    max_burst = 2;
  }

(* Churn tenants: a seeded mix of sizes around the steady shape. *)
let churn_params prng =
  let n_periodic = 1 + Prng.int prng 4 in
  {
    Fppn_apps.Randgen.seed = Prng.int prng 1_000_000_000;
    n_periodic;
    n_sporadic = Prng.int prng 3;
    periods = (if Prng.int prng 2 = 0 then [ 50; 100 ] else [ 25; 50; 100 ]);
    channel_density = 0.4;
    max_burst = 2;
  }

let wcet_of net =
  Fppn_apps.Randgen.wcet ~scale:(Rat.make 1 2000) (Derive.const_wcet Rat.one) net

let draw_tenant draw prng =
  let net = Fppn_apps.Randgen.network (draw prng) in
  (net, wcet_of net)

(* One Service.register of the tenant [next ()]; [true] if admitted. *)
let register st acc next =
  let name = Printf.sprintf "t%05d" st.serial in
  st.serial <- st.serial + 1;
  let net, wcet = next () in
  let verdict, dt =
    Stats.timed_span "bench.service.register" (fun () ->
        Service.register st.svc ~name ~wcet net)
  in
  Acc.record acc "register" dt;
  let ok = Result.is_ok verdict in
  Acc.add_count acc "register_attempts" 1;
  if ok then Acc.add_count acc "register_accepted" 1;
  ok

(* Registers tenants [next ()] until [n] more are resident, at most
   [4 n] attempts. *)
let admit st acc n next =
  let rec go admitted attempts =
    if admitted < n && attempts < 4 * n then
      go (if register st acc next then admitted + 1 else admitted) (attempts + 1)
  in
  go 0 0

let targets st =
  Array.of_list
    (List.filter_map
       (fun ten ->
         match Tenant.sporadic_events ten with
         | [] -> None
         | sp ->
           let horizon_ms =
             int_of_float (Rat.to_float (Tenant.hyperperiod ten)) * frames
           in
           Some (ten.Tenant.name, Array.of_list (List.map fst sp), max 1 horizon_ms))
       (Service.tenants st.svc))

let draw_events st =
  let tg = targets st in
  if Array.length tg = 0 then [||]
  else
    Array.init events_per_epoch (fun _ ->
        let tenant, procs, horizon_ms = tg.(Prng.int st.prng (Array.length tg)) in
        {
          Fppn_service.Ingest.ev_tenant = tenant;
          ev_process = procs.(Prng.int st.prng (Array.length procs));
          ev_stamp = Rat.of_int (Prng.int st.prng horizon_ms);
        })

let keep_batch st events =
  let by = Hashtbl.create 64 in
  Array.iter
    (fun (ev : Fppn_service.Ingest.event) ->
      let prev = Option.value (Hashtbl.find_opt by ev.ev_tenant) ~default:[] in
      Hashtbl.replace by ev.ev_tenant (ev :: prev))
    events;
  let batch = Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) by [] in
  st.batches <- batch :: List.filteri (fun i _ -> i < 7) st.batches

let op ?pool st acc =
  if st.churn > 0 then begin
    let oldest =
      List.filteri (fun i _ -> i < st.churn) (Service.tenants st.svc)
    in
    List.iter
      (fun ten ->
        let (_ : bool), dt =
          Stats.timed_span "bench.service.retire" (fun () ->
              Service.retire st.svc ten.Tenant.name)
        in
        Acc.record acc "retire" dt)
      oldest;
    admit st acc st.churn (fun () -> draw_tenant st.draw st.prng)
  end;
  let events = draw_events st in
  keep_batch st events;
  let bp0 = Service.backpressure st.svc in
  let (), dt_submit =
    Stats.timed_span "bench.service.submit" (fun () ->
        Array.iter
          (fun (ev : Fppn_service.Ingest.event) ->
            ignore
              (Service.submit st.svc ~tenant:ev.ev_tenant ~process:ev.ev_process
                 ~stamp:ev.ev_stamp))
          events)
  in
  Acc.record acc "submit" dt_submit;
  Acc.add_count acc "submitted_events" (Array.length events);
  st.submitted <- st.submitted + Array.length events;
  let steals0 = Rt_util.Pool.steals () in
  match
    Stats.timed_span "bench.service.run_epoch" (fun () ->
        Service.run_epoch ?pool st.svc)
  with
  | exception _ -> Acc.check acc "exception" false
  | r, dt ->
    Acc.record acc "epoch" dt;
    Stats.push acc.Acc.ops dt;
    Acc.add_count acc "pool_steals" (Rt_util.Pool.steals () - steals0);
    acc.Acc.jobs <- acc.Acc.jobs + r.Service.jobs_executed;
    st.consumed <- st.consumed + r.Service.events_consumed;
    st.dropped <- st.dropped + r.Service.events_dropped;
    let bp = Service.backpressure st.svc in
    Acc.add_count acc "epochs" 1;
    Acc.add_count acc "events_drained" r.Service.events_drained;
    Acc.add_count acc "events_consumed" r.Service.events_consumed;
    Acc.add_count acc "events_dropped" r.Service.events_dropped;
    Acc.add_count acc "events_backpressure" (bp - bp0);
    let conserved =
      st.submitted
      = st.consumed + st.dropped + bp + Service.queue_pending st.svc
      && r.Service.events_drained
         = r.Service.events_consumed + r.Service.events_dropped
    in
    if r.Service.deadline_misses > 0 then Acc.check acc "deadline_miss" false
    else if bp > bp0 then Acc.check acc "backpressure" false
    else Acc.check acc "conservation" conserved

(* After the timed loop: the service's own determinism oracle
   (standalone replay of every tenant's last epoch) and an independent
   zero-delay check of the same epoch. *)
let verify st acc =
  let (), dt =
    Stats.timed (fun () ->
        List.iter
          (fun (_, ok) -> Acc.check acc "verify_mismatch" ok)
          (Service.verify st.svc);
        List.iter
          (fun ten ->
            match ten.Tenant.last_signature with
            | None -> ()
            | Some signature ->
              let p = ten.Tenant.plan in
              let reference =
                Workload.reference_signature ~inputs:p.Tenant.inputs p.Tenant.net
                  p.Tenant.derive ~frames ten.Tenant.last_events
              in
              Acc.check acc "semantics_mismatch"
                (Workload.signature_equal signature reference))
          (Service.tenants st.svc))
  in
  Stats.push (Acc.timer acc "verify") dt

(* Pool fan-out: [fanout_epochs] closed-loop operations on a pool of
   Pool.recommended_domains () domains, checked like any other. *)
let fanout_epochs = 200

(* Per-layer probes on up to 32 resident tenants: derivation, list
   scheduling, the admission decision and plan construction, each timed
   from outside; Ingest.legalize over the recorded event batches; and
   epochs on the host's full pool. *)
let probes st acc =
  let residents = Service.tenants st.svc in
  let sample = List.filteri (fun i _ -> i < 32) residents in
  let interfaces = Service.resident_interfaces st.svc in
  List.iter
    (fun ten ->
      let p = ten.Tenant.plan in
      let derived, dt =
        Stats.timed (fun () -> Derive.derive_exn ~wcet:p.Tenant.wcet p.Tenant.net)
      in
      Stats.push (Acc.timer acc "probe_derive") dt;
      let _, dt =
        Stats.timed (fun () ->
            Sched.List_scheduler.auto ~n_procs:p.Tenant.n_procs
              derived.Derive.graph)
      in
      Stats.push (Acc.timer acc "probe_schedule") dt;
      let others = List.filter (fun i -> i != ten.Tenant.interface) interfaces in
      let _, dt =
        Stats.timed (fun () ->
            let cand =
              Fppn_service.Admission.candidate ~name:ten.Tenant.name
                ~wcet:p.Tenant.wcet p.Tenant.net derived
            in
            Fppn_service.Admission.decide ~procs ~resident:others cand)
      in
      Stats.push (Acc.timer acc "probe_decide") dt;
      let _, dt =
        Stats.timed (fun () ->
            Tenant.build_plan ~derive:derived
              ~min_procs:(max 1 ten.Tenant.lower_bound) ~max_procs:procs
              ~wcet:p.Tenant.wcet p.Tenant.net)
      in
      Stats.push (Acc.timer acc "probe_build_plan") dt)
    sample;
  List.iter
    (fun batch ->
      let (), dt =
        Stats.timed (fun () ->
            List.iter
              (fun (name, events) ->
                match Service.find st.svc name with
                | None -> ()
                | Some ten ->
                  let horizon =
                    Rat.mul (Rat.of_int frames) (Tenant.hyperperiod ten)
                  in
                  ignore
                    (Fppn_service.Ingest.legalize
                       ~generators:(Tenant.sporadic_events ten) ~horizon events))
              batch)
      in
      Stats.push (Acc.timer acc "probe_legalize") dt)
    st.batches;
  let fanout = Acc.create () in
  Rt_util.Pool.with_pool ~jobs:(Rt_util.Pool.recommended_domains ()) (fun pool ->
      for _ = 1 to fanout_epochs do
        op ~pool st fanout
      done;
      Acc.add_count acc "fanout_domains" (Rt_util.Pool.jobs pool));
  Acc.merge_failures acc fanout;
  Array.iter (Stats.push (Acc.timer acc "fanout_epoch")) (Acc.timer_samples fanout "epoch");
  Acc.add_count acc "fanout_steals" (Acc.count fanout "pool_steals")

let make ~name ~why ~draw ~churn =
  {
    Workload.name;
    why;
    setups = 40;
    setup =
      (fun ~seed ->
        (* tenant networks are inputs, not set-up: the first [tenants]
           are drawn here, any more that rejections call for on first
           use, and every set-up registers the same ones *)
        let input_prng = Prng.create ((seed * 1_000_003) + 1) in
        let drawn = ref [||] in
        let inputs i =
          if i >= Array.length !drawn then
            drawn :=
              Array.append !drawn
                (Array.init
                   (i + 1 - Array.length !drawn)
                   (fun _ -> draw_tenant draw input_prng));
          !drawn.(i)
        in
        ignore (inputs (tenants - 1));
        fun acc ->
        let st =
          {
            svc = Service.create ~queue_capacity ~procs ~frames ();
            prng = Prng.create (seed * 1_000_003);
            draw;
            churn;
            serial = 0;
            submitted = 0;
            consumed = 0;
            dropped = 0;
            batches = [];
          }
        in
        let next = ref 0 in
        admit st acc tenants (fun () ->
            incr next;
            inputs (!next - 1));
        {
          Workload.prepare = (fun _ -> ());
          op = op st;
          verify = verify st;
          probes = probes st;
          job_spans =
            (fun () ->
              let h = Hashtbl.create 4096 in
              List.iter
                (fun ten -> Workload.job_labels ten.Tenant.plan.Tenant.derive h)
                (Service.tenants st.svc);
              h);
        });
  }

let steady =
  make ~name:"service-steady" ~draw:steady_params ~churn:0
    ~why:
      "200 small tenants, 1024 events per epoch: hundreds of tiny engine \
       runs per epoch, so per-run compile, event grouping and legalization \
       dominate"

let churn =
  make ~name:"service-churn" ~draw:churn_params ~churn:4
    ~why:
      "as service-steady, but 4 tenants retire and 4 register per epoch: \
       admission, derive and schedule run every epoch"
