module Rat = Rt_util.Rat
module Prng = Rt_util.Prng
module Value = Fppn.Value
module Network = Fppn.Network
module Semantics = Fppn.Semantics
module Derive = Taskgraph.Derive
module List_scheduler = Sched.List_scheduler
module Engine = Runtime.Engine
module Exec_time = Runtime.Exec_time
module Exec_trace = Runtime.Exec_trace
module Translate = Timedauto.Translate
module Randgen = Fppn_apps.Randgen

type sabotage =
  | No_sabotage
  | Flip_channel_fp of { writer : int; reader : int }
  | Flip_sporadic_fp of string

type case = {
  spec : Randgen.spec;
  sabotage : sabotage;
  trace_seed : int;
  jitter_seeds : int list;
  proc_counts : int list;
  frames : int;
  permutations : int;
  boundary_snap : bool;
}

let case_processes case = Randgen.spec_processes case.spec

let sut_spec case =
  match case.sabotage with
  | No_sabotage -> Some case.spec
  | Flip_channel_fp { writer; reader } ->
    Randgen.flip_channel_fp case.spec ~writer ~reader
  | Flip_sporadic_fp name -> Randgen.flip_sporadic_fp case.spec name

type divergence = {
  executor : string;
  channel : string option;
  detail : string;
}

type verdict =
  | Pass of { comparisons : int }
  | Skip of string
  | Fail of divergence

let pp_divergence ppf d =
  Format.fprintf ppf "%s diverges%a: %s" d.executor
    (fun ppf -> function
      | None -> ()
      | Some c -> Format.fprintf ppf " on channel %s" c)
    d.channel d.detail

(* First point where two sorted channel-history signatures disagree. *)
let first_diff ref_sig sut_sig =
  let hist_diff n h1 h2 =
    let rec at i = function
      | [], [] -> None
      | v :: _, [] ->
        Some
          (Printf.sprintf "write %d: reference has %s, SUT history ends" i
             (Value.to_string v))
      | [], v :: _ ->
        Some
          (Printf.sprintf "write %d: reference ends, SUT has %s" i
             (Value.to_string v))
      | v1 :: r1, v2 :: r2 ->
        if Value.equal v1 v2 then at (i + 1) (r1, r2)
        else
          Some
            (Printf.sprintf "write %d: %s vs %s" i (Value.to_string v1)
               (Value.to_string v2))
    in
    Option.map (fun d -> (Some n, d)) (at 1 (h1, h2))
  in
  let rec loop = function
    | [], [] -> None
    | (n, _) :: _, [] -> Some (Some n, "channel missing from the SUT run")
    | [], (n, _) :: _ -> Some (Some n, "extra channel in the SUT run")
    | (n1, h1) :: r1, (n2, h2) :: r2 ->
      let c = String.compare n1 n2 in
      if c < 0 then Some (Some n1, "channel missing from the SUT run")
      else if c > 0 then Some (Some n2, "extra channel in the SUT run")
      else (
        match hist_diff n1 h1 h2 with
        | Some d -> Some d
        | None -> loop (r1, r2))
  in
  loop (ref_sig, sut_sig)

let scale = Rat.make 1 25

let check case =
  match sut_spec case with
  | None -> Skip "sabotage target does not exist"
  | Some sut -> (
    match (Randgen.build case.spec, Randgen.build sut) with
    | Error e, _ -> Skip ("reference build: " ^ e)
    | _, Error e -> Skip ("SUT build: " ^ e)
    | Ok net_ref, Ok net_sut -> (
      let wcet net = Randgen.wcet ~scale (Derive.const_wcet Rat.one) net in
      match
        (Derive.derive ~wcet:(wcet net_ref) net_ref,
         Derive.derive ~wcet:(wcet net_sut) net_sut)
      with
      | Error e, _ | _, Error e ->
        Skip (Format.asprintf "derivation: %a" Derive.pp_error e)
      | Ok d_ref, Ok d_sut ->
        let horizon =
          Rat.mul d_ref.Derive.hyperperiod (Rat.of_int case.frames)
        in
        let traces =
          let random =
            Randgen.random_traces ~seed:case.trace_seed ~horizon ~density:0.5
              net_ref
          in
          if case.boundary_snap then
            Adversary.merge_traces net_ref random
              (Adversary.boundary_traces net_ref d_ref ~frames:case.frames
                 ~seed:case.trace_seed)
          else random
        in
        (* Drop events beyond the reference's simulated windows so every
           executor sees the same event set.  The SUT's own windows may
           legitimately differ under sabotage — that is the bug being
           hunted, and it shows up as a history divergence. *)
        let traces =
          Engine.handled_traces net_ref d_ref ~frames:case.frames traces
        in
        let zd =
          Semantics.run net_ref
            (Semantics.invocations ~sporadic:traces ~horizon net_ref)
        in
        let ref_sig = Semantics.signature zd in
        let comparisons = ref 0 in
        let fail = ref None in
        let running = fun () -> !fail = None in
        let record executor channel detail =
          fail := Some { executor; channel; detail }
        in
        let compare_sig executor sut_sig =
          incr comparisons;
          match first_diff ref_sig sut_sig with
          | None -> ()
          | Some (channel, detail) -> record executor channel detail
        in
        let guarded executor f =
          if running () then
            try f ()
            with e ->
              record executor None ("executor crashed: " ^ Printexc.to_string e)
        in
        (* adversarially permuted zero-delay runs on the SUT network *)
        let base_invs =
          try Semantics.invocations ~sporadic:traces ~horizon net_sut
          with Invalid_argument m ->
            record "zero-delay invocations" None m;
            []
        in
        for k = 1 to case.permutations do
          let label = Printf.sprintf "zero-delay permutation %d" k in
          guarded label (fun () ->
              let prng = Prng.create (case.trace_seed + (7919 * k)) in
              let permuted = Adversary.permute_simultaneous prng base_invs in
              compare_sig label (Semantics.signature (Semantics.run net_sut permuted)))
        done;
        (* engine across processor counts × jitter seeds, + TA backend *)
        let feasible = ref 0 in
        List.iter
          (fun m ->
            if running () then
              match snd (List_scheduler.auto ~n_procs:m d_sut.Derive.graph) with
              | None -> ()
              | Some a ->
                incr feasible;
                let sched = a.List_scheduler.schedule in
                let config exec =
                  { (Engine.default_config ~frames:case.frames ~n_procs:m ()) with
                    Engine.sporadic = traces;
                    exec }
                in
                List.iter
                  (fun js ->
                    let label = Printf.sprintf "engine M=%d jitter-seed=%d" m js in
                    guarded label (fun () ->
                        let rt =
                          Engine.run net_sut d_sut sched
                            (config (Exec_time.uniform ~seed:js ~min_fraction:0.25))
                        in
                        compare_sig label (Engine.signature rt);
                        if running () then begin
                          incr comparisons;
                          match Exec_trace.check d_sut.Derive.graph (Engine.trace rt) with
                          | [] -> ()
                          | vs ->
                            record
                              (Printf.sprintf "trace compliance M=%d jitter-seed=%d"
                                 m js)
                              None
                              (Format.asprintf "%d violation(s), first: %a"
                                 (List.length vs) Exec_trace.pp_violation
                                 (List.hd vs))
                        end))
                  case.jitter_seeds;
                let label = Printf.sprintf "timed-automata M=%d" m in
                guarded label (fun () ->
                    let ta =
                      Translate.execute
                        (Translate.build net_sut d_sut sched
                           (config
                              (Exec_time.uniform ~seed:case.trace_seed
                                 ~min_fraction:0.25)))
                    in
                    compare_sig label (Translate.signature ta)))
          case.proc_counts;
        (match !fail with
        | Some d -> Fail d
        | None ->
          if !feasible = 0 && case.proc_counts <> [] then
            Skip "no feasible schedule on any requested processor count"
          else Pass { comparisons = !comparisons })))
