(* Host facts printed with every result, so a run on another machine, a
   throttled CPU or a narrower cgroup is visible as such, and a fixed
   in-process calibration kernel whose time moves with the host and not
   with the program under test. *)

(* /proc and /sys files report length 0, so read them line by line *)
let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error _ -> []

let read_file path =
  match read_lines path with
  | [] -> None
  | lines -> Some (String.trim (String.concat " " lines))

let cpuinfo = lazy (read_lines "/proc/cpuinfo")

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt
      (fun l -> String.length l > String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      (Lazy.force cpuinfo)
  with
  | None -> "unknown"
  | Some l -> (
    match String.index_opt l ':' with
    | None -> "unknown"
    | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))

let cpuinfo_processors () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (Lazy.force cpuinfo))

let cgroup_quota () =
  match read_file "/sys/fs/cgroup/cpu.max" with
  | Some s -> s
  | None -> (
    match
      ( read_file "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
        read_file "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
    with
    | Some q, Some p -> q ^ " " ^ p
    | _ -> "none")

(* Integer mixing over a 64 KiB table: a fixed amount of ALU and L1/L2
   work that no library code touches.  One call takes about a
   millisecond. *)
let table = Array.init 8192 (fun i -> (i * 2654435761) land 0xffff)

let calibrate () =
  let t0 = Fppn_obs.Trace.now_ns () in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let j = (!acc lxor i) land 8191 in
    acc := (!acc * 31) + table.(j);
    table.(j) <- !acc land 0xffff
  done;
  let dt = Fppn_obs.Trace.now_ns () - t0 in
  (* keep the result observable so the loop cannot be dropped *)
  if !acc = min_int then prerr_endline "calibration checksum hit min_int";
  float_of_int dt /. 1e6

(* [calibration]: every kernel time of the run, in ms. *)
let facts calibration =
  let open Rt_util.Json in
  Obj
    [
      ("cpu_model", Str (cpu_model ()));
      ("nproc", Int (cpuinfo_processors ()));
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("pool_domains", Int (Rt_util.Pool.recommended_domains ()));
      ("cgroup_cpu_quota", Str (cgroup_quota ()));
      ("ocaml_version", Str Sys.ocaml_version);
      ("word_size", Int Sys.word_size);
      ("calibration_ms", Float (Stats.median calibration));
      ("calibration_p10_ms", Float (Stats.quantile calibration 0.1));
      ("calibration_p90_ms", Float (Stats.quantile calibration 0.9));
      ("calibration_samples", Int (Array.length calibration));
    ]
