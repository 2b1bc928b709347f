(* Benchmark and experiment harness.

   Without --json, prints the paper-reproduction report (Report): every
   quantitative artefact of the paper's evaluation, the determinism
   checks and the ablations.  With --json FILE, runs the perf-regression
   harness (Perf) and writes FILE; --gate BASELINE then compares it
   against a baseline (see EXPERIMENTS.md, "Performance"). *)

module Pool = Rt_util.Pool

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--json FILE [--smoke] [--gate BASELINE]]\n\
     \  --jobs N        worker domains for parallel sections/sweeps, honoured\n\
     \                  past the recommended domain count (the default)\n\
     \  --json FILE     run the perf-regression harness and write FILE\n\
     \  --smoke         tiny budgets / single repetition (with --json)\n\
     \  --gate BASELINE after --json, fail if any stage regressed more\n\
     \                  than 20% against the BASELINE json, or if a\n\
     \                  baseline stage is missing";
  exit 2

let () =
  let jobs = ref (Pool.default_jobs ()) in
  let json_out = ref None in
  let smoke = ref false in
  let gate = ref None in
  let argc = Array.length Sys.argv in
  let rec parse i =
    if i < argc then
      match Sys.argv.(i) with
      | "--jobs" when i + 1 < argc ->
        (match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse (i + 2)
      | "--json" when i + 1 < argc ->
        json_out := Some Sys.argv.(i + 1);
        parse (i + 2)
      | "--smoke" ->
        smoke := true;
        parse (i + 1)
      | "--gate" when i + 1 < argc ->
        gate := Some Sys.argv.(i + 1);
        parse (i + 2)
      | _ -> usage ()
  in
  parse 1;
  (* --smoke and --gate only mean something to the perf harness *)
  if !json_out = None && (!smoke || !gate <> None) then usage ();
  Pool.with_pool ~jobs:!jobs (fun pool ->
      match !json_out with
      | Some path -> Perf.run ~pool ~smoke:!smoke ?gate:!gate path
      | None -> Report.run_experiments pool)
