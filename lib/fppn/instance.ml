(* Locals live in two parallel arrays scanned linearly: processes
   declare a handful of variables at most, and the scan beats hashing
   the name on every [get]/[set] of the job hot path. *)
type t = {
  proc : Process.t;
  l_names : string array;
  l_vals : Value.t array;
  mutable count : int;
}

let rec local_scan names x i n =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) x then i
  else local_scan names x (i + 1) n

(* duplicate declarations collapse to one slot, last value winning —
   the same observable behaviour as the hash table this replaces *)
let distinct_names decls =
  List.fold_left
    (fun acc (x, _) -> if List.mem x acc then acc else x :: acc)
    [] decls
  |> List.rev |> Array.of_list

let load_locals t =
  List.iter
    (fun (x, v) ->
      let i = local_scan t.l_names x 0 (Array.length t.l_names) in
      t.l_vals.(i) <- v)
    t.proc.Process.locals

let create proc =
  let names = distinct_names proc.Process.locals in
  let t =
    { proc; l_names = names; l_vals = Array.make (Array.length names) Value.Absent;
      count = 0 }
  in
  load_locals t;
  t

let process t = t.proc
let job_count t = t.count

let get t x =
  let i = local_scan t.l_names x 0 (Array.length t.l_names) in
  if i < 0 then raise Not_found else t.l_vals.(i)

let undeclared proc x =
  invalid_arg
    (Printf.sprintf "process %s: undeclared variable %S" (Process.name proc) x)

let run_job t ~now ~read ~write =
  let k = t.count + 1 in
  let lookup x =
    let i = local_scan t.l_names x 0 (Array.length t.l_names) in
    if i < 0 then undeclared t.proc x else t.l_vals.(i)
  in
  let assign x v =
    let i = local_scan t.l_names x 0 (Array.length t.l_names) in
    if i < 0 then undeclared t.proc x else t.l_vals.(i) <- v
  in
  (match t.proc.Process.behavior with
  | Process.Native body ->
    body
      {
        Process.job_index = k;
        now;
        read;
        write;
        get = lookup;
        set = assign;
      }
  | Process.Automaton a ->
    let env =
      { Automaton.lookup; assign; read_channel = read; write_channel = write }
    in
    ignore (Automaton.run_job a env));
  t.count <- k

(* The shared-context job path: the caller owns one preallocated
   context (and automaton environment) for all its instances, whose
   [get]/[set] resolve through {!lookup}/{!assign} against whichever
   instance is running, and rebinds it per invocation instead of
   rebuilding closures and a context record per job. *)
let lookup t x =
  let i = local_scan t.l_names x 0 (Array.length t.l_names) in
  if i < 0 then undeclared t.proc x else Array.unsafe_get t.l_vals i

let assign t x v =
  let i = local_scan t.l_names x 0 (Array.length t.l_names) in
  if i < 0 then undeclared t.proc x else Array.unsafe_set t.l_vals i v

let run_with t ~ctx ~env ~now =
  let k = t.count + 1 in
  (match t.proc.Process.behavior with
  | Process.Native body ->
    ctx.Process.job_index <- k;
    ctx.Process.now <- now;
    body ctx
  | Process.Automaton a -> ignore (Automaton.run_job a env));
  t.count <- k

let skip_job t = t.count <- t.count + 1

let reset t =
  load_locals t;
  t.count <- 0
