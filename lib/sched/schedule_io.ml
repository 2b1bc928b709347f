module Rat = Rt_util.Rat
module Graph = Taskgraph.Graph
module Job = Taskgraph.Job

let to_string ?graph s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "fppn-schedule v1\n";
  Buffer.add_string buf (Printf.sprintf "procs %d\n" (Static_schedule.n_procs s));
  Buffer.add_string buf (Printf.sprintf "jobs %d\n" (Static_schedule.n_jobs s));
  for i = 0 to Static_schedule.n_jobs s - 1 do
    let label =
      match graph with
      | Some g -> Printf.sprintf "  # %s" (Job.label (Graph.job g i))
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%d %d %s%s\n" i (Static_schedule.proc s i)
         (Rat.to_string (Static_schedule.start s i))
         label)
  done;
  Buffer.contents buf

let of_string text =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let lines =
    List.filteri (fun _ l -> String.trim l <> "")
      (List.map strip_comment (String.split_on_char '\n' text))
    |> List.map String.trim
  in
  match lines with
  | header :: rest when String.trim header = "fppn-schedule v1" -> (
    let parse_kv key line =
      match String.split_on_char ' ' line with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None
    in
    match rest with
    | procs_line :: jobs_line :: entries -> (
      match (parse_kv "procs" procs_line, parse_kv "jobs" jobs_line) with
      | Some n_procs, Some n_jobs -> (
        if List.length entries <> n_jobs then
          Error
            (Printf.sprintf "expected %d entries, found %d" n_jobs
               (List.length entries))
        else
          let table =
            Array.make n_jobs { Static_schedule.proc = 0; start = Rat.zero }
          in
          let seen = Array.make n_jobs false in
          let parse_entry line =
            match
              List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
            with
            | [ id; proc; start ] -> (
              match (int_of_string_opt id, int_of_string_opt proc) with
              | Some id, Some proc when id >= 0 && id < n_jobs -> (
                try
                  table.(id) <-
                    { Static_schedule.proc; start = Rat.of_string start };
                  seen.(id) <- true;
                  Ok ()
                with Invalid_argument msg -> Error msg)
              | _ -> Error (Printf.sprintf "bad entry %S" line))
            | _ -> Error (Printf.sprintf "bad entry %S" line)
          in
          let rec parse_all = function
            | [] -> Ok ()
            | l :: rest -> (
              match parse_entry l with Ok () -> parse_all rest | Error e -> Error e)
          in
          match parse_all entries with
          | Error e -> Error e
          | Ok () ->
            if Array.for_all Fun.id seen then
              try Ok (Static_schedule.make ~n_procs table)
              with Invalid_argument msg -> Error msg
            else Error "some job ids are missing")
      | _ -> Error "malformed procs/jobs header")
    | _ -> Error "truncated header")
  | _ -> Error "not an fppn-schedule v1 file"

let save ?graph path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?graph s))

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let matches g s = Static_schedule.n_jobs s = Graph.n_jobs g

(* Multi-application co-schedules: JSON sections. *)

module Json = Rt_util.Json

type section = {
  sec_name : string;
  sec_priority : int;
  sec_slots : int list;
  sec_schedule : Static_schedule.t;
}

let cosched_schema = "fppn-cosched/1"

let section_to_json s =
  let n = Static_schedule.n_jobs s.sec_schedule in
  Json.Obj
    [
      ("name", Json.Str s.sec_name);
      ("priority", Json.Int s.sec_priority);
      ("slots", Json.Arr (List.map (fun p -> Json.Int p) s.sec_slots));
      ("jobs", Json.Int n);
      ( "entries",
        Json.Arr
          (List.init n (fun i ->
               let start = Static_schedule.start s.sec_schedule i in
               Json.Obj
                 [
                   ("id", Json.Int i);
                   ("proc", Json.Int (Static_schedule.proc s.sec_schedule i));
                   ("start", Json.Str (Rat.to_string start));
                   ("start_ms", Json.Float (Rat.to_float start));
                 ])) );
    ]

let sections_to_json ~variant ~n_procs sections =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str cosched_schema);
         ("variant", Json.Str variant);
         ("procs", Json.Int n_procs);
         ("apps", Json.Arr (List.map section_to_json sections));
       ])

exception Bad of string

let sections_of_json text =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let str field j =
    match Option.bind (Json.member field j) Json.as_string with
    | Some s -> s
    | None -> fail "missing string field %S" field
  in
  let int field j =
    match Option.bind (Json.member field j) Json.as_int with
    | Some i -> i
    | None -> fail "missing integer field %S" field
  in
  let list field j =
    match Option.bind (Json.member field j) Json.as_list with
    | Some l -> l
    | None -> fail "missing array field %S" field
  in
  let section_of ~n_procs j =
    let n_jobs = int "jobs" j in
    let entries = list "entries" j in
    if List.length entries <> n_jobs then
      fail "app %S: expected %d entries, found %d" (str "name" j) n_jobs
        (List.length entries);
    let table =
      Array.make (max n_jobs 1) { Static_schedule.proc = 0; start = Rat.zero }
    in
    let seen = Array.make (max n_jobs 1) false in
    List.iter
      (fun e ->
        let id = int "id" e in
        if id < 0 || id >= n_jobs then fail "entry id %d out of range" id;
        let start =
          try Rat.of_string (str "start" e)
          with Invalid_argument m -> fail "entry %d: %s" id m
        in
        table.(id) <- { Static_schedule.proc = int "proc" e; start };
        seen.(id) <- true)
      entries;
    if n_jobs = 0 || not (Array.for_all Fun.id seen) then
      fail "app %S: some job ids are missing" (str "name" j);
    let sec_schedule =
      try Static_schedule.make ~n_procs table
      with Invalid_argument m -> fail "app %S: %s" (str "name" j) m
    in
    {
      sec_name = str "name" j;
      sec_priority = int "priority" j;
      sec_slots =
        List.map
          (fun s ->
            match Json.as_int s with
            | Some p -> p
            | None -> fail "non-integer slot")
          (list "slots" j);
      sec_schedule;
    }
  in
  match Json.parse text with
  | exception Json.Malformed m -> Error m
  | json -> (
    try
      if str "schema" json <> cosched_schema then
        fail "not a %s document" cosched_schema;
      let n_procs = int "procs" json in
      let sections = List.map (section_of ~n_procs) (list "apps" json) in
      Ok (str "variant" json, n_procs, sections)
    with Bad m -> Error m)

let save_sections ~variant ~n_procs path sections =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (sections_to_json ~variant ~n_procs sections))
