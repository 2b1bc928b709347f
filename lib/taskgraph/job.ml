module Rat = Rt_util.Rat

type t = {
  id : int;
  proc : int;
  proc_name : string;
  k : int;
  arrival : Rat.t;
  deadline : Rat.t;
  wcet : Rat.t;
  is_server : bool;
}

let label j = Printf.sprintf "%s[%d]" j.proc_name j.k

let pp ppf j =
  Format.fprintf ppf "%s (%a,%a,%a)" (label j) Rat.pp j.arrival Rat.pp
    j.deadline Rat.pp j.wcet
