type t = { den : int; int_cap : int (* [magnitude_cap / den] *) }

exception Inexact

(* The engine adds tick values along a run (durations accumulate toward
   the horizon, deadlines sit one relative deadline past it).  Capping
   magnitudes well below [max_int] keeps every such sum exact without
   per-addition checks. *)
let magnitude_cap = 1 lsl 55

let checked_mul a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    if p / b = a && Stdlib.abs p < magnitude_cap then Some p else None

let create ?horizon times =
  let rec fold acc = function
    | [] -> Some acc
    | r :: rest ->
      let d = Rat.den r in
      let g = Rat.gcd_int acc d in
      (match checked_mul (acc / g) d with
      | Some l -> fold l rest
      | None -> None)
  in
  match fold 1 times with
  | None -> None
  | Some den -> (
    let t = { den; int_cap = magnitude_cap / den } in
    match horizon with
    | None -> Some t
    | Some h ->
      (* the horizon must fit with headroom left for deadlines and
         overheads stacked on top of it *)
      if den mod Rat.den h <> 0 then None
      else (
        match checked_mul (Rat.num h) (den / Rat.den h) with
        | Some _ -> Some t
        | None -> None))

let den t = t.den

let ticks t r =
  let d = Rat.den r and n = Rat.num r in
  (* integers below [magnitude_cap / den], the common case, need
     neither a division nor an overflow check *)
  if d = 1 && Stdlib.abs n < t.int_cap then n * t.den
  else if t.den mod d <> 0 then raise Inexact
  else
    match checked_mul n (t.den / d) with
    | Some n -> n
    | None -> raise Rat.Overflow

let ticks_opt t r =
  match ticks t r with
  | n -> Some n
  | exception (Inexact | Rat.Overflow) -> None

let of_ticks t n = if t.den = 1 then Rat.of_int n else Rat.make n t.den

let representable t r = ticks_opt t r <> None
