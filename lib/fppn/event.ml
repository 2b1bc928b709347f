module Rat = Rt_util.Rat
module Prng = Rt_util.Prng

type kind = Periodic | Sporadic

type t = { kind : kind; burst : int; period : Rat.t; deadline : Rat.t }

let validate ~burst ~period ~deadline =
  if burst < 1 then invalid_arg "Event: burst must be >= 1";
  if Rat.sign period <= 0 then invalid_arg "Event: period must be positive";
  if Rat.sign deadline <= 0 then invalid_arg "Event: deadline must be positive"

let periodic ?(burst = 1) ~period ~deadline () =
  validate ~burst ~period ~deadline;
  { kind = Periodic; burst; period; deadline }

let sporadic ?(burst = 1) ~min_period ~deadline () =
  validate ~burst ~period:min_period ~deadline;
  { kind = Sporadic; burst; period = min_period; deadline }

let is_sporadic t = t.kind = Sporadic

let pp ppf t =
  match t.kind with
  | Periodic ->
    if t.burst = 1 then Format.fprintf ppf "periodic %ams" Rat.pp t.period
    else Format.fprintf ppf "%d-periodic per %ams" t.burst Rat.pp t.period
  | Sporadic -> Format.fprintf ppf "sporadic %d per %ams" t.burst Rat.pp t.period

let periodic_invocations t ~horizon =
  if is_sporadic t then
    invalid_arg "Event.periodic_invocations: sporadic generator";
  let rec times time acc =
    if Rat.(time >= horizon) then List.rev acc
    else times (Rat.add time t.period) (time :: acc)
  in
  List.concat_map
    (fun time -> List.init t.burst (fun _ -> time))
    (times Rat.zero [])

let count_periodic_jobs t ~horizon =
  let periods = Rat.ceil (Rat.div horizon t.period) in
  t.burst * periods

(* In an ascending trace, the window (s_i - T, s_i] ending at the i-th
   stamp holds more than m stamps iff it holds s_(i-m), i.e. iff
   s_(i-m) + T > s_i.  Windows anchored at stamps suffice because a
   maximal violating window can always be slid right until its right
   edge hits a stamp; so one pass decides the whole trace, with a
   second cursor trailing m stamps behind. *)
let is_valid_sporadic_trace t stamps =
  let rec ordered prev = function
    | [] -> true
    | s :: rest -> Rat.(prev <= s) && ordered s rest
  in
  let rec windows trail lead =
    match (trail, lead) with
    | old :: trail, s :: lead -> Rat.(add old t.period <= s) && windows trail lead
    | _, [] | [], _ -> true
  in
  let rec drop k l =
    if k = 0 then Some l
    else match l with [] -> None | _ :: l -> drop (k - 1) l
  in
  (match stamps with
  | [] -> true
  | first :: _ -> Rat.sign first >= 0 && ordered first stamps)
  &&
  match drop t.burst stamps with
  | None -> true
  | Some lead -> windows stamps lead

let random_sporadic_trace t prng ~horizon ~density =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Event.random_sporadic_trace: density must be in [0,1]";
  (* Draw candidate stamps on a 1 ms grid left to right; accept each
     candidate only if it keeps the window constraint.  The expected
     rate is density * (m/T). *)
  let horizon_ms = Rat.floor horizon in
  let period_f = Rat.to_float t.period in
  let p_event = density *. float_of_int t.burst /. period_f in
  (* the last [m_e] accepted stamps in a ring: a candidate keeps the
     trace valid iff fewer than [m_e] were accepted so far or the
     [m_e]-th most recent one lies outside the window ending at it *)
  let accepted = ref [] in
  let recent = Array.make t.burst 0 in
  let n_acc = ref 0 in
  for ms = 0 to horizon_ms - 1 do
    if Prng.float prng 1.0 < p_event then begin
      let stamp = Rat.of_int ms in
      let slot = !n_acc mod t.burst in
      if
        !n_acc < t.burst
        || Rat.(of_int recent.(slot) <= sub stamp t.period)
      then begin
        accepted := stamp :: !accepted;
        recent.(slot) <- ms;
        incr n_acc
      end
    end
  done;
  let stamps = List.rev !accepted in
  assert (is_valid_sporadic_trace t stamps);
  stamps
