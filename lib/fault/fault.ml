(* Fault models for robustness campaigns: what can go wrong between the
   controller and the physical world, each with a deterministic schedule
   (onset, duration, optional recurrence) so a seeded campaign replays
   exactly. Byte-level communication faults delegate to Comm.Faulty. *)

type kind =
  | Sensor_stuck
  | Sensor_offset of int
  | Sensor_noise of int
  | Sensor_dropout
  | Encoder_glitch of int
  | Actuator_saturation of float
  | Actuator_jam of float
  | Load_torque of float
  | Overrun of int
  | Wdog_suppress
  | Comm of Faulty.config

type t = {
  kind : kind;
  slot : int;
  at : float;
  duration : float;
  every : float option;
}

let kind_value = function
  | Actuator_saturation x | Actuator_jam x | Load_torque x -> Some x
  | Comm c -> Some c.Faulty.corrupt_rate
  | _ -> None

let make ?(slot = 0) ?every ~at ~duration kind =
  let finite what x =
    if not (Float.is_finite x) then
      invalid_arg (Printf.sprintf "Fault.make: non-finite %s %g" what x)
  in
  finite "onset" at;
  finite "duration" duration;
  Option.iter (finite "period") every;
  Option.iter (finite "value") (kind_value kind);
  if at < 0.0 then invalid_arg "Fault.make: onset before time zero";
  if duration <= 0.0 then invalid_arg "Fault.make: non-positive duration";
  (match every with
  | Some p when p <= 0.0 -> invalid_arg "Fault.make: non-positive period"
  | Some p when p < duration ->
      invalid_arg "Fault.make: recurrence period shorter than the window"
  | _ -> ());
  { kind; slot; at; duration; every }

let active f ~time =
  time >= f.at
  &&
  match f.every with
  | None -> time < f.at +. f.duration
  | Some p -> Float.rem (time -. f.at) p < f.duration

(* The window edges below are the exact float expressions [active]
   compares against, so a cached activity decision is valid for every
   [time'] in [time, next_transition) — no rounding slack. Periodic
   faults answer [time] ("revalidate at every new instant"): deriving
   their next edge needs arithmetic that can land one ulp off the
   [Float.rem] the predicate uses, and a one-step-late fault arming is
   exactly the kind of silent semantic drift campaigns must not have. *)
let next_transition f ~time =
  match f.every with
  | Some _ -> time
  | None ->
      if time < f.at then f.at
      else if time < f.at +. f.duration then f.at +. f.duration
      else infinity

let kind_name = function
  | Sensor_stuck -> "sensor-stuck"
  | Sensor_offset n -> Printf.sprintf "sensor-offset(%+d)" n
  | Sensor_noise n -> Printf.sprintf "sensor-noise(+-%d)" n
  | Sensor_dropout -> "sensor-dropout"
  | Encoder_glitch n -> Printf.sprintf "encoder-glitch(+-%d)" n
  | Actuator_saturation x -> Printf.sprintf "actuator-saturation(%g)" x
  | Actuator_jam x -> Printf.sprintf "actuator-jam(%g)" x
  | Load_torque x -> Printf.sprintf "load-torque(%g N.m)" x
  | Overrun n -> Printf.sprintf "overrun(+%d cycles)" n
  | Wdog_suppress -> "wdog-suppress"
  | Comm c -> Printf.sprintf "comm(corrupt=%g)" c.Faulty.corrupt_rate

let is_sensor = function
  | Sensor_stuck | Sensor_offset _ | Sensor_noise _ | Sensor_dropout
  | Encoder_glitch _ ->
      true
  | _ -> false

let is_actuator = function
  | Actuator_saturation _ | Actuator_jam _ -> true
  | _ -> false

let name f =
  let window =
    match f.every with
    | None -> Printf.sprintf "[%g,%g)" f.at (f.at +. f.duration)
    | Some p -> Printf.sprintf "[%g,+%g) every %g" f.at f.duration p
  in
  if is_sensor f.kind then
    Printf.sprintf "%s@%d %s" (kind_name f.kind) f.slot window
  else Printf.sprintf "%s %s" (kind_name f.kind) window

let onset f = f.at

let clear_time f ~horizon =
  match f.every with
  | None -> Float.min horizon (f.at +. f.duration)
  | Some _ -> horizon
