(* Seeded fault injector. The randomness is a private SplitMix64 stream
   (same idiom as the PIL byte-fault model) advanced only when a random
   fault actually samples it, so runs with the same seed replay exactly. *)

let c_sensor = Obs.counter "fault.sensor_perturbations"
let c_actuator = Obs.counter "fault.actuator_perturbations"
let c_overrun = Obs.counter "fault.injected_overrun_periods"
let c_wdog = Obs.counter "fault.wdog_clears_suppressed"

type t = {
  scn : Fault_scenario.t;
  sd : int;
  rng : int64 ref;
  last : (int, int) Hashtbl.t;  (* slot -> last clean code, for stuck *)
  (* The scenario-ordered sublist of faults active at [memo_time]. A
     step queries the injector several times at one instant (sensor,
     duty, overrun, watchdog), so the window scan runs once per new
     query time. *)
  mutable memo_time : float;
  mutable memo_active : Fault.t list;
}

let arm ?(seed = 1) scn =
  if Flight.enabled () then
    Flight.fault ~time:0.0 ~fired:false
      (Printf.sprintf "arm %s seed=%d" scn.Fault_scenario.sname seed);
  {
    scn;
    sd = seed;
    rng = ref (Int64.of_int (0x5DEECE66D + (seed * 0x9E3779B9)));
    last = Hashtbl.create 4;
    memo_time = nan;  (* nan equals nothing: the first query computes *)
    memo_active = [];
  }

let scenario t = t.scn
let seed t = t.sd

let next t =
  t.rng := Int64.add !(t.rng) 0x9E3779B97F4A7C15L;
  let z = !(t.rng) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform01 t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(* uniform integer in [-n, n] *)
let rand_pm t n =
  if n <= 0 then 0
  else int_of_float (uniform01 t *. float_of_int ((2 * n) + 1)) - n

(* [List.filter] preserves scenario order, so folding the memoised
   sublist applies faults — and advances the RNG — in scenario order. *)
let fold_active t ~time f init =
  if time <> t.memo_time then begin
    let prev = t.memo_active in
    t.memo_active <-
      List.filter (fun fl -> Fault.active fl ~time) t.scn.Fault_scenario.faults;
    t.memo_time <- time;
    (* fire/clear transitions are the active-set edges; [!=] skips the
       scan while nothing is active *)
    if Flight.enabled () && t.memo_active != prev then begin
      List.iter
        (fun fl ->
          if not (List.memq fl prev) then
            Flight.fault ~time ~fired:true (Fault.name fl))
        t.memo_active;
      List.iter
        (fun fl ->
          if not (List.memq fl t.memo_active) then
            Flight.fault ~time ~fired:false (Fault.name fl))
        prev
    end
  end;
  List.fold_left f init t.memo_active

let sensor t ~slot ~time v =
  let stuck = ref false in
  let out =
    fold_active t ~time
      (fun v fl ->
        if fl.Fault.slot <> slot then v
        else
          match fl.Fault.kind with
          | Fault.Sensor_stuck ->
              stuck := true;
              Obs.add c_sensor 1;
              (match Hashtbl.find_opt t.last slot with Some p -> p | None -> v)
          | Fault.Sensor_dropout ->
              Obs.add c_sensor 1;
              0
          | Fault.Sensor_offset d ->
              Obs.add c_sensor 1;
              v + d
          | Fault.Sensor_noise a ->
              Obs.add c_sensor 1;
              v + rand_pm t a
          | Fault.Encoder_glitch a ->
              if uniform01 t < 0.2 then begin
                Obs.add c_sensor 1;
                v + rand_pm t a
              end
              else v
          | _ -> v)
      v
  in
  if not !stuck then Hashtbl.replace t.last slot out;
  out

let duty t ~time u =
  fold_active t ~time
    (fun u fl ->
      match fl.Fault.kind with
      | Fault.Actuator_jam x ->
          Obs.add c_actuator 1;
          x
      | Fault.Actuator_saturation c ->
          let clamped = if u > c then c else if u < -.c then -.c else u in
          if clamped <> u then Obs.add c_actuator 1;
          clamped
      | _ -> u)
    u

let overrun_cycles t ~time =
  let n =
    fold_active t ~time
      (fun acc fl ->
        match fl.Fault.kind with Fault.Overrun c -> acc + c | _ -> acc)
      0
  in
  if n > 0 then Obs.add c_overrun 1;
  n

let wdog_suppressed t ~time =
  let s =
    fold_active t ~time
      (fun acc fl ->
        match fl.Fault.kind with Fault.Wdog_suppress -> true | _ -> acc)
      false
  in
  if s then Obs.add c_wdog 1;
  s

let active_names t ~time = Fault_scenario.active_names t.scn ~time
