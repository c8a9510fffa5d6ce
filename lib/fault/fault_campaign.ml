(* Campaign runner: per-seed faulted runs of a MIL closed loop with a
   virtual MCU + watchdog alongside, reduced to recovery metrics. *)

type ports = {
  sensor_ports : (Model.blk * int) array;
  duty_port : (Model.blk * int) option;
  mode_port : Model.blk * int;
  speed_port : Model.blk * int;
  setpoint_port : (Model.blk * int) option;
}

type subject = { sim : Sim.t; ports : ports; mcu : Mcu_db.t }

type run_result = {
  seed : int;
  detected : bool;
  detection_s : float option;
  recovered : bool;
  recovery_s : float option;
  steps_degraded : int;
  steps_safestop : int;
  max_mode : int;
  residual_rms : float;
  wdog_bites : int;
}

type result = {
  scenario : Fault_scenario.t;
  t_end : float;
  period : float;
  runs : run_result list;
  failures : (int * Supervise.error) list;
      (* supervised mode: seeds whose run ended in an error record
         instead of metrics, sorted by seed *)
  retries_total : int;
  steps_per_run : int;
  wall_s : float;
}

(* The injector sits on the two boundary ports it perturbs: each
   sensor slot's raw code and the commanded duty. *)
let arm subject ?seed scn =
  let inj = Fault_inject.arm ?seed scn in
  if scn.Fault_scenario.faults <> [] then begin
    Array.iteri
      (fun slot port ->
        Sim.perturb_output subject.sim port
          (Some
             (fun time v ->
               match v with
               | Value.I (dt, c) ->
                   Value.of_int dt (Fault_inject.sensor inj ~slot ~time c)
               | v -> v)))
      subject.ports.sensor_ports;
    Option.iter
      (fun port ->
        Sim.perturb_output subject.sim port
          (Some
             (fun time v ->
               match v with
               | Value.F u -> Value.F (Fault_inject.duty inj ~time u)
               | v -> v)))
      subject.ports.duty_port
  end;
  inj

let disarm subject =
  Array.iter
    (fun port -> Sim.perturb_output subject.sim port None)
    subject.ports.sensor_ports;
  Option.iter
    (fun port -> Sim.perturb_output subject.sim port None)
    subject.ports.duty_port

let one_run subject ~scenario ~seed ~steps ~period ~t_end ~wdog_timeout =
  Sim.reset subject.sim;
  (* the seed is the forensic track id: whichever domain executes this
     run, its events and any failure capture belong to the seed *)
  Flight.begin_track ~id:seed ~name:scenario.Fault_scenario.sname;
  let inj = arm subject ~seed scenario in
  let machine = Machine.create subject.mcu in
  let wdog = Wdog_periph.create machine ~timeout:wdog_timeout () in
  Wdog_periph.enable wdog;
  let period_cycles = Machine.cycles_of_time machine period in
  let modes = Array.make steps 0 in
  let err = Array.make steps 0.0 in
  for k = 0 to steps - 1 do
    (* supervision fuel point (Sim.step polls too; this one covers the
       MCU/watchdog half of the loop) *)
    Cancel.poll ();
    let time = Sim.time subject.sim in
    Sim.step subject.sim;
    (* the virtual MCU lives the same period, stretched by any injected
       overrun; the watchdog is serviced at the end of the step unless
       the scenario eats the service call *)
    let extra = Fault_inject.overrun_cycles inj ~time in
    Machine.advance machine ~cycles:(period_cycles + extra);
    if not (Fault_inject.wdog_suppressed inj ~time) then
      Wdog_periph.refresh wdog;
    modes.(k) <-
      int_of_float (Value.to_float (Sim.value subject.sim subject.ports.mode_port));
    let speed = Value.to_float (Sim.value subject.sim subject.ports.speed_port) in
    let sp =
      match subject.ports.setpoint_port with
      | Some p -> Value.to_float (Sim.value subject.sim p)
      | None -> 0.0
    in
    err.(k) <- speed -. sp
  done;
  disarm subject;
  let onset = Fault_scenario.onset scenario in
  let clear = Fault_scenario.clear_time scenario ~horizon:t_end in
  let onset_step = int_of_float (onset /. period) in
  let detection_s =
    let rec find k =
      if k >= steps then None
      else if modes.(k) > 0 then
        Some (Float.max 0.0 ((float_of_int k *. period) -. onset))
      else find (k + 1)
    in
    find (max 0 onset_step)
  in
  let wdog_bites = Wdog_periph.bites wdog in
  let last_nz = ref (-1) in
  Array.iteri (fun k m -> if m > 0 then last_nz := k) modes;
  let recovered, recovery_s =
    if !last_nz < 0 then (true, Some 0.0)
    else if !last_nz = steps - 1 then (false, None)
    else
      ( true,
        Some
          (Float.max 0.0 ((float_of_int (!last_nz + 1) *. period) -. clear)) )
  in
  let count m = Array.fold_left (fun a x -> if x = m then a + 1 else a) 0 modes in
  let tail = max 1 (steps / 8) in
  let sq = ref 0.0 in
  for k = steps - tail to steps - 1 do
    sq := !sq +. (err.(k) *. err.(k))
  done;
  if (not recovered) && Flight.enabled () then
    Flight.capture
      ~reason:
        (Printf.sprintf "unrecovered run: scenario=%s seed=%d"
           scenario.Fault_scenario.sname seed);
  {
    seed;
    detected = detection_s <> None || wdog_bites > 0;
    detection_s;
    recovered;
    recovery_s;
    steps_degraded = count 1;
    steps_safestop = count 2;
    max_mode = Array.fold_left max 0 modes;
    residual_rms = sqrt (!sq /. float_of_int tail);
    wdog_bites;
  }

(* One supervised (or raw) per-seed run. Without a policy the run is
   executed bare and any exception propagates — the historical abort
   behaviour. With a policy, deadlines / retries / chaos apply and the
   outcome is a record, never an exception, so a campaign degrades to
   per-seed failure rows instead of dying. The label feeds the chaos
   and jitter hashes, so a given (seed, attempt) fails the same way on
   every schedule. *)
let supervised_one ?policy subject ~scenario ~seed ~steps ~period ~t_end
    ~wdog_timeout =
  let go () =
    one_run subject ~scenario ~seed ~steps ~period ~t_end ~wdog_timeout
  in
  match policy with
  | None -> { Supervise.result = Ok (go ()); attempts = 1 }
  | Some policy ->
      Supervise.supervise ~policy
        ~label:
          (Printf.sprintf "faultsim:%s:seed%d" scenario.Fault_scenario.sname
             seed)
        go

let merge ~scenario ~t_end ~period ~steps ~wall_s outcomes =
  let runs =
    List.filter_map
      (fun (_, o) ->
        match o.Supervise.result with Ok r -> Some r | Error _ -> None)
      outcomes
  in
  let failures =
    List.filter_map
      (fun (seed, o) ->
        match o.Supervise.result with
        | Error e -> Some (seed, e)
        | Ok _ -> None)
      outcomes
  in
  let retries_total =
    List.fold_left (fun a (_, o) -> a + o.Supervise.attempts - 1) 0 outcomes
  in
  {
    scenario;
    t_end;
    period;
    runs;
    failures;
    retries_total;
    steps_per_run = steps;
    wall_s;
  }

(* The one per-seed loop. [first] is the calling domain's subject,
   built before the sweep: it fixes the period, and it is the context
   [Exec_pool.sweep] builds first, on this domain; every other domain
   builds its own through [mk_subject]. The cell is emptied on that
   first use, so nothing the sweep leaves behind keeps a subject alive.
   Per-seed runs are independent and seed-deterministic ([one_run]
   starts from [Sim.reset]) and the sweep returns them in seed order,
   so the merged report is the same whichever domain computed what. *)
let campaign ?pool ~t_end ~seeds ?wdog_timeout ?on_run ?policy ~scenario first
    mk_subject =
  let period = Sim.base_dt first.sim in
  let wdog_timeout =
    match wdog_timeout with Some t -> t | None -> 8.0 *. period
  in
  let steps = int_of_float ((t_end /. period) +. 0.5) in
  let first = Atomic.make (Some first) in
  let mk () =
    match Atomic.exchange first None with Some s -> s | None -> mk_subject ()
  in
  let t0 = Obs.now_ns () in
  let outcomes =
    Exec_pool.sweep ?pool ~mk seeds (fun subject i ->
        let seed = i + 1 in
        let o =
          supervised_one ?policy subject ~scenario ~seed ~steps ~period ~t_end
            ~wdog_timeout
        in
        (* on a pool this runs on a worker domain: the callback must
           synchronize *)
        (match (o.Supervise.result, on_run) with
        | Ok r, Some f -> f r
        | _ -> ());
        (seed, o))
  in
  (* wall_s is the report's one timing-dependent field; ECSD_WALL_ZERO
     zeroes it so reports compare byte-wise across --jobs *)
  let wall_s = Telemetry.wall ((Obs.now_ns () -. t0) *. 1e-9) in
  merge ~scenario ~t_end ~period ~steps ~wall_s (Array.to_list outcomes)

let run ?(t_end = 2.0) ?(seeds = 5) ?wdog_timeout ?on_run ?policy ~scenario
    subject =
  campaign ~t_end ~seeds ?wdog_timeout ?on_run ?policy ~scenario subject
    (fun () -> subject)

let run_parallel ?(t_end = 2.0) ?(seeds = 5) ?wdog_timeout ?on_run ?policy
    ?pool ~scenario mk_subject =
  (* this domain's build warms the compile cache the workers' builds
     dedup against *)
  campaign ?pool ~t_end ~seeds ?wdog_timeout ?on_run ?policy ~scenario
    (mk_subject ()) mk_subject

let throughput ?scenario ~steps subject =
  Sim.reset subject.sim;
  (match scenario with
  | Some scn -> ignore (arm subject ~seed:1 scn)
  | None -> disarm subject);
  let t0 = Obs.now_ns () in
  for _ = 1 to steps do
    Sim.step subject.sim
  done;
  let dt = Float.max 1e-9 ((Obs.now_ns () -. t0) *. 1e-9) in
  disarm subject;
  Sim.reset subject.sim;
  float_of_int steps /. dt

let all_detected r = List.for_all (fun x -> x.detected) r.runs
let all_recovered r = List.for_all (fun x -> x.recovered) r.runs

let stats xs =
  match xs with
  | [] -> None
  | x :: rest ->
      let lo, hi, sum =
        List.fold_left
          (fun (lo, hi, s) v -> (Float.min lo v, Float.max hi v, s +. v))
          (x, x, x) rest
      in
      Some (lo, sum /. float_of_int (List.length xs), hi)

let json_stats xs =
  let open Bench_json in
  match stats xs with
  | None -> Null
  | Some (lo, mean, hi) ->
      Obj [ ("min", Float lo); ("mean", Float mean); ("max", Float hi) ]

let to_json ~model r =
  let open Bench_json in
  let opt_f = function None -> Null | Some x -> Float x in
  let run_row x =
    Obj
      [
        ("seed", Int x.seed);
        ("detected", Bool x.detected);
        ("detection_s", opt_f x.detection_s);
        ("recovered", Bool x.recovered);
        ("recovery_s", opt_f x.recovery_s);
        ("steps_degraded", Int x.steps_degraded);
        ("steps_safestop", Int x.steps_safestop);
        ("max_mode", Int x.max_mode);
        ("residual_rms", Float x.residual_rms);
        ("wdog_bites", Int x.wdog_bites);
      ]
  in
  Obj
    [
      ("schema", Str "ecsd-fault-1");
      ("model", Str model);
      ("git_rev", Str (git_rev ()));
      ("scenario", Str r.scenario.Fault_scenario.sname);
      ( "faults",
        Arr
          (List.map
             (fun f -> Str (Fault.name f))
             r.scenario.Fault_scenario.faults) );
      ("t_end", Float r.t_end);
      ("period", Float r.period);
      ("steps_per_run", Int r.steps_per_run);
      ("seeds", Int (List.length r.runs + List.length r.failures));
      ("wall_s", Float r.wall_s);
      ("runs", Arr (List.map run_row r.runs));
      ( "failures",
        Arr
          (List.map
             (fun (seed, e) ->
               Obj
                 [
                   ("seed", Int seed);
                   ("class", Str (Supervise.error_class e));
                   ("error", Str (Supervise.error_message e));
                 ])
             r.failures) );
      ("retries_total", Int r.retries_total);
      ("all_detected", Bool (all_detected r));
      ("all_recovered", Bool (all_recovered r));
      ("detection_s", json_stats (List.filter_map (fun x -> x.detection_s) r.runs));
      ("recovery_s", json_stats (List.filter_map (fun x -> x.recovery_s) r.runs));
      ( "residual_rms_max",
        Float
          (List.fold_left (fun a x -> Float.max a x.residual_rms) 0.0 r.runs) );
      ( "wdog_bites_total",
        Int (List.fold_left (fun a x -> a + x.wdog_bites) 0 r.runs) );
    ]
