(* Fault-injection subsystem: taxonomy windows, scenario parsing, the
   seeded injector, the safe-state supervisor campaign on the servo
   loop, MIL-vs-SIL lock-step under fault, and the CON004 watchdog
   rule. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- fault windows ---- *)

let test_fault_window () =
  let f = Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout in
  check_bool "before onset" false (Fault.active f ~time:0.4);
  check_bool "at onset" true (Fault.active f ~time:0.5);
  check_bool "inside" true (Fault.active f ~time:0.69);
  check_bool "closed at end" false (Fault.active f ~time:0.7);
  Alcotest.(check (float 1e-9)) "clear time" 0.7 (Fault.clear_time f ~horizon:2.0);
  Alcotest.(check (float 1e-9)) "clear clamped" 0.6 (Fault.clear_time f ~horizon:0.6);
  let p = Fault.make ~every:0.5 ~at:0.1 ~duration:0.05 (Fault.Sensor_noise 10) in
  check_bool "first burst" true (Fault.active p ~time:0.12);
  check_bool "between bursts" false (Fault.active p ~time:0.3);
  check_bool "second burst" true (Fault.active p ~time:0.62);
  Alcotest.(check (float 1e-9)) "periodic never clears" 2.0
    (Fault.clear_time p ~horizon:2.0);
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative onset rejected" true
    (raises (fun () -> Fault.make ~at:(-1.0) ~duration:0.1 Fault.Sensor_stuck));
  check_bool "zero duration rejected" true
    (raises (fun () -> Fault.make ~at:0.0 ~duration:0.0 Fault.Sensor_stuck));
  check_bool "period shorter than burst rejected" true
    (raises (fun () ->
         Fault.make ~every:0.05 ~at:0.0 ~duration:0.1 Fault.Sensor_stuck))

(* ---- scenario file format ---- *)

let test_scenario_parse () =
  let text =
    "# servo abuse\n\n\
     dropout at=0.5 duration=0.1\n\
     offset at=0.2 duration=0.3 slot=1 value=-30\n\
     noise at=0.1 duration=0.05 every=0.5 value=12\n\
     load at=1.0 duration=0.2 value=2.5e-3\n"
  in
  match Fault_scenario.of_string ~name:"abuse" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
      check_string "name" "abuse" s.Fault_scenario.sname;
      check_int "faults" 4 (List.length s.Fault_scenario.faults);
      (match s.Fault_scenario.faults with
      | [ d; o; n; l ] ->
          check_bool "dropout kind" true (d.Fault.kind = Fault.Sensor_dropout);
          check_bool "offset kind" true (o.Fault.kind = Fault.Sensor_offset (-30));
          check_int "offset slot" 1 o.Fault.slot;
          check_bool "noise periodic" true (n.Fault.every = Some 0.5);
          check_bool "load kind" true (l.Fault.kind = Fault.Load_torque 2.5e-3)
      | _ -> Alcotest.fail "wrong fault order");
      Alcotest.(check (float 1e-9)) "onset" 0.1 (Fault_scenario.onset s);
      Alcotest.(check (float 1e-9)) "clear" 2.0
        (Fault_scenario.clear_time s ~horizon:2.0);
      (match Fault_scenario.active_names s ~time:0.55 with
      | [ n ] -> check_bool "dropout active at 0.55" true (contains "dropout" n)
      | l -> Alcotest.failf "expected one active fault, got %d" (List.length l));
      check_int "noise burst active at 0.12" 1
        (List.length (Fault_scenario.active_names s ~time:0.12))

let test_scenario_errors () =
  let expect_err text frag =
    match Fault_scenario.of_string ~name:"t" text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e ->
        check_bool (Printf.sprintf "%S mentions %S (got %S)" text frag e) true
          (contains frag e)
  in
  expect_err "bogus at=1 duration=1" "unknown fault kind";
  (* no engine arms line faults from a scenario *)
  expect_err "comm at=1 duration=1 value=0.01" "unknown fault kind";
  expect_err "offset at=1 duration=1" "needs value=";
  expect_err "dropout duration=1" "missing at=";
  expect_err "dropout at=1" "missing duration=";
  expect_err "dropout at=x duration=1" "not a number";
  expect_err "dropout at=1 duration=1 junk" "stray token";
  expect_err "dropout at=1 duration=1 flavor=3" "unknown key";
  expect_err "dropout at=2 duration=1 every=0.5" "line 1";
  expect_err "# only comments\n\n" "no faults";
  (* non-finite numbers would schedule a fault that never fires *)
  expect_err "stuck at=nan duration=0.1" "not a finite number";
  expect_err "dropout at=1 duration=nan" "not a finite number";
  expect_err "noise at=1 duration=0.1 every=nan value=5" "not a finite number";
  expect_err "stuck at=inf duration=inf" "not a finite number";
  expect_err "jam at=1 duration=0.2 value=nan" "not a finite number";
  expect_err "# header\ndropout at=1 duration=0.1\nstuck at=-inf duration=1" "line 3";
  match Fault.make ~at:Float.nan ~duration:0.1 Fault.Sensor_stuck with
  | _ -> Alcotest.fail "Fault.make accepted a NaN onset"
  | exception Invalid_argument _ -> ()

(* Any text either parses or is rejected with a message: random bytes,
   and lines built from the format's own words and numbers. *)
let prop_scenario_total =
  let open QCheck2 in
  let bytes = Gen.string_size ~gen:Gen.char (Gen.int_bound 64) in
  let word =
    Gen.oneofl
      [ "stuck"; "dropout"; "offset"; "noise"; "glitch"; "saturation"; "jam";
        "load"; "overrun"; "comm"; "wdog-suppress"; "at="; "duration=";
        "every="; "value="; "slot="; "at=0.5"; "duration=0.1"; "every=1";
        "value=nan"; "value=1e308"; "slot=-1"; "at=-0"; "duration=inf";
        "every=0"; "#"; "\n"; "=" ]
  in
  let lines = Gen.map (String.concat " ") (Gen.list_size (Gen.int_bound 12) word) in
  Test.make ~count:2000 ~name:"scenario parser never raises"
    ~print:(Printf.sprintf "%S")
    (Gen.frequency [ (1, bytes); (3, lines) ])
    (fun text ->
      match Fault_scenario.of_string ~name:"p" text with Ok _ | Error _ -> true)

let test_builtins () =
  List.iter
    (fun name ->
      match Fault_scenario.find name with
      | Ok s -> check_string "resolves" name s.Fault_scenario.sname
      | Error e -> Alcotest.failf "builtin %s: %s" name e)
    [ "encoder-dropout"; "sensor-stuck"; "noise-burst"; "encoder-glitch";
      "actuator-jam"; "overrun-burst"; "wdog-suppress" ];
  match Fault_scenario.find "no-such-scenario" with
  | Ok _ -> Alcotest.fail "nonsense scenario resolved"
  | Error e ->
      check_bool "error lists builtins" true (contains "encoder-dropout" e)

(* ---- the seeded injector ---- *)

let scn faults = { Fault_scenario.sname = "test"; faults }

let test_injector_sensor () =
  let inj =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.5 ~duration:0.2 (Fault.Sensor_offset 10) ])
  in
  check_int "inactive passthrough" 100
    (Fault_inject.sensor inj ~slot:0 ~time:0.1 100);
  check_int "offset applied" 110 (Fault_inject.sensor inj ~slot:0 ~time:0.6 100);
  check_int "other slot untouched" 100
    (Fault_inject.sensor inj ~slot:1 ~time:0.6 100);
  let drop =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout ])
  in
  check_int "dropout zeroes" 0 (Fault_inject.sensor drop ~slot:0 ~time:0.6 4321);
  (* stuck freezes the last clean code *)
  let stuck =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_stuck ])
  in
  check_int "clean" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.4 7);
  check_int "frozen at last clean" 7
    (Fault_inject.sensor stuck ~slot:0 ~time:0.6 9);
  check_int "still frozen" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.65 12);
  check_int "released" 12 (Fault_inject.sensor stuck ~slot:0 ~time:0.8 12)

let test_injector_determinism () =
  let mk seed =
    Fault_inject.arm ~seed
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Sensor_noise 40) ])
  in
  let stream seed =
    let inj = mk seed in
    List.init 50 (fun k ->
        Fault_inject.sensor inj ~slot:0 ~time:(float_of_int k *. 1e-3) 1000)
  in
  check_bool "same seed replays exactly" true (stream 3 = stream 3);
  check_bool "different seed differs" true (stream 3 <> stream 4);
  check_bool "noise stays within amplitude" true
    (List.for_all (fun v -> abs (v - 1000) <= 40) (stream 3));
  (* actuator faults *)
  let jam =
    Fault_inject.arm (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_jam 1.0) ])
  in
  Alcotest.(check (float 1e-12)) "jam forces duty" 1.0
    (Fault_inject.duty jam ~time:0.5 0.2);
  let sat =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_saturation 0.3) ])
  in
  Alcotest.(check (float 1e-12)) "saturation clips" 0.3
    (Fault_inject.duty sat ~time:0.5 0.8);
  Alcotest.(check (float 1e-12)) "saturation passes small" 0.1
    (Fault_inject.duty sat ~time:0.5 0.1)

(* the injector memoizes the active sublist per query time; every
   answer must still match the Fault.active predicate — across one-shot
   and periodic windows, and after non-monotonic queries (each campaign
   run rewinds time to zero) *)
let test_injector_cache_equivalence () =
  let f1 = Fault.make ~at:0.2 ~duration:0.2 (Fault.Sensor_offset 10) in
  let f2 =
    Fault.make ~every:0.5 ~at:0.05 ~duration:0.1 (Fault.Sensor_offset 300)
  in
  let inj = Fault_inject.arm (scn [ f1; f2 ]) in
  let expected time =
    List.fold_left
      (fun v f ->
        match f.Fault.kind with
        | Fault.Sensor_offset d when Fault.active f ~time -> v + d
        | _ -> v)
      1000 [ f1; f2 ]
  in
  for k = 0 to 1200 do
    let time = float_of_int k *. 1e-3 in
    check_int
      (Printf.sprintf "t=%g" time)
      (expected time)
      (Fault_inject.sensor inj ~slot:0 ~time 1000)
  done;
  (* a rewound query time recomputes the active set *)
  check_int "rewound inside the one-shot window" 1010
    (Fault_inject.sensor inj ~slot:0 ~time:0.3 1000);
  check_int "rewound before every onset" 1000
    (Fault_inject.sensor inj ~slot:0 ~time:0.0 1000)

let test_unarmed_identity () =
  (* a perturbation whose windows never open must not change the trace *)
  let final_speed armed =
    let scenario =
      scn [ Fault.make ~at:10.0 ~duration:0.1 Fault.Sensor_dropout ]
    in
    let subject, _ = Servo_system.faultsim_subject ~scenario () in
    if armed then ignore (Fault_campaign.arm subject scenario)
    else Fault_campaign.disarm subject;
    for _ = 1 to 300 do
      Sim.step subject.Fault_campaign.sim
    done;
    Value.to_float
      (Sim.value subject.Fault_campaign.sim
         subject.Fault_campaign.ports.Fault_campaign.speed_port)
  in
  let w_off = final_speed false and w_on = final_speed true in
  check_bool "armed-but-idle hook is bit-identical" true (w_off = w_on)

(* The injector sits on the sensor and duty ports only, so an armed
   step allocates like an unarmed one — also inside the fault window —
   and an empty scenario installs nothing at all. *)
let test_armed_allocation () =
  let dropout =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let steps = 2000 in
  let run scenario armed =
    let subject, _ = Servo_system.faultsim_subject ~scenario () in
    let sim = subject.Fault_campaign.sim in
    if armed then ignore (Fault_campaign.arm subject ~seed:1 scenario)
    else Fault_campaign.disarm subject;
    (* warm up, then measure through the window at 0.9-1.05 s *)
    for _ = 1 to 200 do
      Sim.step sim
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to steps do
      Sim.step sim
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int steps in
    let speed =
      Value.to_float
        (Sim.value sim subject.Fault_campaign.ports.Fault_campaign.speed_port)
    in
    (words, speed)
  in
  let unarmed_words, _ = run dropout false in
  let armed_words, _ = run dropout true in
  check_bool
    (Printf.sprintf "armed %.0f words/step <= unarmed %.0f + 64" armed_words
       unarmed_words)
    true
    (armed_words <= unarmed_words +. 64.0);
  let off_words, off_speed = run (scn []) false in
  let on_words, on_speed = run (scn []) true in
  Alcotest.(check (float 0.0)) "empty scenario: words per step" off_words
    on_words;
  check_bool "empty scenario: final speed" true (off_speed = on_speed)

(* ---- recovery campaigns on the servo loop ---- *)

let campaign ?(seeds = 2) name =
  let scenario =
    match Fault_scenario.find name with
    | Ok s -> s
    | Error e -> Alcotest.failf "scenario %s: %s" name e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  Fault_campaign.run ~seeds ~scenario subject

let test_campaign_dropout () =
  let r = campaign "encoder-dropout" in
  check_int "two runs" 2 (List.length r.Fault_campaign.runs);
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_bool "left Nominal" true (run.Fault_campaign.max_mode >= 1);
      check_bool "spent steps degraded" true (run.Fault_campaign.steps_degraded > 0);
      (match run.Fault_campaign.detection_s with
      | Some d ->
          (* the wrapped count delta reads as a huge speed: range check
             fires within a few control periods *)
          check_bool "fast detection" true (d < 0.01)
      | None -> Alcotest.fail "no detection latency");
      (match run.Fault_campaign.recovery_s with
      | Some rt -> check_bool "recovers within 0.5 s" true (rt < 0.5)
      | None -> Alcotest.fail "no recovery time");
      check_bool "tracks the set-point again" true
        (run.Fault_campaign.residual_rms < 20.0))
    r.Fault_campaign.runs

(* the sharded campaign must reproduce the sequential one run-for-run:
   seeds are independent, results land in seed order, and each worker
   domain builds its own subject *)
let test_parallel_campaign_matches_sequential () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  let seq = Fault_campaign.run ~t_end:0.4 ~seeds:6 ~scenario subject in
  let par =
    Exec_pool.with_pool ~workers:3 (fun pool ->
        Fault_campaign.run_parallel ~t_end:0.4 ~seeds:6 ~pool ~scenario
          (fun () -> fst (Servo_system.faultsim_subject ~scenario ())))
  in
  check_int "same number of runs" 6 (List.length par.Fault_campaign.runs);
  check_bool "identical run lists" true
    (seq.Fault_campaign.runs = par.Fault_campaign.runs);
  check_int "same steps per run" seq.Fault_campaign.steps_per_run
    par.Fault_campaign.steps_per_run

(* a long-lived pool (ecsd serve) must not keep a finished campaign's
   subjects alive: every subject built inside [run_parallel], on a
   worker or on this domain, is collectable once the call returns *)
let test_parallel_campaign_drops_subjects () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Exec_pool.with_pool ~workers:2 (fun pool ->
      let built = Weak.create 8 and n = ref 0 and lock = Mutex.create () in
      let mk () =
        let s = fst (Servo_system.faultsim_subject ~scenario ()) in
        Mutex.protect lock (fun () ->
            Weak.set built !n (Some s);
            incr n);
        s
      in
      ignore (Fault_campaign.run_parallel ~t_end:0.1 ~seeds:4 ~pool ~scenario mk);
      Gc.full_major ();
      check_bool "subjects were built" true (!n >= 1);
      for i = 0 to !n - 1 do
        check_bool (Printf.sprintf "subject %d collected" i) false (Weak.check built i)
      done)

let scenario_of text =
  match Fault_scenario.of_string ~name:"t" text with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* load faults fold into the plant's load profile, which the compile
   cache's digest must see: two load scenarios run in one process each
   equal the same campaign on a cleared cache *)
let test_load_scenarios_keep_their_compile () =
  let load v = scenario_of ("load at=0.5 duration=1.0 value=" ^ v) in
  let light = load "1e-4" and heavy = load "2e-2" in
  let runs scenario =
    let subject, _ = Servo_system.faultsim_subject ~scenario () in
    (Fault_campaign.run ~t_end:1.0 ~seeds:1 ~scenario subject).Fault_campaign.runs
  in
  let fresh scenario =
    Compile_cache.clear ();
    runs scenario
  in
  let light_fresh = fresh light and heavy_fresh = fresh heavy in
  Compile_cache.clear ();
  let light_shared = runs light in
  let heavy_shared = runs heavy in
  Compile_cache.clear ();
  check_bool "the loads matter" true (light_fresh <> heavy_fresh);
  check_bool "light as on a cleared cache" true (light_shared = light_fresh);
  check_bool "heavy after light as on a cleared cache" true
    (heavy_shared = heavy_fresh)

(* an every= load fault recurs: 30 ms dips every 400 ms from 0.5 s *)
let test_periodic_load_recurs () =
  let scenario = scenario_of "load at=0.5 duration=0.03 every=0.4 value=2.0e-3" in
  let _, built = Servo_system.faultsim_subject ~scenario () in
  let load = built.Servo_system.config.Servo_system.load in
  List.iter
    (fun (time, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "load torque at %g s" time)
        want
        (Load_profile.torque load ~time ~w:0.0))
    [ (0.49, 0.0); (0.51, 2e-3); (0.6, 0.0); (0.91, 2e-3); (0.95, 0.0) ]

let test_campaign_stuck_reaches_safestop () =
  let r = campaign "sensor-stuck" in
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_int "escalates to SafeStop" 2 run.Fault_campaign.max_mode;
      check_bool "spent steps safe-stopped" true
        (run.Fault_campaign.steps_safestop > 0))
    r.Fault_campaign.runs

let test_campaign_timing_faults_bite () =
  (* injected overruns stretch the step past the watchdog budget *)
  let r = campaign ~seeds:1 "overrun-burst" in
  check_bool "overruns detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs;
  let r = campaign ~seeds:1 "wdog-suppress" in
  check_bool "lost service detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs

let test_campaign_json () =
  let r = campaign ~seeds:2 "noise-burst" in
  let doc = Fault_campaign.to_json ~model:"servo" r in
  let text = Bench_json.to_string doc in
  let j = Bench_json.parse text in
  let str k = match Bench_json.member k j with
    | Some (Bench_json.Str s) -> s
    | _ -> Alcotest.failf "missing %s" k
  in
  check_string "schema" "ecsd-fault-1" (str "schema");
  check_string "model" "servo" (str "model");
  check_string "scenario" "noise-burst" (str "scenario");
  (match Bench_json.member "runs" j with
  | Some (Bench_json.Arr rows) -> check_int "rows" 2 (List.length rows)
  | _ -> Alcotest.fail "runs missing");
  (match Bench_json.member "all_recovered" j with
  | Some (Bench_json.Bool _) -> ()
  | _ -> Alcotest.fail "all_recovered missing")

(* ---- MIL vs SIL stays bit-exact through a fault transient ---- *)

let test_diff_under_fault () =
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let scenario =
    match Fault_scenario.find "noise-burst" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let injector = Job.injector_of scenario 7 in
  let r =
    Silvm_diff.run ~steps:1200 ~plant:(Silvm_diff.Plant (plant, driver))
      ~injector ~name:"servo" ~project:b.Servo_system.project comp
  in
  (match r.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "diverged under fault at step %d %s:%d (MIL %s, SIL %s; %s)"
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil
        (String.concat ", " d.Silvm_diff.d_faults));
  check_int "ran every step" 1200 r.Silvm_diff.steps_run

(* ---- deployment-side watchdog behaviour ---- *)

let test_wdog_rearm () =
  let machine = Machine.create Mcu_db.mc56f8367 in
  let wd = Wdog_periph.create machine ~timeout:1e-3 () in
  Wdog_periph.enable wd;
  let half = Machine.cycles_of_time machine 0.5e-3 in
  Machine.advance machine ~cycles:(4 * half);
  let n1 = Wdog_periph.bites wd in
  check_bool "starved watchdog bites" true (n1 >= 1);
  (* serviced twice per timeout: the re-armed countdown never expires *)
  for _ = 1 to 8 do
    Wdog_periph.refresh wd;
    Machine.advance machine ~cycles:half
  done;
  check_int "no bites while serviced" n1 (Wdog_periph.bites wd);
  Machine.advance machine ~cycles:(4 * half);
  check_bool "bites again after re-arm" true (Wdog_periph.bites wd > n1)

let test_hil_wdog_under_injected_overruns () =
  let cfg = Servo_system.default_config in
  let b = Servo_system.build ~config:cfg () in
  let run ?overrun_inject () =
    Hil_cosim.servo_run ~watchdog:3e-3 ?overrun_inject
      ~built_mcu:cfg.Servo_system.mcu ~app:(Servo_system.pil_app b)
      ~motor:cfg.Servo_system.motor ~load:cfg.Servo_system.load
      ~encoder:(Encoder.create ~lines_per_rev:cfg.Servo_system.encoder_lines ())
      ~periods:300 ()
  in
  let clean = run () in
  check_int "no bites uninjected" 0
    clean.Hil_cosim.profile.Hil_cosim.watchdog_bites;
  (* a 100-period burst of +4 ms per step starves a 3 ms watchdog *)
  let cycles_4ms = 4 * 60_000 in
  let faulted =
    run ~overrun_inject:(fun k -> if k >= 100 && k < 200 then cycles_4ms else 0) ()
  in
  let p = faulted.Hil_cosim.profile in
  check_bool "injected overruns recorded" true (p.Hil_cosim.overruns > 0);
  check_bool "watchdog bites under overrun burst" true
    (p.Hil_cosim.watchdog_bites > 0)

(* ---- CON004 ---- *)

let test_con004 () =
  (* a watchdog bean nobody services *)
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let _wd = Bean_project.add p (Bean.make ~name:"WD1" (Bean.Watch_dog { timeout = 8e-3 })) in
  let m = Model.create "wd_orphan" in
  let c = Model.add m ~name:"c" (Sources.constant 1.0) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  Model.connect m ~src:(c, 0) ~dst:(g, 0);
  let comp = Compile.compile m in
  (match Concurrency.watchdog_findings ~project:p comp with
  | [ f ] ->
      check_string "rule" "CON004" f.Diag.rule;
      check_string "subject" "WD1" f.Diag.subject;
      check_bool "severity error" true (f.Diag.severity = Diag.Error)
  | fs -> Alcotest.failf "expected one CON004, got %d" (List.length fs));
  (* the supervisor services WD1 from the periodic step: clean *)
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  check_int "supervised servo passes" 0
    (List.length
       (Concurrency.watchdog_findings ~project:b.Servo_system.project comp))

let suite =
  [
    Alcotest.test_case "fault windows" `Quick test_fault_window;
    Alcotest.test_case "scenario parse" `Quick test_scenario_parse;
    Alcotest.test_case "scenario errors" `Quick test_scenario_errors;
    QCheck_alcotest.to_alcotest prop_scenario_total;
    Alcotest.test_case "builtin scenarios" `Quick test_builtins;
    Alcotest.test_case "injector: sensor kinds" `Quick test_injector_sensor;
    Alcotest.test_case "injector: seeds and actuators" `Quick
      test_injector_determinism;
    Alcotest.test_case "injector: cache matches Fault.active" `Quick
      test_injector_cache_equivalence;
    Alcotest.test_case "unarmed hooks are identity" `Quick test_unarmed_identity;
    Alcotest.test_case "campaign: encoder dropout recovers" `Quick
      test_campaign_dropout;
    Alcotest.test_case "campaign: parallel matches sequential" `Quick
      test_parallel_campaign_matches_sequential;
    Alcotest.test_case "campaign: parallel drops its subjects" `Quick
      test_parallel_campaign_drops_subjects;
    Alcotest.test_case "campaign: load scenarios keep their compile" `Quick
      test_load_scenarios_keep_their_compile;
    Alcotest.test_case "campaign: periodic load recurs" `Quick
      test_periodic_load_recurs;
    Alcotest.test_case "campaign: stuck sensor reaches SafeStop" `Quick
      test_campaign_stuck_reaches_safestop;
    Alcotest.test_case "campaign: timing faults bite the watchdog" `Quick
      test_campaign_timing_faults_bite;
    Alcotest.test_case "campaign: JSON roundtrip" `Quick test_campaign_json;
    Alcotest.test_case "MIL vs SIL bit-exact under fault" `Quick
      test_diff_under_fault;
    Alcotest.test_case "watchdog re-arms after bite" `Quick test_wdog_rearm;
    Alcotest.test_case "HIL watchdog bites under injected overruns" `Quick
      test_hil_wdog_under_injected_overruns;
    Alcotest.test_case "CON004 watchdog service path" `Quick test_con004;
    Alcotest.test_case "armed step allocates like unarmed" `Quick
      test_armed_allocation;
  ]
