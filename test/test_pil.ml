(* PIL co-simulation: the servo on the virtual MC56F8367 over RS-232. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pil_cfg =
  { Servo_system.default_config with Servo_system.control_period = 5e-3 }

let run_pil ?(periods = 300) ?baud ?error_rate ?preemptive ?dup_frames () =
  let b = Servo_system.build ~config:pil_cfg () in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  ( b,
    Pil_cosim.run ?baud ?error_rate ?preemptive ?dup_frames
      ~mcu:pil_cfg.Servo_system.mcu ~app:(Servo_system.pil_app b) ~plant ~driver
      ~periods () )

let test_pil_converges () =
  let _, r = run_pil ~periods:300 () in
  let speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  match List.rev speed with
  | (_, w) :: _ ->
      Alcotest.(check (float 5.0)) "tracks the final set-point" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_pil_vs_mil_deviation () =
  (* the PIL trajectory must stay close to MIL: quantisation and the
     one-period actuator latency bound the deviation *)
  let b = Servo_system.build ~config:pil_cfg () in
  let mil_speed, _ = Servo_system.mil_run b ~t_end:1.5 in
  let _, r = run_pil ~periods:300 () in
  let pil_speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  (* compare at matching times (PIL trace is per control period) *)
  let mil_at t =
    List.fold_left
      (fun best (ti, w) ->
        match best with
        | Some (tb, _) when Float.abs (ti -. t) >= Float.abs (tb -. t) -> best
        | _ -> Some (ti, w))
      None mil_speed
    |> Option.map snd
  in
  let max_dev =
    List.fold_left
      (fun acc (t, w) ->
        match mil_at t with
        | Some wm -> Float.max acc (Float.abs (w -. wm))
        | None -> acc)
      0.0
      (* skip the first 50 ms transient where one-period shifts dominate *)
      (List.filter (fun (t, _) -> t > 0.05) pil_speed)
  in
  check_bool "PIL within 12 rad/s of MIL" true (max_dev < 12.0)

let test_pil_profile_contents () =
  let _, r = run_pil ~periods:200 () in
  let p = r.Pil_cosim.profile in
  check_bool "exec time plausible" true
    (p.Pil_cosim.controller_exec.Stats.mean > 1e-6
     && p.Pil_cosim.controller_exec.Stats.mean < 1e-3);
  check_bool "latency after comm" true
    (p.Pil_cosim.response_latency.Stats.p50 > p.Pil_cosim.comm_time_per_period /. 2.0);
  check_bool "latency within period" true
    (p.Pil_cosim.response_latency.Stats.max < 5e-3);
  check_int "no overruns" 0 p.Pil_cosim.overruns;
  check_int "no crc errors" 0 p.Pil_cosim.crc_errors;
  check_bool "stack watermark measured" true (p.Pil_cosim.max_stack_bytes > 96);
  check_bool "cpu mostly idle" true (p.Pil_cosim.cpu_utilization < 0.2)

let test_pil_baud_feasibility () =
  (* at 9600 baud the two packets cannot fit into 5 ms *)
  match run_pil ~baud:9600 () with
  | exception Invalid_argument msg ->
      check_bool "explains the minimum period" true
        (Astring_contains.contains msg "minimum feasible period")
  | _ -> Alcotest.fail "infeasible baud accepted"

let test_pil_error_injection () =
  let _, r = run_pil ~periods:300 ~error_rate:0.01 () in
  let p = r.Pil_cosim.profile in
  check_bool "crc errors observed" true (p.Pil_cosim.crc_errors > 0);
  check_bool "corrupted periods overrun" true (p.Pil_cosim.overruns > 0);
  (* the loop must survive: the motor still spins roughly at set-point *)
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ -> check_bool "loop survives noise" true (Float.abs (w -. 150.0) < 20.0)
  | [] -> Alcotest.fail "no trace"

let test_pil_comm_accounting () =
  let _, r = run_pil ~periods:50 () in
  let p = r.Pil_cosim.profile in
  (* 2 sensors (2B each) + 1 actuator: sensor pkt 6+4=10B, actuator 6+2=8B
     before stuffing *)
  check_bool "bytes per period >= raw size" true (p.Pil_cosim.comm_bytes_per_period >= 18);
  Alcotest.(check (float 1e-9)) "comm time consistent"
    (float_of_int p.Pil_cosim.comm_bytes_per_period *. 10.0 /. 115200.0)
    p.Pil_cosim.comm_time_per_period

let test_pil_fixed_point_variant () =
  let cfg = { pil_cfg with Servo_system.variant = Servo_system.Fixed_pid } in
  let b = Servo_system.build ~config:cfg () in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let r =
    Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~app:(Servo_system.pil_app b)
      ~plant ~driver ~periods:300 ()
  in
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ ->
      Alcotest.(check (float 6.0)) "fixed-point PIL tracks" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_pil_duplicate_frames_idempotent () =
  (* every sensor frame transmitted twice: the target's sequence-number
     deduplication must step the controller exactly once per period, so
     the closed-loop trajectory is identical to the clean run *)
  let _, clean = run_pil ~periods:200 () in
  let _, dup = run_pil ~periods:200 ~dup_frames:true () in
  check_int "no overruns with duplicated frames" 0
    dup.Pil_cosim.profile.Pil_cosim.overruns;
  let speeds r = List.map snd (Servo_system.pil_speed_trace r.Pil_cosim.trace) in
  let pairs = List.combine (speeds clean) (speeds dup) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (float 1e-9)) "trajectory unchanged by duplicates" a b)
    pairs

let test_pil_timeout_holds_last_actuator () =
  (* heavy noise: periods whose frames die must reuse the previous
     actuator command (frame hold), never a stale mis-parse or a crash *)
  let _, r = run_pil ~periods:300 ~error_rate:0.05 () in
  let p = r.Pil_cosim.profile in
  check_bool "overruns under heavy noise" true (p.Pil_cosim.overruns > 0);
  check_bool "crc rejections counted" true (p.Pil_cosim.crc_errors > 0);
  (* the held-frame policy keeps the loop alive and bounded *)
  List.iter
    (fun (_, obs) ->
      List.iter
        (fun (_, v) -> check_bool "observation finite" true (Float.is_finite v))
        obs)
    r.Pil_cosim.trace

(* Over a clean link PIL runs the generated application, so it is the
   SIL closed loop of the same build: the words handed to the plant and
   the per-period observations are bit-identical to [Silvm_app] stepped
   against the same plant driver. *)
let test_pil_is_sil block_set variant () =
  let cfg = { pil_cfg with Servo_system.block_set; variant } in
  let b = Servo_system.build ~config:cfg () in
  let periods = 300 in
  let recording () =
    let words = ref [] in
    let d = Servo_system.pil_driver b in
    let driver =
      { d with
        Pil_cosim.apply_actuators =
          (fun p acts ->
            words := Array.copy acts :: !words;
            d.Pil_cosim.apply_actuators p acts) }
    in
    (driver, words)
  in
  let driver, pil_words = recording () in
  let r =
    Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~app:(Servo_system.pil_app b)
      ~plant:(Servo_system.pil_plant b) ~driver ~periods ()
  in
  let driver, sil_words = recording () in
  let app = Servo_system.pil_app b in
  let plant = Servo_system.pil_plant b in
  let period = (Silvm_app.schedule app).Target.base_period in
  let n_act = List.length (Silvm_app.schedule app).Target.actuator_slots in
  Silvm_app.initialize app;
  let sil_obs =
    List.init periods (fun k ->
        Array.iteri (Silvm_app.set_sensor app)
          (driver.Pil_cosim.read_sensors plant ~time:(float_of_int k *. period));
        Silvm_app.step app;
        driver.Pil_cosim.apply_actuators plant
          (Array.init n_act (Silvm_app.actuator app));
        driver.Pil_cosim.advance plant ~dt:period;
        driver.Pil_cosim.observe plant)
  in
  check_int "no overruns" 0 r.Pil_cosim.profile.Pil_cosim.overruns;
  Alcotest.(check (list (array int))) "actuator words" (List.rev !sil_words)
    (List.rev !pil_words);
  let bits obs = List.map (fun (n, v) -> (n, Int64.bits_of_float v)) obs in
  Alcotest.(check (list (list (pair string int64)))) "observations"
    (List.map bits sil_obs)
    (List.map (fun (_, obs) -> bits obs) r.Pil_cosim.trace)

let pil_is_sil_cases =
  List.concat_map
    (fun (set_name, set) ->
      List.map
        (fun (v_name, v) ->
          Alcotest.test_case
            (Printf.sprintf "clean-link PIL is SIL (%s %s)" set_name v_name)
            `Quick (test_pil_is_sil set v))
        [ ("float", Servo_system.Float_pid); ("fixed", Servo_system.Fixed_pid) ])
    [ ("PE", Servo_system.Pe_blocks); ("AUTOSAR", Servo_system.Autosar_blocks) ]

let suite =
  [
    Alcotest.test_case "pil converges" `Quick test_pil_converges;
    Alcotest.test_case "pil vs mil" `Quick test_pil_vs_mil_deviation;
    Alcotest.test_case "profile contents" `Quick test_pil_profile_contents;
    Alcotest.test_case "baud feasibility" `Quick test_pil_baud_feasibility;
    Alcotest.test_case "error injection" `Quick test_pil_error_injection;
    Alcotest.test_case "comm accounting" `Quick test_pil_comm_accounting;
    Alcotest.test_case "fixed-point PIL" `Quick test_pil_fixed_point_variant;
    Alcotest.test_case "duplicated frames idempotent" `Quick
      test_pil_duplicate_frames_idempotent;
    Alcotest.test_case "timeout holds last actuator frame" `Quick
      test_pil_timeout_holds_last_actuator;
  ]
  @ pil_is_sil_cases
