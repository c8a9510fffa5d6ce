(* The AUTOSAR block-set variant (§8): functionally identical blocks,
   MCAL-style generated API. Each AUTOSAR kind shares its PE twin's
   emitter, so only the driver calls differ; the MIL/SIL lock-step of
   the AUTOSAR servo is in test_lockstep.ml. *)

let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let ar_cfg =
  { Servo_system.default_config with
    Servo_system.block_set = Servo_system.Autosar_blocks }

let test_behaviour_identical () =
  (* the paper: "the blocks of both variants are the same from the
     functional point of view" -- MIL trajectories must match exactly *)
  let pe = Servo_system.build () in
  let ar = Servo_system.build ~config:ar_cfg () in
  let sp_pe, _ = Servo_system.mil_run pe ~t_end:0.6 in
  let sp_ar, _ = Servo_system.mil_run ar ~t_end:0.6 in
  check_bool "identical MIL trajectories" true (sp_pe = sp_ar)

let artifacts =
  lazy
    (let b = Servo_system.build ~config:ar_cfg () in
     let comp = Compile.compile b.Servo_system.controller in
     Target.generate ~name:"servo" ~project:b.Servo_system.project comp)

let test_mcal_api_in_code () =
  let c = C_print.print_unit (Lazy.force artifacts).Target.model_c in
  check_bool "Adc group conversion" false (contains c "QD1_GetPosition");
  check_bool "Icu position read" true (contains c "Icu_GetEdgeNumbers(IcuChannel_QD1)");
  check_bool "Pwm MCAL duty" true (contains c "Pwm_SetDutyCycle(PwmChannel_PWM1");
  check_bool "Dio read" true (contains c "Dio_ReadChannel(DioChannel_SW1)");
  check_bool "Mcal header" true (contains c "#include \"Mcal.h\"");
  check_bool "no PE method calls" false (contains c "PWM1_SetRatio16")

let test_gpt_notification_schedules () =
  let m = C_print.print_unit (Lazy.force artifacts).Target.main_c in
  check_bool "Gpt notification runs the step" true
    (contains m "void Gpt_Notification_TI1(void)");
  check_bool "Mcal_Init in main" true (contains m "Mcal_Init();");
  check_bool "Gpt started" true (contains m "Gpt_StartTimer(GptChannel_TI1");
  check_bool "no PE enable calls" false (contains m "TI1_Enable();")

let test_mcal_hal_units () =
  let hal = (Lazy.force artifacts).Target.hal in
  let names = List.map (fun u -> u.C_ast.unit_name) hal in
  List.iter
    (fun n -> check_bool ("unit " ^ n) true (List.mem n names))
    [ "Std_Types.h"; "Mcal_Cfg.h"; "Mcal.h"; "Gpt.c"; "Pwm.c"; "Dio.c"; "Icu.c";
      "CddUart.c"; "Mcal.c" ];
  let cfgh = List.find (fun u -> u.C_ast.unit_name = "Mcal_Cfg.h") hal in
  let s = C_print.print_unit cfgh in
  check_bool "symbolic channels resolved" true (contains s "#define PwmChannel_PWM1");
  let gpt = List.find (fun u -> u.C_ast.unit_name = "Gpt.c") hal in
  let s = C_print.print_unit gpt in
  check_bool "expert-resolved modulo baked into Gpt_Init" true (contains s "59999")

let test_autosar_pil_variant () =
  (* the PIL redirection applies to the AUTOSAR blocks too *)
  let cfg = { ar_cfg with Servo_system.control_period = 5e-3 } in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let c = C_print.print_unit a.Target.model_c in
  check_bool "sensor redirected" true (contains c "pil_sensor_buf[");
  check_bool "no MCAL hardware access" false (contains c "Icu_GetEdgeNumbers");
  (* and the co-simulation behaves like the PE one *)
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let r =
    Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~app:(Servo_system.pil_app b) ~plant
      ~driver ~periods:250 ()
  in
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ -> Alcotest.(check (float 5.0)) "AUTOSAR PIL tracks" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_is_autosar_kind () =
  check_bool "AR kind" true (Autosar_blocks.is_autosar_kind "AR_Adc");
  check_bool "PE kind" false (Autosar_blocks.is_autosar_kind "PE_Adc")

let test_notification_names () =
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let ti = Bean_project.add p (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.01 })) in
  let pwm = Bean_project.add p (Bean.make ~name:"PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 })) in
  Alcotest.(check (option string)) "gpt notification" (Some "Gpt_Notification_TI1")
    (Autosar_code.notification_name ti);
  Alcotest.(check (option string)) "pwm has none" None
    (Autosar_code.notification_name pwm);
  Alcotest.(check string) "symbolic id" "GptChannel_TI1" (Autosar_code.symbolic_id ti)

let suite =
  [
    Alcotest.test_case "behaviour identical to PE" `Quick test_behaviour_identical;
    Alcotest.test_case "MCAL API in code" `Quick test_mcal_api_in_code;
    Alcotest.test_case "Gpt notification scheduling" `Quick test_gpt_notification_schedules;
    Alcotest.test_case "MCAL HAL units" `Quick test_mcal_hal_units;
    Alcotest.test_case "AUTOSAR PIL" `Quick test_autosar_pil_variant;
    Alcotest.test_case "kind predicate" `Quick test_is_autosar_kind;
    Alcotest.test_case "notification names" `Quick test_notification_names;
  ]
