(* The lock-step battery: every block kind with an embedded realisation,
   in a one-to-three-block diagram, runs MIL against its generated code
   on both SIL engines (tri-lockstep), with the MIR optimiser off and
   on, and must agree bit for bit at every step. Peripheral kinds run in
   both block sets; the servo runs in both block sets, float and fixed,
   against the PIL plant. *)

let mcu = Mcu_db.mc56f8367
let steps = 150

type case = {
  model : Model.t;
  project : Bean_project.t;
  stimulus : (int -> int array) option;
}

let sine = Sources.sine ~amp:3.0 ~freq_hz:7.0 ~bias:0.4 ()
let ramp = Sources.ramp ~slope:1.5 ()
let pulse = Sources.pulse ~period:0.25 ~duty:0.3 ~amp:2.0 ()

(* the block under test, "dut", with one source block per input port *)
let around ?(project = Bean_project.create mcu) ?stimulus ?(srcs = []) spec =
  let m = Model.create "lk" in
  let dut = Model.add m ~name:"dut" spec in
  List.iteri
    (fun i s ->
      let s = Model.add m ~name:(Printf.sprintf "src%d" i) s in
      Model.connect m ~src:(s, 0) ~dst:(dut, i))
    srcs;
  { model = m; project; stimulus }

let xs = [| -2.0; -1.0; 0.0; 0.5; 1.0; 2.5 |]
let ys = [| 4.0; 1.0; 0.0; -0.25; 1.0; 3.0 |]

let std_cases =
  [
    ("Constant", fun () -> around (Sources.constant 2.5));
    ("Step", fun () -> around (Sources.step ~t_step:0.3 ~before:(-1.0) ~after:2.0 ()));
    ("Ramp", fun () -> around ramp);
    ("Sine", fun () -> around sine);
    ("Pulse", fun () -> around pulse);
    ( "SetpointSchedule",
      fun () ->
        around (Sources.setpoint_schedule [ (0.0, 1.0); (0.5, 2.0); (1.2, -1.0) ]) );
    ("Clock", fun () -> around Sources.clock);
    ( "UniformNoise",
      fun () ->
        let c = around (Sources.uniform_noise ~seed:7 ~lo:(-2.0) ~hi:3.0 ()) in
        (* a seed whose low 28 bits are zero starts from the fixed state *)
        ignore (Model.add c.model ~name:"dut0" (Sources.uniform_noise ~seed:0 ()));
        c );
    ("Gain", fun () -> around ~srcs:[ sine ] (Math_blocks.gain 1.7));
    ("Sum", fun () -> around ~srcs:[ sine; ramp ] (Math_blocks.sum "+-"));
    ("Product", fun () -> around ~srcs:[ sine; ramp ] (Math_blocks.product 2));
    ("Divide", fun () -> around ~srcs:[ sine; ramp ] Math_blocks.divide);
    ("Abs", fun () -> around ~srcs:[ sine ] Math_blocks.abs_block);
    ("Neg", fun () -> around ~srcs:[ sine ] Math_blocks.neg);
    ("Sign", fun () -> around ~srcs:[ sine ] Nonlinear_blocks.sign_block);
    ("Min", fun () -> around ~srcs:[ sine; ramp ] Math_blocks.min_block);
    ("Max", fun () -> around ~srcs:[ sine; ramp ] Math_blocks.max_block);
    ( "Cast",
      fun () ->
        around ~srcs:[ Sources.sine ~amp:40000.0 () ] (Math_blocks.cast Dtype.Int16) );
    ("Compare", fun () -> around ~srcs:[ sine; ramp ] (Math_blocks.compare `Lt));
    ("Logic", fun () -> around ~srcs:[ sine; pulse ] (Math_blocks.logic `Xor));
    ("MathFn", fun () -> around ~srcs:[ sine ] (Math_blocks.math_fn `Sqrt));
    ( "UnitDelay",
      fun () -> around ~srcs:[ sine ] (Discrete_blocks.unit_delay ~init:0.5 ()) );
    ("DelayN", fun () -> around ~srcs:[ sine ] (Discrete_blocks.delay_n 3));
    ("ZOH", fun () -> around ~srcs:[ sine ] (Discrete_blocks.zoh ~period:0.01 ()));
    ( "DiscreteIntegrator",
      fun () ->
        around ~srcs:[ sine ]
          (Discrete_blocks.discrete_integrator ~k:2.0 ~lo:(-0.5) ~hi:0.7 ()) );
    ( "DiscreteDerivative",
      fun () -> around ~srcs:[ sine ] (Discrete_blocks.discrete_derivative ~k:0.5 ()) );
    ( "DiscreteTransferFcn",
      fun () ->
        around ~srcs:[ sine ]
          (Discrete_blocks.discrete_tf ~num:[| 0.2; 0.1 |] ~den:[| 1.0; -0.5; 0.06 |]) );
    ( "Pid",
      fun () ->
        around ~srcs:[ sine; Sources.constant 0.5 ]
          (Discrete_blocks.pid ~ts:0.01
             (Pid.gains ~kd:0.05 ~u_min:(-2.0) ~u_max:2.0 ~kp:1.2 ~ki:8.0 ())) );
    ( "FixPid",
      fun () ->
        around ~srcs:[ sine; Sources.constant 0.5 ]
          (Discrete_blocks.fix_pid ~ts:0.01 ~fmt:Qformat.q15 ~in_scale:4.0
             ~out_scale:2.0
             (Pid.gains ~kd:0.01 ~u_min:(-2.0) ~u_max:2.0 ~kp:0.8 ~ki:4.0 ())) );
    ( "RateLimiter",
      fun () ->
        around ~srcs:[ sine ] (Discrete_blocks.rate_limiter ~rising:5.0 ~falling:3.0) );
    ("MovingAverage", fun () -> around ~srcs:[ sine ] (Discrete_blocks.moving_average 4));
    ( "EncoderSpeed",
      fun () ->
        (* ramp -> int32 position counts -> speed *)
        let c = around ~srcs:[ Sources.ramp ~slope:3000.0 () ] (Math_blocks.cast Dtype.Int32) in
        let spd =
          Model.add c.model ~name:"spd" (Discrete_blocks.encoder_speed ~counts_per_rev:400)
        in
        Model.connect c.model ~src:(Model.find c.model "dut", 0) ~dst:(spd, 0);
        c );
    ( "Saturation",
      fun () -> around ~srcs:[ sine ] (Nonlinear_blocks.saturation ~lo:(-1.0) ~hi:2.0) );
    ("Quantizer", fun () -> around ~srcs:[ sine ] (Nonlinear_blocks.quantizer ~interval:0.25));
    ( "DeadZone",
      fun () -> around ~srcs:[ sine ] (Nonlinear_blocks.dead_zone ~lo:(-0.5) ~hi:0.5) );
    ( "Relay",
      fun () ->
        around ~srcs:[ sine ]
          (Nonlinear_blocks.relay ~on_point:1.0 ~off_point:(-1.0) ~on_value:5.0
             ~off_value:(-5.0) ()) );
    ( "Switch",
      fun () ->
        around ~srcs:[ sine; sine; ramp ] (Nonlinear_blocks.switch ~threshold:0.5) );
    ( "CoulombFriction",
      fun () -> around ~srcs:[ sine ] (Nonlinear_blocks.coulomb_friction ~level:0.3) );
    ("Lookup1D", fun () -> around ~srcs:[ sine ] (Table_blocks.lookup1d ~xs ~ys));
    ( "Lookup1DNearest",
      fun () -> around ~srcs:[ sine ] (Table_blocks.lookup1d_nearest ~xs ~ys) );
    ("Inport", fun () -> around (Routing_blocks.inport 0));
    ("Outport", fun () -> around ~srcs:[ sine ] (Routing_blocks.outport 0));
    ("Terminator", fun () -> around ~srcs:[ sine ] Routing_blocks.terminator);
    ("Merge2", fun () -> around ~srcs:[ sine; pulse ] Routing_blocks.merge2);
  ]

(* ---- peripheral blocks, run in both block sets ---- *)

let periph_project () =
  let p = Bean_project.create mcu in
  let add name config = ignore (Bean_project.add p (Bean.make ~name config)) in
  add "TI1" (Bean.Timer_int { period = 1e-2; tolerance_frac = 0.01 });
  add "AD1" (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-2 });
  add "PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 });
  add "DA1" (Bean.Dac { channel = None; resolution = 12; vref = 3.3 });
  add "QD1" (Bean.Quad_dec { lines_per_rev = 100 });
  add "SW1" (Bean.Bit_io { pin = List.hd mcu.Mcu_db.pins; direction = Bean.In_pin; init = false });
  add "LED1"
    (Bean.Bit_io { pin = List.nth mcu.Mcu_db.pins 1; direction = Bean.Out_pin; init = true });
  add "FC1" (Bean.Free_cntr { tick = 1e-3 });
  add "AS1" (Bean.Serial { port = None; baud = 115200 });
  (match Bean_project.verify p with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "bean project: %s" (String.concat "; " msgs));
  p

(* a peripheral block on bean [bean], driven by [src] when it has an
   input; sensors read [codes k] from the PIL exchange buffer *)
let periph ?src ?codes make bean =
  let project = periph_project () in
  let spec = make (Bean_project.find project bean) in
  let stimulus = Option.map (fun f k -> [| f k |]) codes in
  around ~project ?stimulus ~srcs:(Option.to_list src) spec

let serial_case () =
  let ws = Pe_workspace.create ~name:"lk" mcu in
  ignore (Pe_workspace.add_serial ws ~baud:115200 ());
  ignore (Model.add (Pe_workspace.model ws) ~name:"src0" sine);
  { model = Pe_workspace.model ws; project = Pe_workspace.project ws; stimulus = None }

(* each peripheral behaviour takes its block set's constructor *)
let timer make () =
  let c = periph make "TI1" in
  ignore (Model.add c.model ~name:"src0" sine);
  c

let adc make () = periph make "AD1" ~src:sine ~codes:(fun k -> k * 37 mod 4096)
let qdec make () = periph make "QD1" ~src:sine ~codes:(fun k -> k * 1013 land 0xFFFF)
let dio_in make () = periph make "SW1" ~src:sine ~codes:(fun k -> k mod 3)
let pwm make () = periph make "PWM1" ~src:(Sources.sine ~amp:40000.0 ~bias:30000.0 ())
let dio_out make () = periph make "LED1" ~src:sine

let periph_cases =
  [
    ("PE_TimerInt", timer Periph_blocks.timer_int);
    ("AR_TimerInt", timer Autosar_blocks.timer_int);
    ("PE_Serial", serial_case);
    ("PE_FreeCntr", fun () -> periph Periph_blocks.free_counter "FC1");
    ("PE_Adc", adc Periph_blocks.adc);
    ("AR_Adc", adc Autosar_blocks.adc);
    ("PE_QuadDec", qdec Periph_blocks.quad_decoder);
    ("AR_Icu", qdec Autosar_blocks.icu_position);
    ("PE_BitIO_In", dio_in Periph_blocks.bit_io_in);
    ("AR_Dio_In", dio_in Autosar_blocks.dio_in);
    ("PE_Pwm", pwm Periph_blocks.pwm);
    ("AR_Pwm", pwm Autosar_blocks.pwm);
    ( "PE_Dac",
      fun () ->
        periph Periph_blocks.dac "DA1" ~src:(Sources.sine ~amp:3000.0 ~bias:2000.0 ()) );
    ("PE_BitIO_Out", dio_out Periph_blocks.bit_io_out);
    ("AR_Dio_Out", dio_out Autosar_blocks.dio_out);
  ]

(* the registered custom emitters: the case study's mode chart and the
   safe-state supervisor *)
let custom_cases =
  [
    ( "ModeChart",
      fun () ->
        around ~srcs:[ pulse ]
          (Chart_block.block ~kind:"ModeChart" ~n_in:1 ~n_out:1 ~period:0.01
             Servo_system.mode_chart_factory) );
    ( Supervisor.kind,
      fun () ->
        (* in0 a raw count that freezes, in1 a speed, in2 a duty *)
        around ~srcs:[ Sources.constant 3.0; Sources.sine ~amp:300.0 (); sine ]
          (Supervisor.block ~period:0.01 Supervisor.default) );
  ]

let run_case (c : case) ~opt =
  let comp = Compile.compile ~default_dt:0.01 c.model in
  Silvm_diff.run ~steps ~opt ~engine:Silvm_diff.Both ?stimulus:c.stimulus ~name:"lk"
    ~project:c.project comp

let test_case (kind, build) =
  Alcotest.test_case kind `Quick (fun () ->
      List.iter
        (fun opt ->
          Test_silvm.check_no_divergence
            (Printf.sprintf "%s (opt %b)" kind opt)
            (run_case (build ()) ~opt))
        [ false; true ])

let test_covers_blockgen () =
  let sorted l = List.sort compare l in
  Alcotest.(check (list string))
    "one battery case per built-in emitter" (sorted Blockgen.kinds)
    (sorted (List.map fst (std_cases @ periph_cases)))

(* lock-step compares block outputs: also hold what a digital output
   writes to the PIL buffer to the value its latch echoes, for inputs
   that are fractional and negative *)
let test_dio_out_write make engine () =
  let c = dio_out make () in
  let app =
    Silvm_app.create ~engine ~name:"lk" ~project:c.project
      (Compile.compile ~default_dt:0.01 c.model)
  in
  Silvm_app.initialize app;
  let dut = Model.find c.model "dut" in
  for k = 0 to steps - 1 do
    Silvm_app.step app;
    Alcotest.(check int)
      (Printf.sprintf "step %d" k)
      (Silvm_value.to_int (Silvm_app.signal app (dut, 0)))
      (Silvm_app.actuator app 0)
  done

(* xorshift32 never leaves state 0: a zero seed must still give noise *)
let test_noise_seed0 () =
  let m = Model.create "noise0" in
  ignore (Model.add m ~name:"n" (Sources.uniform_noise ~seed:0 ()));
  let sim = Sim.create (Compile.compile ~default_dt:0.01 m) in
  Sim.probe_named sim "n" 0;
  Sim.run sim ~until:0.5 ();
  let samples = List.map snd (Sim.trace_named sim "n" 0) in
  Alcotest.(check bool) "not constant" true
    (List.exists (fun x -> x <> List.hd samples) samples)

(* Kinds registered through the public hook, not in [custom_cases]:
   their emitter writes through a call, a statement the lifter leaves
   opaque, in the step or in the init code. Neither SIL engine can run
   it, and the diff must report that as a divergence at the first step,
   not raise. *)
let test_unsupported_is_divergence ~in_init engine () =
  let kind = if in_init then "OpaqueInit" else "OpaqueWrite" in
  Blockgen.register kind (fun g _ ->
      let x = List.hd g.Blockgen.ins in
      let opaque = C_ast.Assign (C_ast.Call ("io_port", []), C_ast.Int_lit 0) in
      {
        Blockgen.state_fields = [];
        init = (if in_init then [ opaque ] else []);
        step =
          (if in_init then [] else [ opaque ])
          @ [ C_ast.Assign (List.hd g.Blockgen.outs, x) ];
        update = [];
        needs_time = false;
      });
  let c =
    around ~srcs:[ sine ] (Block.stateless ~kind ~n_in:1 ~n_out:1 (fun _ ins -> ins))
  in
  let r =
    Silvm_diff.run ~steps ~engine ~name:"lk" ~project:c.project
      (Compile.compile ~default_dt:0.01 c.model)
  in
  Alcotest.(check int) "steps run" 0 r.Silvm_diff.steps_run;
  match r.Silvm_diff.divergence with
  | Some d ->
      Alcotest.(check int) "at step 0" 0 d.Silvm_diff.d_step;
      Alcotest.(check bool)
        ("d_sil reports unsupported: " ^ d.Silvm_diff.d_sil)
        true
        (String.starts_with ~prefix:"unsupported: " d.Silvm_diff.d_sil)
  | None -> Alcotest.fail "opaque code ran without a divergence"

(* ---- the servo in both block sets, float and fixed, opt off and on ---- *)

let servo_case block_set variant opt () =
  let config = { Servo_system.default_config with Servo_system.block_set; variant } in
  let b = Servo_system.build ~config () in
  let comp = Compile.compile b.Servo_system.controller in
  Test_silvm.check_no_divergence "servo"
    (Silvm_diff.run ~steps:200 ~opt ~engine:Silvm_diff.Both
       ~plant:(Silvm_diff.Plant (Servo_system.pil_plant b, Servo_system.pil_driver b))
       ~name:"servo" ~project:b.Servo_system.project comp)

let servo_matrix =
  List.concat_map
    (fun (set_name, set) ->
      List.concat_map
        (fun (v_name, v) ->
          List.map
            (fun opt ->
              Alcotest.test_case
                (Printf.sprintf "servo %s %s opt %b" set_name v_name opt)
                `Quick (servo_case set v opt))
            [ false; true ])
        [ ("float", Servo_system.Float_pid); ("fixed", Servo_system.Fixed_pid) ])
    [ ("PE", Servo_system.Pe_blocks); ("AUTOSAR", Servo_system.Autosar_blocks) ]

let suite =
  Alcotest.test_case "battery covers Blockgen.kinds" `Quick test_covers_blockgen
  :: List.map test_case (std_cases @ periph_cases @ custom_cases)
  @ List.concat_map
      (fun (set_name, make) ->
        List.map
          (fun (e_name, engine) ->
            Alcotest.test_case
              (Printf.sprintf "%s writes its latch (%s)" set_name e_name)
              `Quick
              (test_dio_out_write make engine))
          [ ("interp", `Interp); ("compiled", `Compiled) ])
      [ ("PE_BitIO_Out", Periph_blocks.bit_io_out); ("AR_Dio_Out", Autosar_blocks.dio_out) ]
  @ Alcotest.test_case "UniformNoise seed 0 draws noise" `Quick test_noise_seed0
    :: servo_matrix
  @ List.map
      (fun (e_name, engine) ->
        Alcotest.test_case
          (Printf.sprintf "unsupported code is a divergence (%s)" e_name)
          `Quick
          (test_unsupported_is_divergence ~in_init:false engine))
      [ ("interp", Silvm_diff.Interp); ("compiled", Silvm_diff.Compiled) ]
  @ [
      Alcotest.test_case "unsupported init code is a divergence" `Quick
        (test_unsupported_is_divergence ~in_init:true Silvm_diff.Compiled);
    ]
