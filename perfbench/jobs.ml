(* The three workloads: seeded job streams, the set-up a long-lived
   process pays once, each job's timed part and its output checks.

   Every job goes through the libraries' public entry points the way
   the CLI drives them (flight recorder armed, Obs off unless the run
   is traced). Layer calls the benchmark makes itself are wrapped in
   [Util.layer] so the traced run can attribute them. *)

open Util

(* A job's timed part returns its untimed output check: [None] when the
   output is right, [Some reason] when it is not. *)
type job = { label : string; exec : unit -> unit -> string option }

type t = {
  name : string;
  pooled : bool;  (** jobs shard over the worker pool *)
  warm : unit -> unit;
      (** the set-up a long-lived process pays once: warm the
          content-hashed caches for every config the stream draws *)
  stream : seed:int -> pool:Exec_pool.t option -> unit -> job;
  final_check : seed:int -> string list;
      (** reference checks run after the timed window *)
}

let servo_config ?(block_set = Servo_system.Pe_blocks) ?(supervisor = false)
    mcu fixed =
  {
    Servo_system.default_config with
    Servo_system.mcu;
    variant = (if fixed then Servo_system.Fixed_pid else Servo_system.Float_pid);
    block_set;
    with_supervisor = supervisor;
  }

let mcu_name (m : Mcu_db.t) = m.Mcu_db.name
let variant_name fixed = if fixed then "fixed" else "float"

(* ---------------- campaign ---------------- *)

type cjob = {
  c_mcu : Mcu_db.t;
  c_fixed : bool;
  c_scn : Fault_scenario.t;
  c_seeds : int;
}

let campaign_mcus =
  [ Mcu_db.mc56f8367; Mcu_db.mc56f8323; Mcu_db.mcf5213; Mcu_db.mpc5554 ]

let campaign_configs =
  List.concat_map (fun m -> [ (m, false); (m, true) ]) campaign_mcus

let campaign_t_end = 2.0

(* Expected per-seed outcome (seeds 1..8) of every scenario on every
   config, as "detected/recovered" letters: D = detected and recovered,
   u = undetected (and so trivially recovered). overrun-burst on
   MPC5554 is fast enough to absorb the burst: the supervisor never
   trips and the watchdog never bites, which is the right outcome. *)
let campaign_expected scn (mcu : Mcu_db.t) =
  if scn = "overrun-burst" && mcu.Mcu_db.name = "MPC5554" then "uuuuuuuu"
  else "DDDDDDDD"

let outcome_letter (r : Fault_campaign.run_result) =
  match (r.Fault_campaign.detected, r.Fault_campaign.recovered) with
  | true, true -> 'D'
  | false, true -> 'u'
  | true, false -> 'R'
  | false, false -> 'x'

let subject_of j () =
  layer "core.subject_build" (fun () ->
      fst
        (Servo_system.faultsim_subject
           ~config:(servo_config j.c_mcu j.c_fixed)
           ~scenario:j.c_scn ()))

let campaign_label j =
  Printf.sprintf "faultsim %s --mcu %s%s --seeds %d" j.c_scn.Fault_scenario.sname
    (mcu_name j.c_mcu)
    (if j.c_fixed then " --fixed" else "")
    j.c_seeds

let report_doc r =
  layer "report.to_json" (fun () ->
      Bench_json.to_string (Fault_campaign.to_json ~model:"servo" r))

let campaign_check j (r : Fault_campaign.result) =
  let expected = campaign_expected j.c_scn.Fault_scenario.sname j.c_mcu in
  let got =
    String.init (List.length r.Fault_campaign.runs) (fun i ->
        outcome_letter (List.nth r.Fault_campaign.runs i))
  in
  if r.Fault_campaign.failures <> [] then Some "seed failures"
  else if got <> String.sub expected 0 j.c_seeds then
    Some (Printf.sprintf "outcomes %s, expected %s" got (String.sub expected 0 j.c_seeds))
  else None

(* jobs whose reports the final check re-derives sequentially *)
let campaign_log : (cjob * string) list ref = ref []
let campaign_log_lock = Mutex.create ()

let zero_wall r = { r with Fault_campaign.wall_s = 0.0 }

let campaign_stream ~seed ~pool =
  let rng = Random.State.make [| seed; 1 |] in
  let configs = deck rng campaign_configs in
  let scns = deck rng Fault_scenario.builtins in
  let seeds = deck rng [ 4; 5; 6; 7; 8 ] in
  let pool = Option.get pool in
  fun () ->
    let c_mcu, c_fixed = draw configs in
    let j = { c_mcu; c_fixed; c_scn = draw scns; c_seeds = draw seeds } in
    {
      label = campaign_label j;
      exec =
        (fun () ->
          let r =
            layer "exec.run_parallel" (fun () ->
                Fault_campaign.run_parallel ~t_end:campaign_t_end
                  ~seeds:j.c_seeds ~pool ~scenario:j.c_scn (subject_of j))
          in
          ignore (report_doc r);
          fun () ->
            Mutex.protect campaign_log_lock (fun () ->
                campaign_log :=
                  (j, Bench_json.to_string
                        (Fault_campaign.to_json ~model:"servo" (zero_wall r)))
                  :: !campaign_log);
            campaign_check j r);
    }

let campaign_warm () =
  List.iter
    (fun (m, fixed) ->
      ignore
        (subject_of
           { c_mcu = m; c_fixed = fixed; c_scn = List.hd Fault_scenario.builtins;
             c_seeds = 1 }
           ()))
    campaign_configs

(* Sharded reports must equal a sequential run of the same job, field
   for field once wall_s is zeroed: re-run a seeded sample of the
   jobs of this run on this domain and compare the documents. *)
let campaign_final ~seed =
  let log = Array.of_list (List.rev !campaign_log) in
  campaign_log := [];
  let n = Array.length log in
  let rng = Random.State.make [| seed; 7 |] in
  let sample = if n = 0 then [] else List.init (min 3 n) (fun _ -> Random.State.int rng n) in
  List.filter_map
    (fun i ->
      let j, doc = log.(i) in
      let r =
        Fault_campaign.run ~t_end:campaign_t_end ~seeds:j.c_seeds
          ~scenario:j.c_scn (subject_of j ())
      in
      let ref_doc =
        Bench_json.to_string (Fault_campaign.to_json ~model:"servo" (zero_wall r))
      in
      if ref_doc = doc then None
      else Some (campaign_label j ^ ": sharded report differs from sequential"))
    sample

let campaign =
  {
    name = "campaign";
    pooled = true;
    warm = campaign_warm;
    stream = campaign_stream;
    final_check = campaign_final;
  }

(* ---------------- lockstep ---------------- *)

type lmodel = Servo of bool | Isr

type ljob = { l_model : lmodel; l_scn : Fault_scenario.t; l_seeds : int }

let lockstep_steps = 2000
let lockstep_mcu = Mcu_db.mc56f8367

(* the builtin scenarios that perturb the sensor stream, which is all a
   diff injector touches *)
let sensor_scenarios =
  List.filter_map Fault_scenario.builtin
    [ "encoder-dropout"; "sensor-stuck"; "noise-burst"; "encoder-glitch" ]

let lmodel_name = function
  | Servo fixed -> "servo" ^ if fixed then " --fixed" else ""
  | Isr -> "isr-demo"

type lctx =
  | Lservo of Servo_system.built * Compile.t
  | Lisr of Bean_project.t * Compile.t

(* a model ready for diffing, as `ecsd diff --scenario` builds it: the
   servo gains its safe-state supervisor *)
let lockstep_ctx model () =
  match model with
  | Servo fixed ->
      let built =
        layer "core.build" (fun () ->
            Servo_system.build
              ~config:(servo_config ~supervisor:true lockstep_mcu fixed)
              ())
      in
      let comp =
        layer "exec.compile_cache" (fun () ->
            Compile_cache.compile built.Servo_system.controller)
      in
      Lservo (built, comp)
  | Isr ->
      let m, project = Check.hazard_demo ~mcu:lockstep_mcu () in
      let comp = layer "exec.compile_cache" (fun () -> Compile_cache.compile m) in
      Lisr (project, comp)

let injector_of scenario seed =
  let inj = Fault_inject.arm ~seed scenario in
  {
    Silvm_diff.inj_sensors =
      (fun ~step:_ ~time codes ->
        Array.mapi
          (fun slot v -> Fault_inject.sensor inj ~slot ~time v land 0xFFFF)
          codes);
    inj_active = (fun ~time -> Fault_inject.active_names inj ~time);
  }

let isr_stimulus k = [| k * 37 mod 4096 |]

let diff_seed ?(steps = lockstep_steps) ctx scn seed =
  Flight.begin_track ~id:seed ~name:scn.Fault_scenario.sname;
  let injector = injector_of scn seed in
  layer "lockstep.seed" (fun () ->
      match ctx with
      | Lservo (built, comp) ->
          Silvm_diff.run ~steps
            ~plant:
              (Silvm_diff.Plant
                 (Servo_system.pil_plant built, Servo_system.pil_driver built))
            ~injector ~name:"servo" ~project:built.Servo_system.project comp
      | Lisr (project, comp) ->
          Silvm_diff.run ~steps ~stimulus:isr_stimulus ~injector
            ~name:"isr_demo" ~project comp)

let diff_check ~steps reports =
  Array.to_list reports
  |> List.find_map (fun (r : Silvm_diff.report) ->
         match r.Silvm_diff.divergence with
         | Some d ->
             Some
               (Printf.sprintf "divergence at step %d on %s port %d"
                  d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port)
         | None when r.Silvm_diff.steps_run <> steps ->
             Some (Printf.sprintf "%d of %d steps run" r.Silvm_diff.steps_run steps)
         | None -> None)

(* A context per domain per job, as `ecsd diff` builds it in each
   process. The CLI makes a fresh DLS key per sweep; a long-lived
   process doing that would keep every job's contexts alive (DLS slots
   are never reclaimed), so one slot per domain holds the current
   job's context instead. *)
let ctx_slot : (int * lctx) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let job_ids = Atomic.make 0

(* one `ecsd diff --scenario S --seeds N --jobs 2` job: each domain
   builds its own context (the compile dedups through the cache), the
   seeds shard over the pool and merge in seed order *)
let lockstep_job pool j () =
  let id = Atomic.fetch_and_add job_ids 1 in
  let ctx () =
    let slot = Domain.DLS.get ctx_slot in
    match !slot with
    | Some (i, c) when i = id -> c
    | _ ->
        let c = lockstep_ctx j.l_model () in
        slot := Some (id, c);
        c
  in
  ignore (ctx ());
  let reports =
    Exec_pool.run_map pool j.l_seeds (fun i -> diff_seed (ctx ()) j.l_scn (i + 1))
  in
  fun () -> diff_check ~steps:lockstep_steps reports

let lockstep_models = [ Servo false; Servo true; Isr ]

(* model and seed count come from one deck of all their pairs: job
   latency clusters by (model, seeds), so the pairs' mix must stay
   balanced for the median to stay put *)
let lockstep_stream ~seed ~pool =
  let rng = Random.State.make [| seed; 2 |] in
  let shapes =
    deck rng
      (List.concat_map (fun m -> List.map (fun n -> (m, n)) [ 2; 3; 4 ]) lockstep_models)
  in
  let scns = deck rng sensor_scenarios in
  let pool = Option.get pool in
  fun () ->
    let l_model, l_seeds = draw shapes in
    let j = { l_model; l_scn = draw scns; l_seeds } in
    {
      label =
        Printf.sprintf "diff %s --scenario %s --seeds %d" (lmodel_name j.l_model)
          j.l_scn.Fault_scenario.sname j.l_seeds;
      exec = lockstep_job pool j;
    }

let lockstep_warm () =
  List.iter
    (fun model ->
      match lockstep_ctx model () with
      | Lservo (built, comp) ->
          ignore
            (Silvm_app.create ~name:"servo" ~project:built.Servo_system.project
               comp)
      | Lisr (project, comp) ->
          ignore (Silvm_app.create ~name:"isr_demo" ~project comp))
    lockstep_models

let lockstep =
  {
    name = "lockstep";
    pooled = true;
    warm = lockstep_warm;
    stream = lockstep_stream;
    final_check = (fun ~seed:_ -> []);
  }

(* ---------------- build ---------------- *)

type bmodel = Bservo of bool * Servo_system.block_set | Bisr

type bjob = { b_model : bmodel; b_mcu : Mcu_db.t; b_opt : bool }

let bmodel_name = function
  | Bservo (fixed, bs) ->
      Printf.sprintf "servo %s %s" (variant_name fixed)
        (match bs with Servo_system.Pe_blocks -> "pe" | Servo_system.Autosar_blocks -> "autosar")
  | Bisr -> "isr-demo"

let build_label j =
  Printf.sprintf "%s --mcu %s%s" (bmodel_name j.b_model) (mcu_name j.b_mcu)
    (if j.b_opt then " --opt" else "")

(* the whole config catalogue the stream draws from *)
let build_catalogue =
  let models =
    List.concat_map
      (fun fixed ->
        [ Bservo (fixed, Servo_system.Pe_blocks);
          Bservo (fixed, Servo_system.Autosar_blocks) ])
      [ false; true ]
    @ [ Bisr ]
  in
  List.concat_map
    (fun b_model ->
      List.concat_map
        (fun b_mcu ->
          List.map (fun b_opt -> { b_model; b_mcu; b_opt }) [ false; true ])
        Mcu_db.all)
    models

(* Bean verification rejects every model on the HCS12: its PWM cannot
   reach the default 20 kHz carrier (servo) and its ADC has no 12-bit
   mode (isr-demo). That rejection is the correct outcome. *)
let build_expect_rejected j = mcu_name j.b_mcu = "MC9S12DP256"

(* Known defect, reported rather than checked: the AUTOSAR PWM block's
   generated code outputs the ideal ratio (in/65535) while its MIL
   model outputs the counter-quantised duty, so MIL and SIL disagree on
   pwm port 0 from step 0. AUTOSAR configs still run the whole timed
   pipeline; the lock-step check covers the PE block set and isr-demo
   until the two agree. *)
let build_lockstep_checked j =
  match j.b_model with
  | Bservo (_, Servo_system.Autosar_blocks) -> false
  | Bservo (_, Servo_system.Pe_blocks) | Bisr -> true

type built_app = {
  a_name : string;
  a_project : Bean_project.t;
  a_comp : Compile.t;
  a_servo : Servo_system.built option;
  a_sil_units : C_ast.cunit list;  (** what the closure compiler lifts *)
  a_loc : int;
  a_findings : int;
}

type build_outcome = Rejected of string | Built of built_app

(* One cold, single-domain regeneration: build and verify, compile,
   generate, print, closure-compile, analyse. *)
let build_pipeline j =
  Compile_cache.clear ();
  Silvm_compile.cache_clear ();
  let source =
    match j.b_model with
    | Bservo (fixed, block_set) -> (
        match
          layer "core.build" (fun () ->
              Servo_system.build ~config:(servo_config ~block_set j.b_mcu fixed) ())
        with
        | built ->
            Ok ("servo", built.Servo_system.controller, built.Servo_system.project,
                Some built)
        | exception Invalid_argument msg -> Error msg)
    | Bisr -> (
        match Check.hazard_demo ~mcu:j.b_mcu () with
        | m, project -> Ok ("isr_demo", m, project, None)
        | exception Invalid_argument msg -> Error msg)
  in
  match source with
  | Error msg -> Rejected msg
  | Ok (name, model, project, servo) -> (
      let comp = layer "model.compile" (fun () -> Compile.compile model) in
      match
        layer (if j.b_opt then "peert.generate_opt" else "peert.generate") (fun () ->
            Target.generate ~opt:j.b_opt ~name ~project comp)
      with
      | exception Target.Codegen_error msg -> Rejected msg
      | arts ->
          let units =
            arts.Target.model_h :: arts.Target.model_c :: arts.Target.main_c
            :: arts.Target.hal
          in
          let loc =
            layer "cgen.print" (fun () ->
                List.fold_left
                  (fun n u -> n + C_print.loc (C_print.print_unit u))
                  0 units)
          in
          let sil_units = [ arts.Target.model_h; arts.Target.model_c ] in
          ignore
            (layer "silvm.closure_compile" (fun () -> Silvm_compile.compile sil_units));
          let report = layer "analysis.check" (fun () -> Check.run ~project model) in
          Built
            {
              a_name = name;
              a_project = project;
              a_comp = comp;
              a_servo = servo;
              a_sil_units = sil_units;
              a_loc = loc;
              a_findings = List.length report.Check.findings;
            })

let build_check_steps = 200

(* untimed: the bean-verify outcome is the expected one, and a short
   MIL<->SIL lock-step on the generated code agrees *)
let build_check j outcome =
  match (outcome, build_expect_rejected j) with
  | Rejected _, true -> None
  | Rejected msg, false -> Some ("unexpected rejection: " ^ msg)
  | Built _, true -> Some "expected a bean-verify rejection"
  | Built a, false when not (build_lockstep_checked j) ->
      if a.a_loc <= 0 then Some "no code generated" else None
  | Built a, false -> (
      let r =
        match a.a_servo with
        | Some built ->
            Silvm_diff.run ~steps:build_check_steps ~opt:j.b_opt
              ~plant:
                (Silvm_diff.Plant
                   (Servo_system.pil_plant built, Servo_system.pil_driver built))
              ~name:a.a_name ~project:a.a_project a.a_comp
        | None ->
            Silvm_diff.run ~steps:build_check_steps ~opt:j.b_opt
              ~stimulus:isr_stimulus ~name:a.a_name ~project:a.a_project a.a_comp
      in
      match diff_check ~steps:build_check_steps [| r |] with
      | Some e -> Some ("lock-step: " ^ e)
      | None -> if a.a_loc <= 0 then Some "no code generated" else None)

let build_stream ~seed ~pool:_ =
  let rng = Random.State.make [| seed; 3 |] in
  let configs = deck rng build_catalogue in
  fun () ->
    let j = draw configs in
    {
      label = build_label j;
      exec =
        (fun () ->
          let o = build_pipeline j in
          fun () -> build_check j o);
    }

let build =
  {
    name = "build";
    pooled = false;
    (* first-touch costs (lazy tables, code pages) paid once per config *)
    warm = (fun () -> List.iter (fun j -> ignore (build_pipeline j)) build_catalogue);
    stream = build_stream;
    final_check = (fun ~seed:_ -> []);
  }

let all = [ campaign; lockstep; build ]
let find name = List.find_opt (fun w -> w.name = name) all
