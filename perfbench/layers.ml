(* The traced run's layer probes and the per-layer metrics.

   Timings come from [Util.layer] spans: those the workload's own jobs
   recorded in the traced slices, plus fixed single-domain probes that
   make sure every layer appears in every workload's traced run. Loops
   that step an engine run muted (library instrumentation off inside
   the bench span), so per-step numbers measure the engine and not the
   tracer. *)

open Util

(* name, unit, better *)
let metrics =
  [
    ("core.subject_build_ms", "ms", "lower");
    ("core.build_ms", "ms", "lower");
    ("model.compile_ms", "ms", "lower");
    ("exec.compile_cache_hit_ratio", "ratio", "higher");
    ("exec.scaling_eff", "ratio", "higher");
    ("exec.worker_busy_frac", "ratio", "higher");
    ("exec.steals", "count", "lower");
    ("engine.step_us", "us", "lower");
    ("engine.minor_words_per_step", "words", "lower");
    ("engine.value_read_ns", "ns", "lower");
    ("fault.inject_overhead_frac", "ratio", "lower");
    ("fault.sensor_perturbations", "count", "higher");
    ("plant.advance_us", "us", "lower");
    ("silvm.step_us", "us", "lower");
    ("silvm.signal_read_ns", "ns", "lower");
    ("silvm.minor_words_per_step", "words", "lower");
    ("silvm.app_create_ms", "ms", "lower");
    ("silvm.compile_cache_hit_ratio", "ratio", "higher");
    ("peert.generate_ms", "ms", "lower");
    ("mir.opt_ms", "ms", "lower");
    ("cgen.print_ms", "ms", "lower");
    ("cgen.generated_loc", "lines", "lower");
    ("silvm.closure_compile_ms", "ms", "lower");
    ("analysis.check_ms", "ms", "lower");
    ("analysis.lint_ms", "ms", "lower");
    ("analysis.range_ms", "ms", "lower");
    ("analysis.concurrency_ms", "ms", "lower");
    ("analysis.misra_ms", "ms", "lower");
    ("analysis.findings", "count", "lower");
    ("mir.lift_opaque_nodes", "count", "lower");
    ("report.to_json_ms", "ms", "lower");
    ("obs.flight_overhead_frac", "ratio", "lower");
    ("obs.trace_overhead_frac", "ratio", "lower");
  ]

let mute f =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* the minor-heap words [f] allocates on this domain, once a first call
   has paid any lazy initialisation *)
let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let encoder_dropout = Option.get (Fault_scenario.builtin "encoder-dropout")
let noise_burst = Option.get (Fault_scenario.builtin "noise-burst")

(* ---- engine: closed loop (campaign, build) or controller only (lockstep) ---- *)

let probe_steps = 4000

let closed_loop_subject () =
  fst (Servo_system.faultsim_subject ~scenario:encoder_dropout ())

(* the armed closed loop, as a campaign seed steps it *)
let closed_loop_run subject () =
  ignore
    (Fault_campaign.throughput ~scenario:encoder_dropout ~steps:probe_steps
       subject)

let lockstep_servo () =
  let built =
    Servo_system.build
      ~config:(Jobs.servo_config ~supervisor:true Jobs.lockstep_mcu false)
      ()
  in
  (built, Compile.compile built.Servo_system.controller)

(* sensor slot -> the MIL value its block carries, as [Silvm_diff]
   injects it *)
let sensor_value comp b v =
  match (Model.spec_of comp.Compile.model b).Block.kind with
  | "PE_Adc" | "AR_Adc" -> Value.of_int Dtype.Uint16 v
  | "PE_QuadDec" | "AR_Icu" -> Value.of_int Dtype.Int32 v
  | _ -> Value.of_bool (v <> 0)

(* controller-only stepping with output overrides, driven by a fixed
   encoder ramp *)
let controller_run comp slots () =
  let sim = Sim.create comp in
  for k = 0 to probe_steps - 1 do
    List.iter
      (fun (b, slot) ->
        let code = if slot = 0 then k * 7 land 0xFFFF else 0 in
        Sim.override_output sim (b, 0) (Some (sensor_value comp b code)))
      slots;
    Sim.step sim
  done

let engine_loop (w : Jobs.t) =
  if w.Jobs.name = "lockstep" then begin
    let built, comp = lockstep_servo () in
    let app =
      Silvm_app.create ~name:"servo" ~project:built.Servo_system.project comp
    in
    controller_run comp (Silvm_app.schedule app).Target.sensor_slots
  end
  else closed_loop_run (closed_loop_subject ())

(* ---- SIL: the compiled application alone ---- *)

let silvm_app () =
  let built, comp = lockstep_servo () in
  let app = Silvm_app.create ~name:"servo" ~project:built.Servo_system.project comp in
  Silvm_app.initialize app;
  app

let silvm_run app () =
  for k = 0 to probe_steps - 1 do
    Silvm_app.set_sensor app 0 (k * 7 land 0xFFFF);
    Silvm_app.step app
  done

(* ---- build layers over the whole config catalogue ---- *)

type catalogue_counts = { loc : int; findings : int; opaque : int }

(* [Eopaque]/[Sopaque] nodes left after [Mir_of_c] lifts the units *)
let count_opaque units =
  let n = ref 0 in
  let expr = function Mir.Eopaque _ -> incr n | _ -> () in
  let stmt = function Mir.Sopaque _ -> incr n | _ -> () in
  List.iter
    (fun (u : C_ast.cunit) ->
      List.iter
        (function
          | C_ast.Func_def f ->
              List.iter (Mir.iter_stmt ~expr ~stmt) (Mir_of_c.lift_stmts f.C_ast.body)
          | _ -> ())
        u.C_ast.items)
    units;
  !n

let catalogue () =
  List.fold_left
    (fun acc j ->
      match Jobs.build_pipeline j with
      | Jobs.Rejected _ -> acc
      | Jobs.Built a ->
          {
            loc = acc.loc + a.Jobs.a_loc;
            findings = acc.findings + a.Jobs.a_findings;
            opaque = acc.opaque + count_opaque a.Jobs.a_sil_units;
          })
    { loc = 0; findings = 0; opaque = 0 }
    Jobs.build_catalogue

(* ---- fault injection: exact perturbation count (needs Obs on) ---- *)

let c_sensor = Obs.counter "fault.sensor_perturbations"

let perturbation_run () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let subject = fst (Servo_system.faultsim_subject ~scenario:noise_burst ()) in
  let c0 = Obs.counter_value c_sensor in
  let r = Fault_campaign.run ~t_end:2.0 ~seeds:2 ~scenario:noise_burst subject in
  (r, Obs.counter_value c_sensor - c0)

(* The counts the self-test requires to repeat exactly: machine- and
   load-independent companions of the timed metrics. *)
let exact_counts (w : Jobs.t) =
  let engine_words = mute (fun () -> minor_words (engine_loop w)) in
  let app = silvm_app () in
  let silvm_words = mute (fun () -> minor_words (silvm_run app)) in
  let c = catalogue () in
  let _, perturbations = perturbation_run () in
  let per_step x = x /. float_of_int probe_steps in
  [
    ("engine.minor_words_per_step", per_step engine_words);
    ("silvm.minor_words_per_step", per_step silvm_words);
    ("cgen.generated_loc", float_of_int c.loc);
    ("mir.lift_opaque_nodes", float_of_int c.opaque);
    ("analysis.findings", float_of_int c.findings);
    ("fault.sensor_perturbations", float_of_int perturbations);
  ]

(* ---- timed probes ---- *)

let reps = 5

(* median seconds of [reps] muted runs of [f] inside a [name] span *)
let timed name f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         layer name (fun () -> mute f);
         now () -. t0))

(* Every signal the diff compares, as [Silvm_diff] enumerates them. *)
let compared_signals comp =
  let m = comp.Compile.model in
  Array.to_list comp.Compile.order
  @ List.concat_map (fun (_, a) -> Array.to_list a) comp.Compile.group_order
  |> List.concat_map (fun b ->
         List.init (Model.spec_of m b).Block.n_out (fun p -> (b, p)))

(* One servo lock-step replayed from public calls, timing the parts the
   step probes do not cover: the plant (seconds per step) and the
   per-signal MIL and SIL reads (seconds per read). *)
let lockstep_replay () =
  let built, comp = lockstep_servo () in
  let app = Silvm_app.create ~name:"servo" ~project:built.Servo_system.project comp in
  Silvm_app.initialize app;
  let sim = Sim.create comp in
  let plant = Servo_system.pil_plant built in
  let d = Servo_system.pil_driver built in
  let inj = Jobs.injector_of encoder_dropout 1 in
  let sched = Silvm_app.schedule app in
  let n_act = List.length sched.Target.actuator_slots in
  let signals = compared_signals comp in
  let n_sig = List.length signals in
  let base = comp.Compile.base_dt in
  let t_plant = ref 0.0 and t_vread = ref 0.0 and t_sread = ref 0.0 in
  let steps = 2000 in
  layer "lockstep.replay" (fun () ->
      mute (fun () ->
          for k = 0 to steps - 1 do
            let time = float_of_int k *. base in
            let t0 = Obs.now_ns () in
            let codes = inj.Silvm_diff.inj_sensors ~step:k ~time (d.Pil_cosim.read_sensors plant ~time) in
            let t1 = Obs.now_ns () in
            List.iter
              (fun (b, slot) ->
                Sim.override_output sim (b, 0) (Some (sensor_value comp b codes.(slot)));
                Silvm_app.set_sensor app slot codes.(slot))
              sched.Target.sensor_slots;
            Sim.step sim;
            Silvm_app.step app;
            let t4 = Obs.now_ns () in
            List.iter (fun s -> ignore (Sim.value sim s)) signals;
            let t5 = Obs.now_ns () in
            List.iter (fun s -> ignore (Silvm_app.signal app s)) signals;
            let t6 = Obs.now_ns () in
            let acts = Array.init n_act (Silvm_app.actuator app) in
            d.Pil_cosim.apply_actuators plant acts;
            d.Pil_cosim.advance plant ~dt:base;
            let t7 = Obs.now_ns () in
            t_plant := !t_plant +. (t1 -. t0) +. (t7 -. t6);
            t_vread := !t_vread +. (t5 -. t4);
            t_sread := !t_sread +. (t6 -. t5)
          done));
  let per x = x *. 1e-9 /. float_of_int steps in
  ( per !t_plant,
    per !t_vread /. float_of_int n_sig,
    per !t_sread /. float_of_int n_sig )

(* ---- exec: the workload's own jobs on the pool and on 1 worker ---- *)

let hist_sum name =
  let s = Obs.hist_summary (Obs.hist name) in
  float_of_int s.Obs.hs_count *. s.Obs.hs_mean

let c_steals = Obs.counter "exec.steals"

(* (scaling efficiency, worker busy fraction, steals) of 4 jobs run
   twice on a 1-worker pool and twice on the full pool; build has no
   pool of its own and borrows campaign jobs *)
let scaling (w : Jobs.t) ~seed ~pool ~pool_size =
  let w = if w.Jobs.pooled then w else Jobs.campaign in
  let n_jobs = 4 in
  let pass pool =
    let stream = w.Jobs.stream ~seed ~pool:(Some pool) in
    let t0 = now () in
    for _ = 1 to n_jobs do
      let j = stream () in
      let (_ : unit -> string option) =
        layer "exec.scaling_job" (fun () -> j.Jobs.exec ())
      in
      ()
    done;
    now () -. t0
  in
  let with_full f =
    match pool with
    | Some p -> f p
    | None -> Exec_pool.with_pool ~workers:pool_size f
  in
  Exec_pool.with_pool ~workers:1 @@ fun single ->
  with_full @@ fun full ->
  let workers = float_of_int (Exec_pool.size full) in
  (* workers publish their task timings when they go idle *)
  let settle () = Unix.sleepf 0.05 in
  let t1 = pass single in
  settle ();
  let busy0 = hist_sum "exec.task_s" and steals0 = Obs.counter_value c_steals in
  let tn = pass full +. pass full in
  settle ();
  let busy = hist_sum "exec.task_s" -. busy0 in
  let steals = Obs.counter_value c_steals - steals0 in
  let t1 = t1 +. pass single in
  (t1 /. (workers *. tn), busy /. (workers *. tn), float_of_int steals)

let hist_ms name = (Obs.hist_summary (Obs.hist name)).Obs.hs_mean *. 1e3

let ratio (hits, misses) =
  if hits + misses = 0 then nan
  else float_of_int hits /. float_of_int (hits + misses)

(* hit ratio of a cache over the traced phase, from its Obs counters
   (the caches' own stats restart whenever a cold job clears them) *)
let cache_ratio prefix =
  let counters = (Obs.snapshot ()).Obs.counters in
  let get k = Option.value (List.assoc_opt (prefix ^ k) counters) ~default:0 in
  ratio (get ".hits", get ".misses")

(* All per-layer metrics. The paired throughput overheads are measured
   by the caller; everything else here, after the caller's traced
   slices have filled the layer table. *)
let collect (w : Jobs.t) ~seed ~pool ~pool_size ~trace_overhead ~flight_overhead =
  (* probes that exercise every layer at least once *)
  for _ = 1 to reps do
    ignore (layer "core.build" (fun () -> Servo_system.build ()));
    let closed_loop = (Servo_system.build ()).Servo_system.closed_loop in
    ignore (layer "model.compile" (fun () -> Compile.compile closed_loop));
    ignore (layer "core.subject_build" closed_loop_subject)
  done;
  let built, comp = lockstep_servo () in
  for _ = 1 to reps do
    ignore
      (layer "silvm.app_create" (fun () ->
           Silvm_app.create ~name:"servo" ~project:built.Servo_system.project comp))
  done;
  let counts = exact_counts w in
  let engine_s = timed "engine.step" (engine_loop w) in
  let app = silvm_app () in
  let silvm_s = timed "silvm.step" (silvm_run app) in
  let plant_s, vread_s, sread_s = lockstep_replay () in
  let subject = closed_loop_subject () in
  let armed () = Fault_campaign.throughput ~scenario:encoder_dropout ~steps:probe_steps subject in
  let unarmed () = Fault_campaign.throughput ~steps:probe_steps subject in
  let inject_overhead =
    median
      (List.init reps (fun i ->
           let a, u =
             if i mod 2 = 0 then
               let a = mute armed in
               (a, mute unarmed)
             else
               let u = mute unarmed in
               (mute armed, u)
           in
           1.0 -. (a /. u)))
  in
  let r, _ = perturbation_run () in
  ignore (Jobs.report_doc r);
  let scaling_eff, busy, steals = scaling w ~seed ~pool ~pool_size in
  let per_step s = s /. float_of_int probe_steps in
  let ms name = snd (layer_ms name) in
  let timed_metrics =
    [
      ("core.subject_build_ms", ms "core.subject_build");
      ("core.build_ms", ms "core.build");
      ("model.compile_ms", ms "model.compile");
      ("exec.compile_cache_hit_ratio", cache_ratio "exec.cache");
      ("exec.scaling_eff", scaling_eff);
      ("exec.worker_busy_frac", busy);
      ("exec.steals", steals);
      ("engine.step_us", per_step engine_s *. 1e6);
      ("engine.value_read_ns", vread_s *. 1e9);
      ("fault.inject_overhead_frac", inject_overhead);
      ("plant.advance_us", plant_s *. 1e6);
      ("silvm.step_us", per_step silvm_s *. 1e6);
      ("silvm.signal_read_ns", sread_s *. 1e9);
      ("silvm.app_create_ms", ms "silvm.app_create");
      ("silvm.compile_cache_hit_ratio", cache_ratio "silvm.cache");
      ("peert.generate_ms", ms "peert.generate");
      ("mir.opt_ms", ms "peert.generate_opt" -. ms "peert.generate");
      ("cgen.print_ms", ms "cgen.print");
      ("silvm.closure_compile_ms", ms "silvm.closure_compile");
      ("analysis.check_ms", ms "analysis.check");
      ("analysis.lint_ms", hist_ms "profile.check.lint_s");
      ("analysis.range_ms", hist_ms "profile.check.range_s");
      ("analysis.concurrency_ms", hist_ms "profile.check.concurrency_s");
      ("analysis.misra_ms", hist_ms "profile.check.misra_s");
      ("report.to_json_ms", ms "report.to_json");
      ("obs.flight_overhead_frac", flight_overhead);
      ("obs.trace_overhead_frac", trace_overhead);
    ]
  in
  let all = counts @ timed_metrics in
  List.map
    (fun (name, unit_, _) ->
      match List.assoc_opt name all with
      | Some v -> (name, v, unit_)
      | None -> failwith ("per-layer metric not measured: " ^ name))
    metrics
