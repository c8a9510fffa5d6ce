(* Campaign jobs shared by the CLI and `ecsd serve`: one type, one
   validator, one runner, one set of encoders. *)

type model = Servo | Isr_demo
type seeds = Seed of int | Sweep of int

type diff = {
  model : model;
  steps : int;
  ulp : int;
  opt : bool;
  engine : Silvm_diff.engine;
  scenario : string option;
  seeds : seeds;
}

type faultsim = {
  scenario : string;
  seeds : int;
  t_end : float;
  policy : Supervise.policy option;
}

type t = Diff of diff | Faultsim of faultsim | Stats

let default_diff =
  { model = Servo; steps = 1000; ulp = 0; opt = false;
    engine = Silvm_diff.Compiled; scenario = None; seeds = Seed 1 }

let default_faultsim =
  { scenario = "encoder-dropout"; seeds = 5; t_end = 2.0; policy = None }

let model_name = function Servo -> "servo" | Isr_demo -> "isr_demo"

let name = function
  | Diff d -> model_name d.model
  | Faultsim _ -> "servo"
  | Stats -> "stats"

let engine_name = function
  | Silvm_diff.Interp -> "interp"
  | Silvm_diff.Compiled -> "compiled"
  | Silvm_diff.Both -> "both"

let engine_of_name s =
  List.find_opt (fun e -> engine_name e = s) Silvm_diff.[ Compiled; Interp; Both ]

(* ---- validation ---- *)

let validate job =
  let at_least_1 what n =
    if n >= 1 then Ok () else Error (Printf.sprintf "%s must be >= 1, got %d" what n)
  in
  let ( let* ) = Result.bind in
  let* () =
    match job with
    | Diff d -> (
        let* () = at_least_1 "step count" d.steps in
        match d.seeds with
        | Seed _ -> Ok ()
        | Sweep n ->
            let* () = at_least_1 "seed count" n in
            if d.scenario <> None then Ok ()
            else Error "a seed sweep varies the fault stream; give a fault scenario")
    | Faultsim f ->
        let* () = at_least_1 "seed count" f.seeds in
        if Float.is_finite f.t_end && f.t_end > 0.0 then Ok ()
        else Error (Printf.sprintf "t_end must be finite and > 0, got %g" f.t_end)
    | Stats -> Ok ()
  in
  Ok job

let diff_job ?(model = "servo") ?(steps = default_diff.steps)
    ?(ulp = default_diff.ulp) ?(opt = default_diff.opt)
    ?(engine = default_diff.engine) ?scenario ?fault_seed ?(seeds = 1) () =
  match List.assoc_opt model [ ("servo", Servo); ("isr-demo", Isr_demo) ] with
  | None -> Error (Printf.sprintf "unknown model %S (choose servo or isr-demo)" model)
  | Some model ->
      let seeds =
        if seeds <> 1 then Sweep seeds
        else Option.fold ~none:default_diff.seeds ~some:(fun s -> Seed s) fault_seed
      in
      validate (Diff { model; steps; ulp; opt; engine; scenario; seeds })

let faultsim_job ?(scenario = default_faultsim.scenario)
    ?(seeds = default_faultsim.seeds) ?(t_end = default_faultsim.t_end) ?policy
    () =
  validate (Faultsim { scenario; seeds; t_end; policy })

(* ---- serve's line grammar ---- *)

let usage =
  "faultsim SCENARIO [SEEDS [T_END]]  |  diff MODEL [STEPS [SCENARIO [SEED \
   [ENGINE]]]]  |  stats  (SCENARIO '-' = none; ENGINE \
   compiled|interp|both)"

(* Positional arguments fill the optional ones in order; a missing
   trailing argument keeps its default. *)
let of_line line =
  let ( let* ) = Result.bind in
  let num what conv = function
    | None -> Ok None
    | Some s -> (
        match conv s with
        | Some _ as v -> Ok v
        | None -> Error (Printf.sprintf "bad %s %S" what s))
  in
  let job =
    match String.split_on_char ' ' line |> List.filter (fun s -> String.trim s <> "") with
    | [ "stats" ] -> Ok Stats
    | "faultsim" :: scenario :: rest when List.length rest <= 2 ->
        let arg = List.nth_opt rest in
        let* seeds = num "seed count" int_of_string_opt (arg 0) in
        let* t_end = num "t_end" float_of_string_opt (arg 1) in
        faultsim_job ~scenario ?seeds ?t_end ()
    | "diff" :: model :: rest when List.length rest <= 4 ->
        let arg = List.nth_opt rest in
        let* steps = num "step count" int_of_string_opt (arg 0) in
        let scenario = match arg 1 with Some "-" -> None | s -> s in
        let* fault_seed = num "seed" int_of_string_opt (arg 2) in
        let* engine =
          num "engine" engine_of_name (arg 3)
          |> Result.map_error (fun e -> e ^ " (compiled|interp|both)")
        in
        diff_job ~model ?steps ?scenario ?fault_seed ?engine ()
    | _ -> Error "bad job line"
  in
  Result.map_error (fun what -> Printf.sprintf "%s (expected: %s)" what usage) job

(* ---- running ---- *)

(* A partial report is its header, known once the scenario resolves,
   plus one row per completed run; rows arrive from worker domains. *)
type progress = {
  lock : Mutex.t;
  mutable header : (string * Bench_json.t) list option;
  mutable rows : (int * Bench_json.t) list;
}

let progress () = { lock = Mutex.create (); header = None; rows = [] }
let note progress f = Option.iter (fun p -> Mutex.protect p.lock (fun () -> f p)) progress
let add_row progress seed row = note progress (fun p -> p.rows <- (seed, row) :: p.rows)

type outcome =
  | Diffed of {
      job : diff;
      scenario : Fault_scenario.t option;
      reports : (int * Silvm_diff.report) list;
    }
  | Campaign of { job : faultsim; result : Fault_campaign.result }
  | Snapshot of Obs.snapshot

let resolve_scenario ref_ =
  match Fault_scenario.find ref_ with
  | Ok s -> s
  | Error e -> raise (Supervise.Bad_request e)

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

open Bench_json

let divergence_json (d : Silvm_diff.divergence option) =
  match d with
  | None -> Null
  | Some d ->
      Obj
        [
          ("step", Int d.Silvm_diff.d_step);
          ("time", Float d.Silvm_diff.d_time);
          ("block", Str d.Silvm_diff.d_block);
          ("port", Int d.Silvm_diff.d_port);
          ("mil", Str d.Silvm_diff.d_mil);
          ("sil", Str d.Silvm_diff.d_sil);
          ("active_faults", Arr (List.map (fun f -> Str f) d.Silvm_diff.d_faults));
        ]

let diff_row (seed, r) =
  Obj
    [
      ("seed", Int seed);
      ("steps_run", Int r.Silvm_diff.steps_run);
      ("divergence", divergence_json r.Silvm_diff.divergence);
    ]

(* What one domain builds once and reuses for every seed it runs: the
   model with its project and compile, and how its sensors are fed. *)
let diff_context (cfg : Servo_system.config) = function
  | Servo ->
      let built = Servo_system.build ~config:cfg () in
      let plant () =
        Silvm_diff.Plant (Servo_system.pil_plant built, Servo_system.pil_driver built)
      in
      (built.Servo_system.project, Compile_cache.compile built.Servo_system.controller,
       `Plant plant)
  | Isr_demo ->
      let m, project = Check.hazard_demo ~mcu:cfg.Servo_system.mcu () in
      (* deterministic sweep across the 12-bit ADC range *)
      (project, Compile_cache.compile m, `Stimulus (fun k -> [| k * 37 mod 4096 |]))

let run_diff ?pool ?progress cfg (d : diff) =
  let scenario = Option.map resolve_scenario d.scenario in
  let seeds =
    match d.seeds with Seed s -> [| s |] | Sweep n -> Array.init n (fun i -> i + 1)
  in
  let sweep = match (d.seeds, scenario) with Sweep n, Some s -> Some (n, s) | _ -> None in
  Option.iter
    (fun (n, s) ->
      note progress (fun p ->
          p.header <-
            Some
              [ ("name", Str (model_name d.model)); ("partial", Bool true);
                ("scenario", Str s.Fault_scenario.sname); ("seeds_requested", Int n) ]))
    sweep;
  let cfg =
    if scenario = None then cfg else { cfg with Servo_system.with_supervisor = true }
  in
  let float_mode = if d.ulp > 0 then Silvm_diff.Ulp d.ulp else Silvm_diff.Exact in
  let one (project, comp, feed) i =
    let seed = seeds.(i) in
    Option.iter
      (fun (_, s) -> Flight.begin_track ~id:seed ~name:s.Fault_scenario.sname)
      sweep;
    let injector = Option.map (fun s -> injector_of s seed) scenario in
    let plant, stimulus =
      match feed with `Plant p -> (Some (p ()), None) | `Stimulus s -> (None, Some s)
    in
    let r =
      Silvm_diff.run ~steps:d.steps ~float_mode ~opt:d.opt ~engine:d.engine ?plant
        ?stimulus ?injector ~name:(model_name d.model) ~project comp
    in
    add_row progress seed (diff_row (seed, r));
    (seed, r)
  in
  let n = Array.length seeds in
  let reports =
    match pool with
    | Some pool when n > 1 ->
        (* every domain builds its own context (the model compile dedups
           through the cache); this one builds first, so a configuration
           error surfaces here rather than on a worker *)
        Exec_pool.with_contexts pool
          (fun () -> diff_context cfg d.model)
          (fun ctx ->
            ignore (ctx ());
            Exec_pool.run_map pool n (fun i -> one (ctx ()) i))
    | _ -> Array.init n (one (diff_context cfg d.model))
  in
  Diffed { job = d; scenario; reports = Array.to_list reports }

let run_faultsim ?pool ?progress cfg (f : faultsim) =
  let scenario = resolve_scenario f.scenario in
  note progress (fun p ->
      p.header <-
        Some
          [ ("partial", Bool true); ("model", Str "servo");
            ("scenario", Str scenario.Fault_scenario.sname);
            ("seeds_requested", Int f.seeds) ]);
  let opt_f = function Some s -> Float s | None -> Null in
  let on_run (r : Fault_campaign.run_result) =
    add_row progress r.Fault_campaign.seed
      (Obj
         [
           ("seed", Int r.Fault_campaign.seed);
           ("detection_s", opt_f r.Fault_campaign.detection_s);
           ("recovery_s", opt_f r.Fault_campaign.recovery_s);
           ("wdog_bites", Int r.Fault_campaign.wdog_bites);
         ])
  in
  let mk_subject () = fst (Servo_system.faultsim_subject ~config:cfg ~scenario ()) in
  let t_end = f.t_end and seeds = f.seeds and policy = f.policy in
  let result =
    match pool with
    | Some pool when seeds > 1 ->
        Fault_campaign.run_parallel ~t_end ~seeds ~pool ~scenario ~on_run ?policy
          mk_subject
    | _ -> Fault_campaign.run ~t_end ~seeds ~scenario ~on_run ?policy (mk_subject ())
  in
  Campaign { job = f; result }

let run ?pool ?progress cfg = function
  | Diff d -> run_diff ?pool ?progress cfg d
  | Faultsim f -> run_faultsim ?pool ?progress cfg f
  | Stats -> Snapshot (Obs.snapshot ())

(* ---- encoding ---- *)

let diverged (_, r) = r.Silvm_diff.divergence <> None

let exit_code = function
  | Diffed { reports; _ } -> if List.exists diverged reports then 1 else 0
  | Campaign { result = r; _ } ->
      if Fault_campaign.all_recovered r && r.Fault_campaign.failures = [] then 0 else 1
  | Snapshot _ -> 0

let scenario_json = function Some s -> Str s.Fault_scenario.sname | None -> Null

let fields ~jobs_done ~uptime_s outcome =
  let exit = ("exit", Int (exit_code outcome)) in
  match outcome with
  | Diffed { job; scenario; reports } ->
      let _, r =
        match List.find_opt diverged reports with Some x -> x | None -> List.hd reports
      in
      [
        ("job", Str "diff");
        ("model", Str (model_name job.model));
        ("engine", Str (engine_name job.engine));
        ("steps_run", Int r.Silvm_diff.steps_run);
        ("scenario", scenario_json scenario);
        ("divergence", divergence_json r.Silvm_diff.divergence);
        exit;
      ]
  | Campaign { job; result = r } ->
      [
        ("job", Str "faultsim");
        ("scenario", Str r.Fault_campaign.scenario.Fault_scenario.sname);
        ("seeds", Int job.seeds);
        ("t_end", Float r.Fault_campaign.t_end);
        ("all_detected", Bool (Fault_campaign.all_detected r));
        ("all_recovered", Bool (Fault_campaign.all_recovered r));
        ( "wdog_bites",
          Int (List.fold_left (fun a x -> a + x.Fault_campaign.wdog_bites) 0 r.Fault_campaign.runs) );
        ("wall_s", Float r.Fault_campaign.wall_s);
        exit;
      ]
  | Snapshot snap ->
      let hist (k, hs) =
        if hs.Obs.hs_count = 0 then None
        else
          Some
            ( k,
              Obj
                [ ("count", Int hs.Obs.hs_count); ("p50", Float hs.Obs.hs_p50);
                  ("p95", Float hs.Obs.hs_p95); ("max", Float hs.Obs.hs_max) ] )
      in
      [
        ("job", Str "stats");
        ("jobs_done", Int jobs_done);
        ("wall_s", Float (Telemetry.wall uptime_s));
        ( "counters",
          Obj
            (List.filter_map
               (fun (k, v) -> if v = 0 then None else Some (k, Int v))
               snap.Obs.counters) );
        ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) snap.Obs.gauges));
        ("hists", Obj (List.filter_map hist snap.Obs.hists));
        exit;
      ]

(* Serve's per-job exit codes, documented in `ecsd serve --help`: 0
   success, 1 job-criterion failure (divergence / unrecovered run), 2 bad
   request, 3 deadline timeout, 4 crash, 5 poisoned (retries exhausted),
   6 shed (refused or killed). *)
let supervised_exit = function
  | Supervise.Timeout _ -> 3
  | Supervise.Crashed (Supervise.Bad_request _) -> 2
  | Supervise.Crashed _ -> 4
  | Supervise.Transient _ -> 4
  | Supervise.Poisoned _ -> 5
  | Supervise.Shed -> 6

let error_fields ~attempts err =
  [
    ("job", Str (match err with Supervise.Shed -> "shed" | _ -> "error"));
    ("class", Str (Supervise.error_class err));
    ("error", Str (Supervise.error_message err));
    ("attempts", Int attempts);
    ("exit", Int (supervised_exit err));
  ]

let supervised_fields (o : _ Supervise.outcome) =
  match o.Supervise.result with
  | Ok fields when o.Supervise.attempts > 1 ->
      fields @ [ ("attempts", Int o.Supervise.attempts) ]
  | Ok fields -> fields
  | Error err -> error_fields ~attempts:o.Supervise.attempts err

let report_json = function
  | Diffed { job; scenario; reports } -> (
      let head = [ ("name", Str (model_name job.model)); ("git_rev", Str (git_rev ()));
                   ("engine", Str (engine_name job.engine)) ] in
      match (job.seeds, reports) with
      | Seed _, [ (_, r) ] ->
          let rate t = if t > 0.0 then float_of_int r.Silvm_diff.steps_run /. t else 0.0 in
          Obj
            (head
            @ [
                ("steps_requested", Int r.Silvm_diff.steps_requested);
                ("steps_run", Int r.Silvm_diff.steps_run);
                ("signals", Int r.Silvm_diff.signals);
                ("float_ulp", Int job.ulp);
                ("scenario", scenario_json scenario);
                ("mil_steps_per_s", Float (rate r.Silvm_diff.mil_seconds));
                ("sil_steps_per_s", Float (rate r.Silvm_diff.sil_seconds));
                ("divergence", divergence_json r.Silvm_diff.divergence);
              ])
      | _ ->
          Obj
            (head
            @ [
                ("steps_requested", Int job.steps);
                ("signals", Int (snd (List.hd reports)).Silvm_diff.signals);
                ("float_ulp", Int job.ulp);
                ("scenario", scenario_json scenario);
                ("seeds", Int (List.length reports));
                ("divergences", Int (List.length (List.filter diverged reports)));
                ("runs", Arr (List.map diff_row reports));
              ]))
  | Campaign { result; _ } -> Fault_campaign.to_json ~model:"servo" result
  | Snapshot _ as o -> Obj (fields ~jobs_done:0 ~uptime_s:0.0 o)

let partial_json p =
  Mutex.protect p.lock @@ fun () ->
  Option.map
    (fun header ->
      let rows = List.sort (fun (a, _) (b, _) -> compare a b) p.rows in
      Obj (header @ [ ("seeds_done", Int (List.length rows)); ("runs", Arr (List.map snd rows)) ]))
    p.header
