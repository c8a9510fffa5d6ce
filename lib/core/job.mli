(** Campaign jobs: the one model of what [ecsd diff], [ecsd faultsim]
    and an [ecsd serve] line ask for.

    Both front doors build a {!t} — the CLI from its flags through
    {!diff_job} / {!faultsim_job}, serve from a line through {!of_line}
    — and every job passes {!validate} before it runs. {!run} executes
    it; the encoders below turn the outcome into serve's result fields
    and the [DIFF_*.json] / [FAULT_*.json] reports, so a job means the
    same thing whichever way it was submitted. *)

type model = Servo | Isr_demo

type seeds =
  | Seed of int  (** one differential run with this fault seed *)
  | Sweep of int  (** one run per fault seed [1..n]; needs a scenario *)

type diff = {
  model : model;
  steps : int;  (** lock-steps per run *)
  ulp : int;  (** tolerated float drift per signal; 0 = bit-exact *)
  opt : bool;  (** SIL side runs the MIR-optimized unit *)
  engine : Silvm_diff.engine;
  scenario : string option;
      (** fault scenario reference (built-in name or [.fault] file),
          resolved when the job runs *)
  seeds : seeds;
}

type faultsim = {
  scenario : string;  (** resolved when the job runs, like [diff]'s *)
  seeds : int;  (** campaign size: one run per seed [1..seeds] *)
  t_end : float;  (** seconds per run *)
  policy : Supervise.policy option;
      (** per-seed supervision; [None] = the first failure aborts *)
}

type t = Diff of diff | Faultsim of faultsim | Stats

val default_diff : diff
(** servo, 1000 steps, bit-exact, unoptimized, compiled engine, no
    scenario, fault seed 1. *)

val default_faultsim : faultsim
(** encoder-dropout, 5 seeds of 2 s, unsupervised. *)

val model_name : model -> string
(** The report name: ["servo"] or ["isr_demo"]. *)

val name : t -> string
(** What reports and flight bundles are named after: the diffed model,
    or ["servo"] for a campaign. *)

val engine_name : Silvm_diff.engine -> string

val validate : t -> (t, string) result
(** The one range check: seed counts and step counts >= 1, [t_end]
    finite and > 0, a sweep only with a scenario. *)

val diff_job :
  ?model:string ->
  ?steps:int ->
  ?ulp:int ->
  ?opt:bool ->
  ?engine:Silvm_diff.engine ->
  ?scenario:string ->
  ?fault_seed:int ->
  ?seeds:int ->
  unit ->
  (t, string) result
(** A validated diff job; omitted arguments take {!default_diff}'s
    values. [seeds] other than 1 asks for a sweep over seeds [1..seeds]
    (then [fault_seed] is unused). [model] is ["servo"] or
    ["isr-demo"]. *)

val faultsim_job :
  ?scenario:string ->
  ?seeds:int ->
  ?t_end:float ->
  ?policy:Supervise.policy ->
  unit ->
  (t, string) result
(** A validated faultsim job; omitted arguments take
    {!default_faultsim}'s values. *)

val usage : string
(** Serve's line grammar, as [ecsd serve --help] and the README show it. *)

val of_line : string -> (t, string) result
(** Parse one serve line ({!usage}) into a validated job. Never raises;
    every error message ends with the grammar. *)

(** {1 Running} *)

type progress
(** The runs of a job completed so far, shared with the domains that
    run it — what a partial report is made of. *)

val progress : unit -> progress

type outcome =
  | Diffed of {
      job : diff;
      scenario : Fault_scenario.t option;
      reports : (int * Silvm_diff.report) list;  (** by seed, ascending *)
    }
  | Campaign of { job : faultsim; result : Fault_campaign.result }
  | Snapshot of Obs.snapshot  (** the metrics registry, for [Stats] *)

val run :
  ?pool:Exec_pool.t -> ?progress:progress -> Servo_system.config -> t -> outcome
(** Run a validated job on the servo configuration [cfg] (its MCU also
    hosts the isr-demo model). A fault scenario gives the servo its
    safe-state supervisor. With [pool], the seeds shard across its
    domains, each building its own model context; the outcome is the
    same whatever the pool. Each seed of a sweep records on its own
    flight track named after the scenario; a single run records on the
    caller's track.

    @raise Supervise.Bad_request when the scenario does not resolve
    @raise Invalid_argument when the configuration does not build
    @raise Target.Codegen_error when code generation fails *)

val injector_of : Fault_scenario.t -> int -> Silvm_diff.injector
(** The scenario armed with a seed, perturbing the sensor stream both
    sides of a differential run consume. *)

(** {1 Encoding} *)

val exit_code : outcome -> int
(** 0, or 1 when a run diverged, a campaign run never recovered or a
    supervised seed failed. *)

val fields : jobs_done:int -> uptime_s:float -> outcome -> (string * Bench_json.t) list
(** Serve's result record, ["exit"] last. [jobs_done] and [uptime_s]
    describe the server and appear only in a [Stats] record. A diff
    sweep reports its first diverging seed (or its first seed). *)

val supervised_exit : Supervise.error -> int
(** A failed serve job's ["exit"] field: 2 bad request, 3 deadline
    timeout, 4 crash or transient, 5 poisoned, 6 shed. *)

val error_fields : attempts:int -> Supervise.error -> (string * Bench_json.t) list
(** Serve's record of a failed job: ["job"] (["shed"] or ["error"]),
    ["class"], ["error"], ["attempts"] and ["exit"]. *)

val supervised_fields :
  (string * Bench_json.t) list Supervise.outcome -> (string * Bench_json.t) list
(** Serve's record of a supervised job: its {!fields}, followed by
    ["attempts"] when it took more than one, or its {!error_fields}. *)

val report_json : outcome -> Bench_json.t
(** The [DIFF_<model>.json] or [FAULT_<model>.json] document. *)

val partial_json : progress -> Bench_json.t option
(** The partial report of a job cut short: the runs completed so far,
    in seed order. [None] for jobs without one (a single diff run,
    [Stats]) and before the job's scenario resolved. *)
