(** Fault campaigns: sweep a scenario over seeds on a MIL closed loop
    and measure how the safe-state supervisor rides out the fault.

    A campaign binds a scenario to a {e subject} — a closed-loop
    simulation plus the ports that carry its sensor codes, commanded
    duty, supervisor mode, measured speed and set-point — then runs it
    once per seed with a fresh virtual MCU and watchdog alongside, and
    reports recovery metrics per run: detection latency, recovery time
    after the fault clears, steps spent degraded / safe-stopped, the
    residual control error once nominal again, and watchdog bites. *)

type ports = {
  sensor_ports : (Model.blk * int) array;
      (** output port carrying sensor slot [i]'s raw code *)
  duty_port : (Model.blk * int) option;  (** commanded duty (float) *)
  mode_port : Model.blk * int;
      (** supervisor mode output: 0 nominal, 1 degraded, 2 safe-stop *)
  speed_port : Model.blk * int;  (** controlled variable *)
  setpoint_port : (Model.blk * int) option;
      (** reference for the residual error ([None] = reference 0) *)
}

type subject = { sim : Sim.t; ports : ports; mcu : Mcu_db.t }

type run_result = {
  seed : int;
  detected : bool;
      (** the supervisor left Nominal after onset, or the watchdog bit *)
  detection_s : float option;  (** onset → first non-Nominal mode *)
  recovered : bool;
      (** back in Nominal (and staying there) after the fault cleared;
          trivially true when the fault never perturbed the loop *)
  recovery_s : float option;  (** fault clear → Nominal for good *)
  steps_degraded : int;
  steps_safestop : int;
  max_mode : int;
  residual_rms : float;
      (** RMS control error over the last eighth of the run *)
  wdog_bites : int;
}

type result = {
  scenario : Fault_scenario.t;
  t_end : float;
  period : float;
  runs : run_result list;
  failures : (int * Supervise.error) list;
      (** supervised campaigns only: seeds whose run ended in an error
          record (timeout, crash, poisoned, ...) instead of metrics, in
          seed order. Empty when no policy is given. *)
  retries_total : int;
      (** total retry attempts spent across all seeds (supervised) *)
  steps_per_run : int;
  wall_s : float;
}

val arm : subject -> ?seed:int -> Fault_scenario.t -> Fault_inject.t
(** Install an injector on the subject's sensor and duty ports (outside a
    campaign — e.g. for a one-off faulted run). An empty scenario
    installs nothing. *)

val disarm : subject -> unit
(** Clear the sensor and duty ports' perturbations. *)

val run :
  ?t_end:float ->
  ?seeds:int ->
  ?wdog_timeout:float ->
  ?on_run:(run_result -> unit) ->
  ?policy:Supervise.policy ->
  scenario:Fault_scenario.t ->
  subject ->
  result
(** Run the campaign: [seeds] runs (seeds 1..N, default 5) of [t_end]
    seconds (default 2.0) each, resetting the simulation between runs.
    [wdog_timeout] defaults to 8 control periods. The watchdog is
    serviced once per control step unless the scenario suppresses it;
    injected overruns stretch the step's cycle budget so a long enough
    burst starves the watchdog exactly as it would on the bench.
    [on_run] fires after each completed run — the CLI uses it to keep a
    partial report it can flush if a later run dies.

    [policy] turns on supervised execution: each seed's run gets a
    {!Supervise} deadline/retry envelope (and any configured chaos),
    a failing seed lands in [failures] instead of aborting the
    campaign, and [on_run] fires only for successful runs. Without a
    [policy] any exception propagates, as before. *)

val run_parallel :
  ?t_end:float ->
  ?seeds:int ->
  ?wdog_timeout:float ->
  ?on_run:(run_result -> unit) ->
  ?policy:Supervise.policy ->
  ?pool:Exec_pool.t ->
  scenario:Fault_scenario.t ->
  (unit -> subject) ->
  result
(** {!run} over {!Exec_pool.sweep}: with a [pool] the seed range
    splits over its workers, each domain building its own subject
    through [mk_subject] (simulation state is mutable and must stay
    domain-local — the compile inside dedups through
    {!Compile_cache}), the calling domain first; they are dropped when
    the call returns. Without a pool the calling domain runs every
    seed on one subject. Per-seed runs are independent and
    seed-deterministic, and results merge in seed order, so the report
    equals the sequential one field-for-field except [wall_s]
    (set [ECSD_WALL_ZERO=1] to zero that too and compare bytes).
    [on_run] fires on the domain that completed the run and must
    synchronize its own state. [policy] is as in {!run}; supervised
    outcomes (including chaos decisions and backoff jitter) are pure
    functions of (seed, attempt), so the supervised report stays
    byte-identical across [--jobs] settings. *)

val throughput : ?scenario:Fault_scenario.t -> steps:int -> subject -> float
(** Steps per second over a fresh run, armed with [scenario] when given
    and unarmed otherwise — the P10 bench measuring what arming
    costs. *)

val all_detected : result -> bool
val all_recovered : result -> bool

val to_json : model:string -> result -> Bench_json.t
(** The [FAULT_<model>.json] document (schema ["ecsd-fault-1"]): per-run
    rows plus detection/recovery aggregates. *)
