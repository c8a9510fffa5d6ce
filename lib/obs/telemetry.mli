(** Exports of the {!Obs} registry snapshot: the [BENCH_<name>.json]
    document, Prometheus text exposition and `ecsd serve` heartbeat
    lines.

    (Named [Telemetry] because lib/control, also [(wrapped false)],
    already owns the module name [Metrics].) *)

val wall : float -> float
(** Identity, or [0.0] when [ECSD_WALL_ZERO] is set — keeps wall-derived
    fields byte-comparable across runs. *)

val bench :
  name:string ->
  steps:int ->
  wall_s:float ->
  ?extra:(string * Bench_json.t) list ->
  Obs.snapshot ->
  Bench_json.t
(** The full [BENCH_<name>.json] document (see README "BENCH_*.json"):
    name, [git_rev], steps, [wall_s], computed [steps_per_s], [extra],
    then the snapshot's [counters], [gauges] and [histograms]. *)

val sanitize : string -> string
(** Dotted registry name to a Prometheus-legal name fragment. *)

val prometheus : unit -> string
(** The current snapshot as Prometheus text: counters, gauges, and
    histograms as summaries (q0.5/q0.95/q0.99, [_sum], [_count]), each
    prefixed [ecsd_]. *)

val write_prometheus : path:string -> unit

val heartbeat : jobs_done:int -> inflight:int -> wall_s:float -> Bench_json.t
(** One heartbeat record: job throughput plus the [serve.job_s] latency
    summary. Wall-derived fields respect [ECSD_WALL_ZERO]. *)

val heartbeat_line : jobs_done:int -> inflight:int -> wall_s:float -> string
(** {!heartbeat} as one compact JSON line (no trailing newline). *)
