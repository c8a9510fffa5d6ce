(** Seeded fault injector: evaluates a {!Fault_scenario.t} against
    simulation time and perturbs the signals that cross the
    controller/world boundary.

    One injector = one armed run. All randomness (noise amplitudes,
    glitch occurrences) comes from a SplitMix64 stream derived from the
    seed, so a campaign run is replayed exactly by re-arming with the
    same seed. The injector itself is engine-agnostic: a MIL campaign
    attaches {!sensor} and {!duty} to the sensor and duty ports with
    {!Sim.perturb_output}, and every harness asks {!overrun_cycles} and
    {!wdog_suppressed} once per step. The queries of one instant share
    one scan of the fault windows. *)

type t

val arm : ?seed:int -> Fault_scenario.t -> t
(** Default seed 1. *)

val scenario : t -> Fault_scenario.t
val seed : t -> int

val sensor : t -> slot:int -> time:float -> int -> int
(** Perturb one raw sensor code. Applies every active sensor fault bound
    to [slot], in scenario order. [Sensor_stuck] freezes the code at the
    last value this function returned for the slot while the fault was
    inactive. The result is not masked — callers that model a 16-bit
    peripheral register mask it themselves. *)

val duty : t -> time:float -> float -> float
(** Perturb the commanded actuator duty (jam / saturation). *)

val overrun_cycles : t -> time:float -> int
(** Extra CPU cycles the control step burns at [time] (sum of active
    [Overrun] faults). *)

val wdog_suppressed : t -> time:float -> bool
(** Whether the watchdog service call is lost at [time]. *)

val active_names : t -> time:float -> string list
