(** Fault models for robustness campaigns.

    The PIL harness of the paper answers "does the generated application
    meet its deadlines and control objectives" — for nominal runs. A
    credible validation also drives the closed loop through abnormal
    operating conditions (the Sensors 2008 companion paper makes the same
    point), so this taxonomy names what can go wrong between the
    controller and the physical world: sensor faults on the raw peripheral
    codes, actuator faults on the commanded duty, plant load surges, and
    timing faults (injected step overruns, suppressed watchdog service).
    Byte-level communication faults are delegated to {!Faulty}, the
    serial-line fault model of PR 3.

    Every fault carries a deterministic schedule — an onset time, a
    duration and an optional recurrence period — so a campaign run with
    the same seed replays exactly. *)

type kind =
  | Sensor_stuck  (** the raw code freezes at its pre-fault value *)
  | Sensor_offset of int  (** a constant bias on the raw code *)
  | Sensor_noise of int  (** uniform noise of the given amplitude, counts *)
  | Sensor_dropout  (** the sensor reads 0 (line cut / power loss) *)
  | Encoder_glitch of int
      (** sporadic count jumps of up to the given amplitude (sparking
          contact): each sample glitches with probability 0.2 *)
  | Actuator_saturation of float  (** the duty cannot exceed this ceiling *)
  | Actuator_jam of float  (** the duty is stuck at this value *)
  | Load_torque of float  (** additional shaft load torque, N.m *)
  | Overrun of int
      (** the control step takes this many extra CPU cycles (a cache
          stall, a runaway interrupt) *)
  | Wdog_suppress  (** the watchdog service call is lost *)
  | Comm of Faulty.config
      (** serial-line byte faults, delegated to {!Faulty}; armed for the
          whole run, ignoring the window *)

type t = {
  kind : kind;
  slot : int;  (** sensor slot the fault attaches to (sensor kinds only) *)
  at : float;  (** onset, seconds *)
  duration : float;  (** window length, seconds *)
  every : float option;  (** recurrence period, [None] = one-shot *)
}

val make : ?slot:int -> ?every:float -> at:float -> duration:float -> kind -> t
(** @raise Invalid_argument on a non-finite onset, duration, period or
    float value, a negative onset, or a non-positive duration/period. *)

val active : t -> time:float -> bool
(** Whether the fault's window covers [time] (any occurrence, for
    periodic faults). *)

val next_transition : t -> time:float -> float
(** The earliest instant at which {!active}'s answer for times after
    [time] may change: the exact window edge for a one-shot fault
    ([infinity] once it has cleared for good), or [time] itself for a
    periodic fault — meaning "revalidate at every new instant". The
    injector's hot-path cache is built on the guarantee that the answer
    is constant over [\[time, next_transition)]. *)

val kind_name : kind -> string
val name : t -> string
(** Human-readable identity, e.g. ["sensor-dropout@0 [0.9,1.05)"] — used
    by divergence reports and campaign tables. *)

val onset : t -> float

val clear_time : t -> horizon:float -> float
(** When the fault is gone for good: [at + duration] for a one-shot
    fault, [horizon] for a periodic one (it keeps recurring). *)

val is_sensor : kind -> bool
val is_actuator : kind -> bool
