(** Source blocks (no inputs). *)

val constant : ?dtype:Dtype.t -> float -> Block.spec
(** Constant value, evaluated once ([Const] sample time). Default type
    [Double]. *)

val step : ?t_step:float -> ?before:float -> after:float -> unit -> Block.spec
(** Step source: [before] (default 0) until [t_step] (default 0), then
    [after]. *)

val ramp : ?start:float -> slope:float -> unit -> Block.spec
val sine : ?amp:float -> ?freq_hz:float -> ?phase:float -> ?bias:float -> unit -> Block.spec

val pulse : period:float -> ?duty:float -> ?amp:float -> unit -> Block.spec
(** Rectangular pulse train: high [amp] for the first [duty] fraction
    (default 0.5) of each [period]. *)

val setpoint_schedule : (float * float) list -> Block.spec
(** Piecewise-constant set-point profile given as [(from_time, value)]
    pairs sorted by time; the case-study "keyboard" set-point source. *)

val uniform_noise : ?seed:int -> ?lo:float -> ?hi:float -> unit -> Block.spec
(** Deterministic uniform noise in [lo, hi) (default [-1, 1)) from the
    xorshift32 generator the generated code runs, seeded with the low
    28 bits of [seed] (0x2545F49 when those are all zero, since
    xorshift32 never leaves state 0), reproducible across runs. The
    block's ["seed"] parameter holds that state. *)

val clock : Block.spec
(** Emits the current simulation time. *)
