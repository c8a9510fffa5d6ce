(** Load-torque profiles applied to the motor shaft during experiments. *)

type t =
  | No_load
  | Constant of float  (** constant torque, N.m *)
  | Viscous of float  (** torque = k * w *)
  | Step of { at : float; torque : float }
      (** torque applied from time [at] on — the disturbance-rejection
          workload of experiment E1 *)
  | Pulse of { start : float; stop : float; torque : float }
      (** torque from [start] until [stop] *)
  | Pulse_train of { start : float; width : float; period : float; torque : float }
      (** torque for [width] seconds of every [period], from [start] on —
          a recurring load fault *)
  | Sum of t list

val torque : t -> time:float -> w:float -> float
(** Load torque at a simulation time and shaft speed. *)

val to_string : t -> string
(** Exact one-line rendering (floats to 17 significant digits): equal
    strings mean equal profiles. *)
