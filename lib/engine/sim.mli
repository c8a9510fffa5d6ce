(** Fixed-step simulation engine (model-in-the-loop).

    Executes a compiled model: at every major step the engine runs the
    output pass over the blocks scheduled at that instant, then the
    discrete update pass, then integrates all continuous states over the
    step with the selected solver (minor steps re-evaluate only the
    continuous subgraph, with discrete outputs held — Simulink fixed-step
    semantics). Events fired by blocks execute their function-call group
    immediately and atomically, reproducing the event-driven tasks of the
    paper's execution model (§5).

    Every output port has one interposition slot between the value its
    block computes and the signal it drives: pass-through, a held value
    ({!override_output}) or a perturbation ({!perturb_output}). Harnesses
    and fault campaigns attach to the ports they drive; nothing else
    sits on the write path. *)

type t

val create : ?solver:Ode.method_ -> ?solver_substeps:int -> Compile.t -> t
(** Instantiate every block behaviour. Default solver [Rk4] (ode4).
    [solver_substeps] (default 1) integrates the continuous states with
    that many sub-steps per major step — needed when a slow discrete base
    rate meets fast continuous dynamics (stiffness). *)

val reset : t -> unit
(** Back to time zero and initial block states. *)

val time : t -> float
val base_dt : t -> float
val compiled : t -> Compile.t

val probe : t -> Model.blk * int -> unit
(** Record the signal at an output port at every major step. *)

val probe_named : t -> string -> int -> unit
(** [probe_named sim block_name port]. @raise Not_found on a bad name. *)

val step : t -> unit
(** Advance one major step. *)

val run : t -> ?steps:int -> until:float -> unit -> unit
(** Step until [time >= until] (or at most [steps] steps). *)

val value : t -> Model.blk * int -> Value.t
(** Current signal at an output port. *)

val value_named : t -> string -> int -> Value.t

val trace : t -> Model.blk * int -> (float * float) list
(** Recorded probe samples as (time, numeric value), oldest first.
    @raise Not_found if the port was never probed. *)

val trace_named : t -> string -> int -> (float * float) list

val override_output : t -> Model.blk * int -> Value.t option -> unit
(** Force an output port to a fixed value (or release it with [None]).
    The MIL side of {!Silvm_diff} drives the sensor blocks with it, so
    the model sees the raw words the generated code reads from its PIL
    exchange buffer; PIL and HIL run that generated code itself. *)

val perturb_output :
  t -> Model.blk * int -> (float -> Value.t -> Value.t) option -> unit
(** Pass every value written to an output port through [f time value]
    ([time] is the major-step time, also in minor passes), or stop with
    [None]. This is where the fault campaign attaches its sensor and
    duty perturbations. A port carries one interposition: setting a
    perturbation or an override replaces the other. *)

val step_events : t -> int
(** Number of events fired during the last major step. *)
