(** A PEERT-generated application loaded into the SIL virtual machine.

    The PIL variant of the generated code is the natural SIL subject:
    its peripheral reads and writes are redirected to the
    [pil_sensor_buf]/[pil_actuator_buf] exchange buffers (§6), which
    become the stimulus/observation ports of the virtual machine — the
    same role the RS-232 link plays in a real PIL run, without the
    target hardware.

    Two engines share this driver: [`Interp] walks the C AST per step
    ({!Silvm_interp}); [`Compiled] (the default) runs the closures of
    {!Silvm_compile}, bit-exact against the interpreter and one to two
    orders of magnitude faster. *)

type t

type engine = [ `Interp | `Compiled ]

type trace =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t
(** actuator words, [steps × slots] *)

val create :
  ?mode:Blockgen.mode ->
  ?opt:bool ->
  ?engine:engine ->
  name:string ->
  project:Bean_project.t ->
  Compile.t ->
  t
(** Generate the application for [comp] (default PIL variant), load the
    whole translation set into the chosen engine (default [`Compiled];
    identical compiled units share one compilation through the
    content-hash cache) and wire up the free-running-counter bean
    externals. [opt] enables the MIR optimization passes on the model
    unit (default off); behaviour must be bit-exact either way — that is
    what {!Silvm_diff.run} checks.
    @raise Target.Codegen_error when generation fails. *)

val engine : t -> engine

val initialize : t -> unit
(** Call [<name>_initialize ()]. *)

val step : t -> unit
(** Call [<name>_step ()], then fire every event-wired group function
    whose rate divisor divides the step count (mirroring the
    immediate-and-atomic group execution of the MIL engine), and
    advance the application clock by one base period. *)

val run_n_steps :
  ?stimulus:(int -> int array) ->
  ?feedback:(int -> int array -> unit) ->
  t ->
  int ->
  trace
(** [run_n_steps app n] executes [n] base-rate steps and returns the
    actuator trace, snapshotted after each step (on the compiled engine
    the exchange buffer is blitted row-wise, no per-port boxing).
    [stimulus k] provides the sensor words before step [k];
    [feedback k row] observes the actuator words after step [k] — e.g.
    to advance a plant model driving the next stimulus. *)

val compare_traces : trace -> trace -> (int * int) option
(** first [(step, slot)] where two actuator traces disagree (a length
    mismatch reports the first missing step), [None] when identical *)

val set_sensor : t -> int -> int -> unit
(** [set_sensor app slot v] stores the raw 16-bit value [v] into
    [pil_sensor_buf[slot]]. *)

val actuator : t -> int -> int
(** [actuator app slot] reads [pil_actuator_buf[slot]]. *)

val signal : t -> Model.blk * int -> Silvm_value.t
(** [signal app (b, p)] reads the block-output field
    [<name>_B.<block>_o<p>] of the generated signals structure (cached
    compiled reader on the compiled engine). *)

val schedule : t -> Target.schedule

val compiled : t -> Compile.t
(** the compiled diagram the application was generated from *)

val stmts_executed : t -> int
(** interpreter statement counter; [0] on the compiled engine *)
