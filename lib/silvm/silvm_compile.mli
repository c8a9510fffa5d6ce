(** Closure compiler for the generated SIL application.

    Lifts the translation units into MIR ({!Mir_of_c}) and compiles
    the MIR once into OCaml closures over a flat mutable state,
    bit-exact against {!Silvm_interp} on every unit that lifts without
    opaque nodes (all generated code does). An opaque node raises
    {!Silvm_interp.Unsupported} when it is run, never at compile time. The immutable compiled
    [code] is shared — across instances, and across domains through the
    content-hashed {!compile_cached} — while each [st] instance owns its
    own cells, exchange buffers and externals. *)

type code
(** immutable compiled program: layouts, initialisers, closures *)

type st
(** one run-time instance of a compiled program *)

val compile : C_ast.cunit list -> code

val compile_cached : C_ast.cunit list -> code
(** [compile] memoised on a content hash of the units; thread-safe,
    shared process-wide (campaign domains hit the same entry), and
    bounded to the 64 most recent insertions ({!Content_cache}) *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!compile_cached} since start / last clear *)

val cache_clear : unit -> unit

val instantiate : code -> st
(** fresh state with global initialisers applied and zeroed exchange
    buffers; call the model's [<name>_initialize] next, as on target *)

val call : code -> st -> string -> Silvm_value.t list -> Silvm_value.t option
(** invoke a compiled function (fuel is reset, like the interpreter);
    raises {!Silvm_interp.Unsupported} / {!Silvm_interp.Runtime_error} /
    {!Silvm_value.Error} exactly where the interpreter does *)

val has_func : code -> string -> bool
val register_external : st -> string -> (Silvm_value.t list -> Silvm_value.t) -> unit

val set_sensor : st -> int -> int -> unit
(** write a 16-bit word into [pil_sensor_buf] *)

val actuator : st -> int -> int
(** read a 16-bit word from [pil_actuator_buf] *)

val actuator_buf :
  st -> (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** the live actuator exchange buffer, for vectorized trace snapshots *)

val sensor_count : code -> int
val actuator_count : code -> int

val reader : code -> Mir.place -> st -> Silvm_value.t
(** compile an ad-hoc read of a global place (e.g. [servo_B.pid_o0])
    once; the returned closure is cheap to call per step *)
