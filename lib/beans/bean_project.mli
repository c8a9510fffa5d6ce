(** A Processor Expert project: a target CPU "bean" plus the peripheral
    beans of the application, with whole-project verification and HAL
    code generation.

    Porting the application to another MCU is "selecting another CPU bean
    in the PE project window" (§1) — {!retarget} re-runs the expert system
    against the new MCU, reporting what no longer fits, while the
    application model stays untouched. *)

type t

val create : Mcu_db.t -> t
val mcu : t -> Mcu_db.t
val resources : t -> Resources.t

val add : t -> Bean.t -> Bean.t
(** Insert a bean and resolve it immediately (the Inspector's live
    verification). Returns the bean for chaining.
    @raise Invalid_argument on a duplicate instance name. *)

val find : t -> string -> Bean.t
(** @raise Not_found *)

val beans : t -> Bean.t list

val remove : t -> string -> unit
(** Delete a bean and release its resources (model-to-project
    synchronisation when a block is erased, §5). *)

val verify : t -> (unit, string list) result
(** Re-resolve every bean; [Error] collects all messages, prefixed by the
    bean name. *)

val status : t -> (unit, string list) result
(** Like {!verify}, but reports the beans' current resolution without
    re-resolving them: read-only, so safe on a project shared across
    domains. Code generation checks the project through this. *)

val retarget : t -> Mcu_db.t -> t
(** A new project with the same beans resolved against another MCU. *)

val hal_units : t -> C_ast.cunit list
(** Generated HAL: one C unit per bean plus the shared [PE_Types.h]
    equivalent. @raise Invalid_argument when some bean is unresolved. *)

val hal_loc : t -> int
(** Total generated HAL lines of code (experiment E4's metric). *)
