(** Model lint ("Model Advisor"): the MDL rule family.

    Recovers {e every} structural violation ({!Compile.diagnose}) as a
    located finding instead of the first [Compile_error], then adds
    advisory rules the compiler never checks: dead blocks, unused
    output ports, rate/base-step mismatches, and — when the Processor
    Expert project is given — bean conflicts found by the expert system
    ({!Bean_project.status}) and peripheral blocks referencing beans
    absent from the project. *)

val findings :
  ?project:Bean_project.t -> ?comp:Compile.t -> Model.t -> Diag.finding list
(** [comp] enables the rate rules (MDL009); pass it when compilation
    succeeded. Never raises. *)
