(* MIR verifier: run after lifting and after every optimisation pass
   ("IR-verified passes"). The discipline is permissive about unknown
   names and opaque fragments — it rejects structurally impossible
   programs (arithmetic on aggregates, assignment to an aggregate,
   aggregate conditions, wrongly typed sat-op operands), not programs
   it merely has incomplete knowledge of. *)

type error = { in_fn : string; msg : string }

let pp_error e = Printf.sprintf "%s: %s" e.in_fn e.msg

let is_aggregate = function
  | Mir_env.Vstruct _ | Mir_env.Varray _ -> true
  | Mir_env.Scalar _ | Mir_env.Vunknown -> false

let is_float = function Mir.Tf32 | Mir.Tf64 -> true | _ -> false

let check_func env (f : C_ast.func) (body : Mir.stmt list) : error list =
  let errors = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun msg -> errors := { in_fn = f.C_ast.fname; msg } :: !errors)
      fmt
  in
  let base_locals =
    List.map (fun (cty, n) -> (n, Mir_env.vty_of_cty env cty)) f.C_ast.args
  in
  (* locals accumulate lexically; C block scoping is approximated by
     treating every declaration as visible from its lift point on,
     which matches how blockgen emits code (unique names per block) *)
  let rec check_expr locals e =
    let ty_of = Mir_env.ty_of_expr env locals in
    let scalar_operand what a =
      match a with
      | Mir.Load p when is_aggregate (Mir_env.place_vty env locals p) ->
          err "%s operand is an aggregate: %s" what (Mir_to_c.expr_to_string a)
      | _ -> ()
    in
    (match e with
    | Mir.Kint _ | Mir.Kfloat _ | Mir.Load _ | Mir.Eaddr _ | Mir.Eopaque _
    | Mir.Ecall _ ->
        ()
    | Mir.Eun (_, a) -> scalar_operand "unary" a
    | Mir.Ebin (op, a, b) ->
        scalar_operand (Mir.bop_name op) a;
        scalar_operand (Mir.bop_name op) b;
        if op = Mir.Mod || op = Mir.Shl || op = Mir.Shr || op = Mir.Band
           || op = Mir.Bor || op = Mir.Bxor
        then begin
          (* C constraint: integer-only operators *)
          if is_float (ty_of a) then
            err "%s applied to a float operand: %s" (Mir.bop_name op)
              (Mir_to_c.expr_to_string e);
          if is_float (ty_of b) then
            err "%s applied to a float operand: %s" (Mir.bop_name op)
              (Mir_to_c.expr_to_string e)
        end
    | Mir.Ecast (_, a) -> scalar_operand "cast" a
    | Mir.Equantize (_, a) -> scalar_operand "quantise" a
    | Mir.Esat16 a ->
        scalar_operand "pe_sat16" a;
        if is_float (ty_of a) then
          err "pe_sat16 takes an int32, got a float: %s"
            (Mir_to_c.expr_to_string e)
    | Mir.Esat_add32 (a, b) ->
        scalar_operand "pe_sat_add32" a;
        scalar_operand "pe_sat_add32" b;
        if is_float (ty_of a) || is_float (ty_of b) then
          err "pe_sat_add32 takes int32 operands: %s"
            (Mir_to_c.expr_to_string e)
    | Mir.Emul_shift (a, b, s) ->
        List.iter (scalar_operand "pe_mul_shift") [ a; b; s ]
    | Mir.Eselect (c, _, _) -> scalar_operand "condition" c);
    (* recurse *)
    match e with
    | Mir.Kint _ | Mir.Kfloat _ | Mir.Eopaque _ -> ()
    | Mir.Load p | Mir.Eaddr p -> check_place locals p
    | Mir.Eun (_, a) | Mir.Ecast (_, a) | Mir.Equantize (_, a) | Mir.Esat16 a
      ->
        check_expr locals a
    | Mir.Ebin (_, a, b) | Mir.Esat_add32 (a, b) ->
        check_expr locals a;
        check_expr locals b
    | Mir.Emul_shift (a, b, c) | Mir.Eselect (a, b, c) ->
        check_expr locals a;
        check_expr locals b;
        check_expr locals c
    | Mir.Ecall (_, args) -> List.iter (check_expr locals) args
  and check_place locals = function
    | Mir.Pvar _ -> ()
    | Mir.Pfield (p, f) ->
        (match Mir_env.place_vty env locals p with
        | Mir_env.Vstruct s -> (
            match Hashtbl.find_opt env.Mir_env.structs s with
            | Some fields when not (List.mem_assoc f fields) ->
                err "struct %s has no field %s" s f
            | _ -> ())
        | Mir_env.Scalar _ ->
            err "field access .%s on a scalar place" f
        | _ -> ());
        check_place locals p
    | Mir.Pindex (p, i) ->
        (match Mir_env.place_vty env locals p with
        | Mir_env.Scalar _ | Mir_env.Vstruct _ ->
            err "index into a non-array place"
        | _ -> ());
        check_place locals p;
        check_expr locals i
  in
  let rec check_stmts locals = function
    | [] -> locals
    | s :: rest ->
        let locals = check_stmt locals s in
        check_stmts locals rest
  and check_stmt locals s =
    match s with
    | Mir.Sdecl (cty, name, init) ->
        Option.iter (check_expr locals) init;
        (name, Mir_env.vty_of_cty env cty) :: locals
    | Mir.Sassign (p, e) ->
        check_place locals p;
        if is_aggregate (Mir_env.place_vty env locals p) then
          err "assignment to aggregate %s"
            (Mir_to_c.expr_to_string (Mir.Load p));
        check_expr locals e;
        (match e with
        | Mir.Load q when is_aggregate (Mir_env.place_vty env locals q) ->
            err "aggregate used as an assigned value"
        | _ -> ());
        locals
    | Mir.Sexpr e | Mir.Sreturn (Some e) ->
        check_expr locals e;
        locals
    | Mir.Sincr p ->
        check_place locals p;
        locals
    | Mir.Sif (c, t, e) ->
        check_expr locals c;
        (match c with
        | Mir.Load p when is_aggregate (Mir_env.place_vty env locals p) ->
            err "aggregate condition"
        | _ -> ());
        ignore (check_stmts locals t);
        ignore (check_stmts locals e);
        locals
    | Mir.Swhile (c, b) ->
        check_expr locals c;
        ignore (check_stmts locals b);
        locals
    | Mir.Sfor (i, c, u, b) ->
        let locals' = check_stmt locals i in
        check_expr locals' c;
        ignore (check_stmt locals' u);
        ignore (check_stmts locals' b);
        locals
    | Mir.Sreturn None | Mir.Scomment _ | Mir.Sopaque _ -> locals
    | Mir.Sblock b ->
        ignore (check_stmts locals b);
        locals
  in
  ignore (check_stmts base_locals body);
  List.rev !errors

exception Verify_failed of string

(* raise on verifier errors; used between optimisation passes *)
let verify_exn env f body =
  match check_func env f body with
  | [] -> ()
  | errs ->
      raise
        (Verify_failed (String.concat "; " (List.map pp_error errs)))
