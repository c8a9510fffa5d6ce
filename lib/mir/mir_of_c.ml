(* Lift the generated C AST into MIR.

   Total by construction: every construct the code generators emit
   lifts to a typed node ([&lvalue] to [Eaddr]); anything else becomes
   an [Eopaque]/[Sopaque] node carrying the original fragment, which
   [Mir_to_c] lowers verbatim. The lift/lower pair is an exact inverse,
   and generated units lift with no opaque node at all — see the
   round-trip and no-opaque properties in test_mir.ml. *)

open C_ast

let rec lift_place e : Mir.place option =
  match e with
  | Var v -> Some (Mir.Pvar v)
  | Field (b, f) ->
      Option.map (fun p -> Mir.Pfield (p, f)) (lift_place b)
  | Index (b, i) ->
      Option.map (fun p -> Mir.Pindex (p, lift_expr i)) (lift_place b)
  | _ -> None

and lift_expr e : Mir.expr =
  match e with
  | Int_lit n -> Mir.Kint (n, Mir.Dec)
  | Hex_lit n -> Mir.Kint (n, Mir.Hex)
  | Float_lit x -> Mir.Kfloat x
  | Var _ | Field _ | Index _ -> (
      match lift_place e with
      | Some p -> Mir.Load p
      | None -> Mir.Eopaque e)
  | Call ("pe_sat16", [ a ]) -> Mir.Esat16 (lift_expr a)
  | Call ("pe_sat_add32", [ a; b ]) ->
      Mir.Esat_add32 (lift_expr a, lift_expr b)
  | Call ("pe_mul_shift", [ a; b; s ]) ->
      Mir.Emul_shift (lift_expr a, lift_expr b, lift_expr s)
  | Call (f, [ a ]) when Mir.qkind_of_name f <> None -> (
      match Mir.qkind_of_name f with
      | Some k -> Mir.Equantize (k, lift_expr a)
      | None -> assert false)
  | Call (f, args) -> Mir.Ecall (f, List.map lift_expr args)
  | Un ("-", a) -> Mir.Eun (Mir.Neg, lift_expr a)
  | Un ("!", a) -> Mir.Eun (Mir.Lnot, lift_expr a)
  | Un ("&", lv) -> (
      match lift_place lv with
      | Some p -> Mir.Eaddr p
      | None -> Mir.Eopaque e)
  | Un _ -> Mir.Eopaque e
  | Bin (op, a, b) -> (
      match Mir.bop_of_name op with
      | Some bop -> Mir.Ebin (bop, lift_expr a, lift_expr b)
      | None -> Mir.Eopaque e)
  | Cast_to (cty, a) -> Mir.Ecast (cty, lift_expr a)
  | Ternary (c, a, b) -> Mir.Eselect (lift_expr c, lift_expr a, lift_expr b)

let rec lift_stmt s : Mir.stmt =
  match s with
  | Expr (Un ("++", lv)) -> (
      match lift_place lv with
      | Some p -> Mir.Sincr p
      | None -> Mir.Sopaque s)
  | Expr e -> Mir.Sexpr (lift_expr e)
  | Decl (cty, name, init) -> Mir.Sdecl (cty, name, Option.map lift_expr init)
  | Assign (lhs, rhs) -> (
      match lift_place lhs with
      | Some p -> Mir.Sassign (p, lift_expr rhs)
      | None -> Mir.Sopaque s)
  | If (c, t, e) -> Mir.Sif (lift_expr c, lift_stmts t, lift_stmts e)
  | While (c, b) -> Mir.Swhile (lift_expr c, lift_stmts b)
  | For (i, c, u, b) -> Mir.Sfor (lift_stmt i, lift_expr c, lift_stmt u, lift_stmts b)
  | Return e -> Mir.Sreturn (Option.map lift_expr e)
  | Comment c -> Mir.Scomment c
  | Block b -> Mir.Sblock (lift_stmts b)
  | Raw _ -> Mir.Sopaque s

and lift_stmts ss = List.map lift_stmt ss
