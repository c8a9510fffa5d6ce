(* Lower MIR back to the C AST: the exact inverse of [Mir_of_c.lift].
   Every constructor maps to the one C spelling it was lifted from, so
   lower (lift c) = c structurally for any generated unit. *)

let rec lower_place = function
  | Mir.Pvar v -> C_ast.Var v
  | Mir.Pfield (p, f) -> C_ast.Field (lower_place p, f)
  | Mir.Pindex (p, i) -> C_ast.Index (lower_place p, lower_expr i)

and lower_expr = function
  | Mir.Kint (n, Mir.Dec) -> C_ast.Int_lit n
  | Mir.Kint (n, Mir.Hex) -> C_ast.Hex_lit n
  | Mir.Kfloat x -> C_ast.Float_lit x
  | Mir.Load p -> lower_place p
  | Mir.Eun (op, a) -> C_ast.Un (Mir.uop_name op, lower_expr a)
  | Mir.Ebin (op, a, b) -> C_ast.Bin (Mir.bop_name op, lower_expr a, lower_expr b)
  | Mir.Ecast (cty, a) -> C_ast.Cast_to (cty, lower_expr a)
  | Mir.Equantize (k, a) -> C_ast.Call (Mir.qkind_name k, [ lower_expr a ])
  | Mir.Esat16 a -> C_ast.Call ("pe_sat16", [ lower_expr a ])
  | Mir.Esat_add32 (a, b) ->
      C_ast.Call ("pe_sat_add32", [ lower_expr a; lower_expr b ])
  | Mir.Emul_shift (a, b, s) ->
      C_ast.Call ("pe_mul_shift", [ lower_expr a; lower_expr b; lower_expr s ])
  | Mir.Ecall (f, args) -> C_ast.Call (f, List.map lower_expr args)
  | Mir.Eselect (c, a, b) ->
      C_ast.Ternary (lower_expr c, lower_expr a, lower_expr b)
  | Mir.Eaddr p -> C_ast.Un ("&", lower_place p)
  | Mir.Eopaque e -> e

let rec lower_stmt = function
  | Mir.Sdecl (cty, name, init) ->
      C_ast.Decl (cty, name, Option.map lower_expr init)
  | Mir.Sassign (p, e) -> C_ast.Assign (lower_place p, lower_expr e)
  | Mir.Sexpr e -> C_ast.Expr (lower_expr e)
  | Mir.Sincr p -> C_ast.Expr (C_ast.Un ("++", lower_place p))
  | Mir.Sif (c, t, e) -> C_ast.If (lower_expr c, lower_stmts t, lower_stmts e)
  | Mir.Swhile (c, b) -> C_ast.While (lower_expr c, lower_stmts b)
  | Mir.Sfor (i, c, u, b) ->
      C_ast.For (lower_stmt i, lower_expr c, lower_stmt u, lower_stmts b)
  | Mir.Sreturn e -> C_ast.Return (Option.map lower_expr e)
  | Mir.Scomment c -> C_ast.Comment c
  | Mir.Sblock b -> C_ast.Block (lower_stmts b)
  | Mir.Sopaque s -> s

and lower_stmts ss = List.map lower_stmt ss

(* compact C rendering of a MIR expression/statement, for diagnostics *)
let expr_to_string e = C_print.expr_to_string (lower_expr e)

let stmt_to_string s =
  match String.split_on_char '\n' (C_print.print_stmts [ lower_stmt s ]) with
  | l :: _ -> String.trim l
  | [] -> ""
