(* Unit-level MIR pipeline: lift every function of a generated
   translation unit into MIR, verify it, optionally run the
   optimisation passes (re-verifying after each), and lower back to
   the C AST.

   With [opt = false] the pipeline is the identity on the unit —
   [Mir_to_c] is the exact inverse of [Mir_of_c] — so inserting it
   into the codegen path changes nothing observable. With [opt = true]
   the emitted C differs syntactically but is bit-exact under SIL
   execution, which the MIL/SIL differential fuzzer enforces. *)

type lifted = {
  env : Mir_env.t;
  funcs : (C_ast.func * Mir.stmt list) list;
}

(* lift the functions of a unit with its header's declarations in
   scope; analysis checkers consume this directly *)
let lift ~(header : C_ast.item list) (u : C_ast.cunit) : lifted =
  let env = Mir_env.create (header @ u.C_ast.items) in
  let funcs =
    List.filter_map
      (function
        | C_ast.Func_def f -> Some (f, Mir_of_c.lift_stmts f.C_ast.body)
        | _ -> None)
      u.C_ast.items
  in
  { env; funcs }

(* function names called anywhere in a list of C statements *)
let rec calls_in_stmts acc (ss : C_ast.stmt list) =
  let rec in_expr acc (e : C_ast.expr) =
    match e with
    | C_ast.Call (f, args) -> List.fold_left in_expr (f :: acc) args
    | C_ast.Un (_, a) | C_ast.Cast_to (_, a) | C_ast.Field (a, _) -> in_expr acc a
    | C_ast.Bin (_, a, b) | C_ast.Index (a, b) -> in_expr (in_expr acc a) b
    | C_ast.Ternary (a, b, c) -> in_expr (in_expr (in_expr acc a) b) c
    | C_ast.Int_lit _ | C_ast.Hex_lit _ | C_ast.Float_lit _ | C_ast.Var _ -> acc
  in
  let in_stmt acc (s : C_ast.stmt) =
    match s with
    | C_ast.Expr e | C_ast.Return (Some e) | C_ast.Decl (_, _, Some e) ->
        in_expr acc e
    | C_ast.Assign (a, b) -> in_expr (in_expr acc a) b
    | C_ast.If (c, t, e) -> calls_in_stmts (calls_in_stmts (in_expr acc c) t) e
    | C_ast.While (c, b) -> calls_in_stmts (in_expr acc c) b
    | C_ast.For (i, c, u, b) ->
        calls_in_stmts (in_expr (calls_in_stmts acc [ i; u ]) c) b
    | C_ast.Block b -> calls_in_stmts acc b
    | C_ast.Decl (_, _, None) | C_ast.Return None | C_ast.Comment _
    | C_ast.Raw _ ->
        acc
  in
  List.fold_left in_stmt acc ss

let is_helper name =
  match name with
  | "pe_sat16" | "pe_sat_add32" | "pe_mul_shift" -> true
  | _ -> Mir.qkind_of_name name <> None

(* drop static pe_* helper definitions nothing calls any more *)
let prune_helpers (items : C_ast.item list) : C_ast.item list =
  let called =
    List.fold_left
      (fun acc it ->
        match it with
        | C_ast.Func_def f when not (is_helper f.C_ast.fname) ->
            calls_in_stmts acc f.C_ast.body
        | _ -> acc)
      [] items
  in
  List.filter
    (function
      | C_ast.Func_def f
        when f.C_ast.static && is_helper f.C_ast.fname
             && not (List.mem f.C_ast.fname called) ->
          false
      | _ -> true)
    items

let process ?(opt = false) ~(header : C_ast.item list) (u : C_ast.cunit) :
    C_ast.cunit =
  let env = Mir_env.create (header @ u.C_ast.items) in
  let init_fn =
    List.fold_left
      (fun acc it ->
        match it with
        | C_ast.Func_def f
          when String.length f.C_ast.fname >= 11
               && String.sub f.C_ast.fname
                    (String.length f.C_ast.fname - 11)
                    11
                  = "_initialize" ->
            f.C_ast.fname
        | _ -> acc)
      "" u.C_ast.items
  in
  (* lift (and with [opt] verify) every function *)
  let lifted =
    List.map
      (function
        | C_ast.Func_def f ->
            let body = Mir_of_c.lift_stmts f.C_ast.body in
            if opt && not (is_helper f.C_ast.fname) then
              Mir_typecheck.verify_exn env f body;
            `F (f, body)
        | it -> `I it)
      u.C_ast.items
  in
  let lifted =
    if not opt then lifted
    else begin
      (* pass 1: fold, so initialiser stores become literals *)
      let lifted =
        List.map
          (function
            | `F (f, body) when not (is_helper f.C_ast.fname) ->
                let body = Mir_opt.optimize env f body in
                Mir_typecheck.verify_exn env f body;
                `F (f, body)
            | x -> x)
          lifted
      in
      (* pass 2: propagate write-once global constants across
         functions, then re-optimise with the new literals in place *)
      let funcs =
        List.filter_map (function `F fb -> Some fb | `I _ -> None) lifted
      in
      let cands = Mir_opt.const_global_candidates env ~init_fn funcs in
      if cands = [] then lifted
      else
        List.map
          (function
            | `F (f, body)
              when (not (is_helper f.C_ast.fname))
                   && not (String.equal f.C_ast.fname init_fn) ->
                let body = Mir_opt.subst_global_loads cands body in
                let body = Mir_opt.optimize env f body in
                Mir_typecheck.verify_exn env f body;
                `F (f, body)
            | x -> x)
          lifted
    end
  in
  let items =
    List.map
      (function
        | `F (f, body) ->
            C_ast.Func_def { f with C_ast.body = Mir_to_c.lower_stmts body }
        | `I it -> it)
      lifted
  in
  let items = if opt then prune_helpers items else items in
  { u with C_ast.items }
