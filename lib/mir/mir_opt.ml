(* IR-verified optimisation passes over MIR, gated behind
   `ecsd codegen --opt`:

   - constant folding, backed by the exact C99 reference evaluator
     ([Mir_eval]): a fold happens only when the evaluator produces a
     defined result AND the literal's own C type matches the folded
     expression's type, so the rewrite can never change the value of
     an enclosing expression through the usual arithmetic conversions
   - saturation-op fusion: a pe_sat16 / pe_cast_* / pe_sat_add32 call
     whose argument type already fits inside the clamp bounds is
     replaced by the plain conversion it is equivalent to
   - constant-branch elimination (if/while/ternary on a constant)
   - local constant and copy propagation within straight-line code
   - dead-store elimination for locals that are never read
   - cross-function propagation of write-once global constants set in
     <name>_initialize

   Every pass preserves the bit-exact observable behaviour of the
   generated step function; the MIL/SIL differential fuzzer is the
   oracle for that claim (test_silvm.ml). *)

(* ---- expression rewriting ---- *)

let rec map_expr f (e : Mir.expr) : Mir.expr =
  let e =
    match e with
    | Mir.Kint _ | Mir.Kfloat _ | Mir.Eopaque _ -> e
    | Mir.Load p -> Mir.Load (map_place f p)
    | Mir.Eaddr p -> Mir.Eaddr (map_place f p)
    | Mir.Eun (op, a) -> Mir.Eun (op, map_expr f a)
    | Mir.Ebin (op, a, b) -> Mir.Ebin (op, map_expr f a, map_expr f b)
    | Mir.Ecast (t, a) -> Mir.Ecast (t, map_expr f a)
    | Mir.Equantize (k, a) -> Mir.Equantize (k, map_expr f a)
    | Mir.Esat16 a -> Mir.Esat16 (map_expr f a)
    | Mir.Esat_add32 (a, b) -> Mir.Esat_add32 (map_expr f a, map_expr f b)
    | Mir.Emul_shift (a, b, s) ->
        Mir.Emul_shift (map_expr f a, map_expr f b, map_expr f s)
    | Mir.Ecall (n, args) -> Mir.Ecall (n, List.map (map_expr f) args)
    | Mir.Eselect (c, a, b) ->
        Mir.Eselect (map_expr f c, map_expr f a, map_expr f b)
  in
  f e

and map_place f = function
  | Mir.Pvar v -> Mir.Pvar v
  | Mir.Pfield (p, fl) -> Mir.Pfield (map_place f p, fl)
  | Mir.Pindex (p, i) -> Mir.Pindex (map_place f p, map_expr f i)

(* ---- constant folding ---- *)

(* spell a constant value as a literal whose own C type matches the
   value's type, [None] when no such literal exists (64-bit values,
   f32 values, non-finite floats) *)
let literal_of_value (v : Mir_eval.value) : Mir.expr option =
  match v with
  | Mir_eval.Vi (ity, x) ->
      if ity.Mir.bits > 32 then None
      else if ity.Mir.signed || ity.Mir.bits < 32 then
        (* every sub-int type promotes to signed int with the same
           value, exactly like a decimal literal *)
        Some (Mir.Kint (Int64.to_int x, Mir.Dec))
      else
        (* u32: a hex literal prints with a U suffix and is unsigned *)
        Some (Mir.Kint (Int64.to_int (Mir_eval.norm ity x), Mir.Hex))
  | Mir_eval.Vf (Mir.Tf64, x) when Float.is_finite x -> Some (Mir.Kfloat x)
  | Mir_eval.Vf _ -> None

let try_fold (e : Mir.expr) : Mir.expr =
  match e with
  | Mir.Kint _ | Mir.Kfloat _ | Mir.Load _ | Mir.Eaddr _ | Mir.Eopaque _ -> e
  | _ -> (
      match Mir_eval.const_eval e with
      | Some v -> ( match literal_of_value v with Some l -> l | None -> e)
      | None -> e)

let int_ty_inside (lo_b, hi_b) ty =
  match ty with
  | Mir.Tint _ ->
      let lo, hi = Mir_env.ty_range ty in
      lo >= lo_b && hi <= hi_b
  | _ -> false

let cty_of_qkind = function
  | Mir.Qb -> None (* maps non-zero to 1: not a conversion *)
  | Mir.Qi8 -> Some C_ast.I8
  | Mir.Qu8 -> Some C_ast.U8
  | Mir.Qi16 -> Some C_ast.I16
  | Mir.Qu16 -> Some C_ast.U16
  | Mir.Qi32 -> Some C_ast.I32
  | Mir.Qu32 -> Some C_ast.U32

(* type-based saturation fusion: when the argument's declared type
   already fits inside the clamp bounds the saturation can never fire
   (and rounding is the identity on integers), so the helper call is
   the conversion it wraps *)
let fuse env locals (e : Mir.expr) : Mir.expr =
  let ty_of = Mir_env.ty_of_expr env locals in
  match e with
  | Mir.Esat16 a when int_ty_inside (-32768.0, 32767.0) (ty_of a) ->
      Mir.Ecast (C_ast.I16, a)
  | Mir.Equantize (k, a)
    when cty_of_qkind k <> None
         && int_ty_inside (Mir.qkind_bounds k) (ty_of a) -> (
      match cty_of_qkind k with
      | Some cty -> Mir.Ecast (cty, a)
      | None -> e)
  | Mir.Esat_add32 (a, b) -> (
      match (ty_of a, ty_of b) with
      | (Mir.Tint _ as ta), (Mir.Tint _ as tb) ->
          let la, ha = Mir_env.ty_range ta and lb, hb = Mir_env.ty_range tb in
          if la +. lb >= -2147483648.0 && ha +. hb <= 2147483647.0 then
            Mir.Ebin (Mir.Add, a, b)
          else e
      | _ -> e)
  | Mir.Eselect (Mir.Kint (c, _), a, b) ->
      (* the arms of a ternary influence each other's type; taking a
         branch is only safe when both arms agree *)
      let ta = ty_of a and tb = ty_of b in
      if ta = tb && ta <> Mir.Tunknown then (if c <> 0 then a else b) else e
  | _ -> e

let fold_node env locals e = fuse env locals (try_fold e)
let fold_expr env locals e = map_expr (fold_node env locals) e

(* truth of a constant condition, if it is one *)
let const_cond e =
  match Mir_eval.const_eval e with
  | Some v -> Some (Mir_eval.is_truthy v)
  | None -> None

(* fold expressions and eliminate constant branches, threading the
   local typing context like the verifier does *)
let rec fold_stmts env locals (ss : Mir.stmt list) : _ * Mir.stmt list =
  match ss with
  | [] -> (locals, [])
  | s :: rest ->
      let locals, s' = fold_stmt env locals s in
      let locals, rest' = fold_stmts env locals rest in
      (locals, s' @ rest')

and fold_stmt env locals (s : Mir.stmt) : _ * Mir.stmt list =
  let fe = fold_expr env locals in
  match s with
  | Mir.Sdecl (cty, n, init) ->
      ( (n, Mir_env.vty_of_cty env cty) :: locals,
        [ Mir.Sdecl (cty, n, Option.map fe init) ] )
  | Mir.Sassign (p, e) ->
      (locals, [ Mir.Sassign (map_place (fold_node env locals) p, fe e) ])
  | Mir.Sexpr e -> (locals, [ Mir.Sexpr (fe e) ])
  | Mir.Sincr p -> (locals, [ Mir.Sincr (map_place (fold_node env locals) p) ])
  | Mir.Sif (c, t, e) -> (
      let c = fe c in
      match const_cond c with
      | Some true ->
          let _, t' = fold_stmts env locals t in
          (locals, [ Mir.Sblock t' ])
      | Some false ->
          let _, e' = fold_stmts env locals e in
          (locals, if e' = [] then [] else [ Mir.Sblock e' ])
      | None ->
          let _, t' = fold_stmts env locals t in
          let _, e' = fold_stmts env locals e in
          (locals, [ Mir.Sif (c, t', e') ]))
  | Mir.Swhile (c, b) -> (
      let c = fe c in
      match const_cond c with
      | Some false -> (locals, [])
      | _ ->
          let _, b' = fold_stmts env locals b in
          (locals, [ Mir.Swhile (c, b') ]))
  | Mir.Sfor (i, c, u, b) -> (
      let locals', i' = fold_stmt env locals i in
      let i' = match i' with [ one ] -> one | l -> Mir.Sblock l in
      let c = fold_expr env locals' c in
      match const_cond c with
      | Some false ->
          (* the init still runs (and stays scoped to the loop) *)
          (locals, [ Mir.Sblock [ i' ] ])
      | _ ->
          let _, u' = fold_stmt env locals' u in
          let u' = match u' with [ one ] -> one | l -> Mir.Sblock l in
          let _, b' = fold_stmts env locals' b in
          (locals, [ Mir.Sfor (i', c, u', b') ]))
  | Mir.Sreturn e -> (locals, [ Mir.Sreturn (Option.map fe e) ])
  | Mir.Sblock b ->
      let _, b' = fold_stmts env locals b in
      (locals, [ Mir.Sblock b' ])
  | Mir.Scomment _ | Mir.Sopaque _ -> (locals, [ s ])

(* ---- local constant / copy propagation ---- *)

(* an expression is safe to duplicate into use sites *)
let propagatable = function
  | Mir.Kint _ | Mir.Kfloat _ -> true
  | Mir.Load (Mir.Pvar _) -> true
  | _ -> false

let expr_reads_var v e =
  let found = ref false in
  Mir.iter_expr
    (fun e ->
      match e with
      | (Mir.Load p | Mir.Eaddr p) when Mir.place_root p = v -> found := true
      | Mir.Eopaque ce when List.mem v (Mir.vars_of_c ce) -> found := true
      | _ -> ())
    e;
  !found

let expr_impure e =
  let found = ref false in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Ecall _ | Mir.Eaddr _ | Mir.Eopaque _ -> found := true
      | _ -> ())
    e;
  !found

(* literal with the same value *converted to* the local's scalar type,
   when such a literal exists *)
let literal_for ty (e : Mir.expr) : Mir.expr option =
  match (ty, Mir_eval.const_eval e) with
  | Mir.Tint _, Some v | Mir.Tf64, Some v -> (
      match Mir_eval.convert ty v with
      | v' -> literal_of_value v'
      | exception Mir_eval.Undefined _ -> None)
  | _ -> None

let propagate env (body : Mir.stmt list) : Mir.stmt list =
  (* subst: local -> literal or Load of an identically typed place *)
  let kill subst v =
    List.filter
      (fun (x, e) -> (not (String.equal x v)) && not (expr_reads_var v e))
      subst
  in
  let apply subst e =
    map_expr
      (fun e ->
        match e with
        | Mir.Load (Mir.Pvar x) -> (
            match List.assoc_opt x subst with Some r -> r | None -> e)
        | _ -> e)
      e
  in
  let rec go locals subst ss =
    match ss with
    | [] -> []
    | s :: rest -> (
        let subst, s' = step locals subst s in
        let locals =
          match s with
          | Mir.Sdecl (cty, n, _) -> (n, Mir_env.vty_of_cty env cty) :: locals
          | _ -> locals
        in
        match s' with
        | None -> go locals subst rest
        | Some s' -> s' :: go locals subst rest)
  and bind locals subst x rhs =
    let subst = kill subst x in
    let ty = Mir_env.scalar_of_vty (Mir_env.var_vty env locals x) in
    match literal_for ty rhs with
    | Some l -> (x, l) :: subst
    | None -> (
        match rhs with
        | Mir.Load (Mir.Pvar y as p)
          when (not (Mir_env.is_volatile env y))
               && Mir_env.scalar_of_vty (Mir_env.place_vty env locals p) = ty
               && ty <> Mir.Tunknown ->
            (x, rhs) :: subst
        | _ -> subst)
  and step locals subst s =
    match s with
    | Mir.Sdecl (cty, n, init) -> (
        let init = Option.map (apply subst) init in
        let subst = kill subst n in
        match init with
        | Some rhs when propagatable rhs ->
            (bind ((n, Mir_env.vty_of_cty env cty) :: locals) subst n rhs,
             Some (Mir.Sdecl (cty, n, Some rhs)))
        | _ ->
            let subst = if Option.is_some init && expr_impure (Option.get init) then [] else subst in
            (subst, Some (Mir.Sdecl (cty, n, init))))
    | Mir.Sassign (p, e) -> (
        let e = apply subst e in
        let p = map_place (fun i -> apply subst i) p in
        let subst = if expr_impure e then [] else kill subst (Mir.place_root p) in
        match p with
        | Mir.Pvar x when propagatable e && not (expr_impure e) ->
            (bind locals subst x e, Some (Mir.Sassign (p, e)))
        | _ -> (subst, Some (Mir.Sassign (p, e))))
    | Mir.Sexpr e ->
        let e = apply subst e in
        ((if expr_impure e then [] else subst), Some (Mir.Sexpr e))
    | Mir.Sincr p ->
        let p = map_place (fun i -> apply subst i) p in
        (kill subst (Mir.place_root p), Some (Mir.Sincr p))
    | Mir.Sreturn e ->
        let e = Option.map (apply subst) e in
        (subst, Some (Mir.Sreturn e))
    | Mir.Sif (c, t, e) ->
        let c = apply subst c in
        let t' = go locals subst t in
        let e' = go locals subst e in
        (* conservative: a branch may have invalidated anything *)
        ([], Some (Mir.Sif (c, t', e')))
    | Mir.Swhile (c, b) ->
        (* bindings from before the loop are not valid inside it (the
           body may run after they are invalidated on iteration 2) *)
        ([], Some (Mir.Swhile (c, go locals [] b)))
    | Mir.Sfor (i, c, u, b) ->
        let _, i' =
          match step locals [] i with s, Some i' -> (s, i') | _, None -> ([], i)
        in
        ([], Some (Mir.Sfor (i', c, u, go locals [] b)))
    | Mir.Sblock b -> (subst, Some (Mir.Sblock (go locals subst b)))
    | Mir.Scomment _ -> (subst, Some s)
    | Mir.Sopaque _ -> ([], Some s)
  in
  go [] [] body

(* ---- dead-store elimination ---- *)

module Sset = Set.Make (String)

let locals_declared body =
  let acc = ref Sset.empty in
  List.iter
    (Mir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Mir.Sdecl (_, n, _) -> acc := Sset.add n !acc
         | _ -> ())
       ~expr:(fun _ -> ()))
    body;
  !acc

(* every local whose value can ever be observed: read anywhere,
   mentioned or addressed in an opaque fragment *)
let observed_locals locals body =
  let acc = ref Sset.empty in
  let note v = if Sset.mem v locals then acc := Sset.add v !acc in
  let on_expr e =
    match e with
    | Mir.Load p | Mir.Eaddr p -> note (Mir.place_root p)
    | Mir.Eopaque ce ->
        List.iter note (Mir.vars_of_c ce);
        List.iter note (Mir.addressed_vars_of_c ce)
    | _ -> ()
  in
  let on_stmt s =
    match s with
    | Mir.Sopaque cs ->
        let rec scan (cs : C_ast.stmt) =
          match cs with
          | C_ast.Expr e | C_ast.Return (Some e) | C_ast.Decl (_, _, Some e) ->
              List.iter note (Mir.vars_of_c e)
          | C_ast.Assign (a, b) ->
              List.iter note (Mir.vars_of_c a);
              List.iter note (Mir.vars_of_c b)
          | C_ast.If (c, t, e) ->
              List.iter note (Mir.vars_of_c c);
              List.iter scan t;
              List.iter scan e
          | C_ast.While (c, b) ->
              List.iter note (Mir.vars_of_c c);
              List.iter scan b
          | C_ast.For (i, c, u, b) ->
              scan i;
              List.iter note (Mir.vars_of_c c);
              scan u;
              List.iter scan b
          | C_ast.Block b -> List.iter scan b
          | _ -> ()
        in
        scan cs
    | _ -> ()
  in
  List.iter (Mir.iter_stmt ~stmt:on_stmt ~expr:on_expr) body;
  !acc

let dce (body : Mir.stmt list) : Mir.stmt list =
  let rec pass body =
    let locals = locals_declared body in
    let observed = observed_locals locals body in
    (* a local is removable when nothing observes it and none of its
       writes has an effectful right-hand side *)
    let keep = ref observed in
    List.iter
      (Mir.iter_stmt
         ~stmt:(fun s ->
           match s with
           | Mir.Sdecl (_, n, Some e) when Mir_dfa.observable e ->
               keep := Sset.add n !keep
           | Mir.Sassign (Mir.Pvar v, e) when Mir_dfa.observable e ->
               keep := Sset.add v !keep
           | _ -> ())
         ~expr:(fun _ -> ()))
      body;
    let removable v = Sset.mem v locals && not (Sset.mem v !keep) in
    let changed = ref false in
    let rec filt ss = List.filter_map stmt ss
    and stmt s =
      match s with
      | Mir.Sdecl (_, n, _) when removable n ->
          changed := true;
          None
      | Mir.Sassign (Mir.Pvar v, _) when removable v ->
          changed := true;
          None
      | Mir.Sincr (Mir.Pvar v) when removable v ->
          changed := true;
          None
      | Mir.Sif (c, t, e) -> Some (Mir.Sif (c, filt t, filt e))
      | Mir.Swhile (c, b) -> Some (Mir.Swhile (c, filt b))
      | Mir.Sfor (i, c, u, b) ->
          (* the loop head keeps its statements structurally *)
          Some (Mir.Sfor (i, c, u, filt b))
      | Mir.Sblock b -> Some (Mir.Sblock (filt b))
      | _ -> Some s
    in
    let body' = filt body in
    if !changed then pass body' else body'
  in
  pass body

(* ---- write-once global constants ---- *)

(* A global scalar place that is stored exactly once across the unit,
   in [init_fn], with a literal right-hand side, whose root is never
   volatile, never addressed and never written through an unknown
   index, is a constant everywhere else: substitute its loads in the
   other functions. The store itself stays (the SIL harness reads the
   B/DW fields every step). *)
let const_global_candidates env ~(init_fn : string)
    (funcs : (C_ast.func * Mir.stmt list) list) : (string * Mir.expr) list =
  let stores = Hashtbl.create 32 in (* path -> (fn, literal rhs) list *)
  let dirty_roots = Hashtbl.create 8 in
  let local_names body =
    Sset.union (locals_declared body) Sset.empty
  in
  List.iter
    (fun ((f : C_ast.func), body) ->
      let locals =
        List.fold_left
          (fun s (_, n) -> Sset.add n s)
          (local_names body)
          f.C_ast.args
      in
      let dirty root = Hashtbl.replace dirty_roots root () in
      let on_expr e =
        match e with
        | Mir.Eaddr p -> dirty (Mir.place_root p)
        | Mir.Eopaque ce ->
            List.iter dirty (Mir.vars_of_c ce);
            List.iter dirty (Mir.addressed_vars_of_c ce)
        | _ -> ()
      in
      let on_stmt s =
        match s with
        | Mir.Sassign (p, rhs) when not (Sset.mem (Mir.place_root p) locals)
          -> (
            let root = Mir.place_root p in
            match Mir.place_path p with
            | None -> dirty root
            | Some path ->
                let lit =
                  match rhs with
                  | Mir.Kint _ | Mir.Kfloat _ -> Some rhs
                  | _ -> None
                in
                Hashtbl.replace stores path
                  ((f.C_ast.fname, lit)
                  :: (try Hashtbl.find stores path with Not_found -> [])))
        | Mir.Sincr p when not (Sset.mem (Mir.place_root p) locals) ->
            dirty (Mir.place_root p)
        | Mir.Sopaque cs ->
            let rec scan (cs : C_ast.stmt) =
              match cs with
              | C_ast.Expr e | C_ast.Return (Some e)
              | C_ast.Decl (_, _, Some e) ->
                  List.iter dirty (Mir.vars_of_c e)
              | C_ast.Assign (a, b) ->
                  List.iter dirty (Mir.vars_of_c a);
                  List.iter dirty (Mir.vars_of_c b)
              | C_ast.If (c, t, e) ->
                  List.iter dirty (Mir.vars_of_c c);
                  List.iter scan t;
                  List.iter scan e
              | C_ast.While (c, b) ->
                  List.iter dirty (Mir.vars_of_c c);
                  List.iter scan b
              | C_ast.For (i, c, u, b) ->
                  scan i;
                  List.iter dirty (Mir.vars_of_c c);
                  scan u;
                  List.iter scan b
              | C_ast.Block b -> List.iter scan b
              | _ -> ()
            in
            scan cs
        | _ -> ()
      in
      List.iter (Mir.iter_stmt ~stmt:on_stmt ~expr:on_expr) body)
    funcs;
  Hashtbl.fold
    (fun path writes acc ->
      let root =
        match String.index_opt path '.' with
        | Some i -> String.sub path 0 i
        | None -> (
            match String.index_opt path '[' with
            | Some i -> String.sub path 0 i
            | None -> path)
      in
      match writes with
      | [ (fn, Some lit) ]
        when String.equal fn init_fn
             && (not (Hashtbl.mem dirty_roots root))
             && not (Mir_env.is_volatile env root) ->
          (* the literal must spell the value actually stored: require
             the conversion into the place's type to be the identity *)
          let pty =
            (* rebuild the place type from the path: only simple
               root/field paths are candidates in practice *)
            let rec place_of =
              let open Mir in
              fun s ->
                match String.index_opt s '.' with
                | Some i ->
                    Pfield
                      (place_of (String.sub s 0 i),
                       String.sub s (i + 1) (String.length s - i - 1))
                | None -> Pvar s
            in
            if String.contains path '[' then Mir.Tunknown
            else
              Mir_env.scalar_of_vty (Mir_env.place_vty env [] (place_of path))
          in
          (match (pty, literal_for pty lit) with
          | Mir.Tunknown, _ | _, None -> acc
          | _, Some l when l = lit -> (path, lit) :: acc
          | _, Some _ -> acc)
      | _ -> acc)
    stores []

(* substitute loads of candidate paths (outside the initialiser) *)
let subst_global_loads (cands : (string * Mir.expr) list)
    (body : Mir.stmt list) : Mir.stmt list =
  if cands = [] then body
  else
    let rewrite e =
      map_expr
        (fun e ->
          match e with
          | Mir.Load p -> (
              match Mir.place_path p with
              | Some path -> (
                  match List.assoc_opt path cands with
                  | Some lit -> lit
                  | None -> e)
              | None -> e)
          | _ -> e)
        e
    in
    let rec go ss = List.map stmt ss
    and stmt s =
      match s with
      | Mir.Sdecl (t, n, init) -> Mir.Sdecl (t, n, Option.map rewrite init)
      | Mir.Sassign (p, e) -> Mir.Sassign (map_place rewrite p, rewrite e)
      | Mir.Sexpr e -> Mir.Sexpr (rewrite e)
      | Mir.Sincr p -> Mir.Sincr (map_place rewrite p)
      | Mir.Sif (c, t, e) -> Mir.Sif (rewrite c, go t, go e)
      | Mir.Swhile (c, b) -> Mir.Swhile (rewrite c, go b)
      | Mir.Sfor (i, c, u, b) -> Mir.Sfor (stmt i, rewrite c, stmt u, go b)
      | Mir.Sreturn e -> Mir.Sreturn (Option.map rewrite e)
      | Mir.Sblock b -> Mir.Sblock (go b)
      | Mir.Scomment _ | Mir.Sopaque _ -> s
    in
    go body

(* ---- per-function driver ---- *)

(* per-pass self-profiling; accumulated across every optimized function,
   read back via --profile and BENCH_perf.json *)
let timed name f =
  if not (Obs.enabled ()) then f ()
  else begin
    let t0 = Obs.now_ns () in
    let r = f () in
    Obs.record_named name ((Obs.now_ns () -. t0) *. 1e-9);
    r
  end

let optimize env (f : C_ast.func) (body : Mir.stmt list) : Mir.stmt list =
  let base =
    List.map (fun (cty, n) -> (n, Mir_env.vty_of_cty env cty)) f.C_ast.args
  in
  (* fold and propagate feed each other (a propagated literal exposes a
     fold; a folded initialiser becomes propagatable), so iterate the
     pair to a fixpoint. Generated step functions settle in 2 rounds;
     the bound only guards against a pathological ping-pong. *)
  let rec settle round body =
    let _, folded =
      timed "profile.mir.fold_s" (fun () -> fold_stmts env base body)
    in
    let propagated =
      timed "profile.mir.propagate_s" (fun () -> propagate env folded)
    in
    if propagated = folded || round >= 8 then folded
    else settle (round + 1) propagated
  in
  let settled = settle 1 body in
  timed "profile.mir.dce_s" (fun () -> dce settled)
