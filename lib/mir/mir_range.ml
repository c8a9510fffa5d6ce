(* Value-range analysis over the MIR CFG, and the saturation-op
   prover built on it.

   The domain is a map from canonical place paths to closed float
   intervals; a missing key means "anything representable in the
   place's type". The solver is the generic worklist engine
   ([Dataflow.Solve]) with interval widening after a few visits of the
   same node, so loop counters converge without walking the whole
   int32 range.

   The prover classifies every [Esat16] / [Esat_add32] / [Equantize]
   site against the stabilised intervals:

   - [Never]:  the clamp can never change the value (discharged)
   - [Always]: the clamp fires on every execution (confirmed)
   - [May]:    the range straddles a saturation bound

   Intervals over-approximate the reachable values, so [Never] and
   [Always] are sound claims; [May] is the honest "cannot prove". *)

type itv = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }

(* normalise: a NaN bound means an infinity was involved upstream *)
let mk lo hi =
  if Float.is_nan lo || Float.is_nan hi then top else { lo; hi }

let const x = mk x x
let hull a b = mk (Float.min a.lo b.lo) (Float.max a.hi b.hi)
let is_finite i = Float.is_finite i.lo && Float.is_finite i.hi

module Smap = Map.Make (String)

(* [None] is the unreachable (bottom) state; a present map binds the
   place paths about which something is known *)
module L = struct
  type t = itv Smap.t option

  let bottom = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b ->
        Smap.equal (fun x y -> compare x y = 0) a b
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        (* a key missing on either side is top there: drop it *)
        Some
          (Smap.merge
             (fun _ x y ->
               match (x, y) with Some x, Some y -> Some (hull x y) | _ -> None)
             a b)
end

module Solver = Dataflow.Solve (L)

(* unbounded growth in loops: keep each bound that is still moving *)
let widen ~old ~next =
  match (old, next) with
  | None, x -> x
  | Some o, Some n ->
      Some
        (Smap.filter_map
           (fun k ni ->
             match Smap.find_opt k o with
             | None -> None (* key appeared late: give it up *)
             | Some oi ->
                 let lo = if ni.lo < oi.lo then neg_infinity else ni.lo in
                 let hi = if ni.hi > oi.hi then infinity else ni.hi in
                 Some (mk lo hi))
           n)
  | Some _, None -> None

(* ---- sat-site verdicts ---- *)

type verdict = Never | May | Always

let verdict_name = function
  | Never -> "never saturates"
  | May -> "may saturate"
  | Always -> "always saturates"

type sat_fact = {
  op : string;  (** helper name: pe_sat16 / pe_sat_add32 / pe_cast_* *)
  site : string;  (** C spelling of the whole saturating expression *)
  verdict : verdict;
  arg : itv;  (** stabilised interval of the saturand *)
  bounds : float * float;  (** the clamp bounds of the op *)
}

(* round half away from zero, as the generated helpers do *)
let round_ha x =
  if x >= 0.0 then Float.floor (x +. 0.5) else Float.ceil (x -. 0.5)

let classify ~rounded (i : itv) (lo_b, hi_b) : verdict =
  let r = if rounded then mk (round_ha i.lo) (round_ha i.hi) else i in
  if is_finite r && r.lo >= lo_b && r.hi <= hi_b then Never
  else if (Float.is_finite r.lo && r.lo > hi_b)
          || (Float.is_finite r.hi && r.hi < lo_b)
  then Always
  else May

(* ---- abstract evaluation ---- *)

type ctx = {
  env : Mir_env.t;
  locals : (string * Mir_env.vty) list;
  mutable record : (Mir.expr -> string -> verdict -> itv -> float * float -> unit) option;
}

let place_range ctx p =
  Mir_env.ty_range (Mir_env.scalar_of_vty (Mir_env.place_vty ctx.env ctx.locals p))

let ty_itv ty = let lo, hi = Mir_env.ty_range ty in mk lo hi

(* helpers the generated code calls that cannot write memory *)
let pure_call f =
  Mir_env.libm_ty f <> None || Mir.qkind_of_name f <> None
  || (match f with
     | "pe_sat16" | "pe_sat_add32" | "pe_mul_shift" -> true
     | _ -> false)

let rec eval_itv ctx (state : itv Smap.t) (e : Mir.expr) : itv =
  let ev = eval_itv ctx state in
  let ty_of e = Mir_env.ty_of_expr ctx.env ctx.locals e in
  (* wrap semantics: when a result may leave its C type's range the
     sound answer is the whole type range *)
  let wrap e i =
    let lo, hi = Mir_env.ty_range (ty_of e) in
    if i.lo >= lo && i.hi <= hi then i else mk lo hi
  in
  match e with
  | Mir.Kint (n, _) -> const (Float.of_int n)
  | Mir.Kfloat x -> const x
  | Mir.Load p -> (
      let root = Mir.place_root p in
      if Mir_env.is_volatile ctx.env root then
        let lo, hi = place_range ctx p in
        mk lo hi
      else
        match Mir.place_path p with
        | Some path when Smap.mem path state -> Smap.find path state
        | _ ->
            let lo, hi = place_range ctx p in
            mk lo hi)
  | Mir.Eun (Mir.Neg, a) ->
      let i = ev a in
      wrap e (mk (-.i.hi) (-.i.lo))
  | Mir.Eun (Mir.Lnot, _) -> mk 0.0 1.0
  | Mir.Ebin (op, a, b) -> (
      let ia = ev a and ib = ev b in
      match op with
      | Mir.Add -> wrap e (mk (ia.lo +. ib.lo) (ia.hi +. ib.hi))
      | Mir.Sub -> wrap e (mk (ia.lo -. ib.hi) (ia.hi -. ib.lo))
      | Mir.Mul ->
          let c = [ ia.lo *. ib.lo; ia.lo *. ib.hi; ia.hi *. ib.lo; ia.hi *. ib.hi ] in
          wrap e (mk (List.fold_left Float.min infinity c)
                    (List.fold_left Float.max neg_infinity c))
      | Mir.Div ->
          if ib.lo <= 0.0 && ib.hi >= 0.0 then ty_itv (ty_of e)
          else
            let c = [ ia.lo /. ib.lo; ia.lo /. ib.hi; ia.hi /. ib.lo; ia.hi /. ib.hi ] in
            wrap e (mk (List.fold_left Float.min infinity c)
                      (List.fold_left Float.max neg_infinity c))
      | Mir.Eq | Mir.Ne | Mir.Lt | Mir.Gt | Mir.Le | Mir.Ge | Mir.Land
      | Mir.Lor ->
          mk 0.0 1.0
      | Mir.Mod | Mir.Shl | Mir.Shr | Mir.Band | Mir.Bor | Mir.Bxor ->
          ty_itv (ty_of e))
  | Mir.Ecast (_, a) ->
      let i = ev a in
      let lo, hi = Mir_env.ty_range (ty_of e) in
      (* in-range conversions are exact; otherwise the wrap (or f32
         rounding) can produce anything representable *)
      if is_finite i && i.lo >= lo && i.hi <= hi then i else mk lo hi
  | Mir.Equantize (k, a) ->
      let i = ev a in
      let bounds = Mir.qkind_bounds k in
      record_site ctx e (Mir.qkind_name k)
        (if k = Mir.Qb then May
         else
           (* the rounding path only applies to float saturands; an
              integer-typed argument is already integral *)
           classify ~rounded:(match ty_of a with
                              | Mir.Tf32 | Mir.Tf64 -> true
                              | _ -> false)
             i bounds)
        i bounds;
      if k = Mir.Qb then mk 0.0 1.0
      else
        let lo_b, hi_b = bounds in
        let r = mk (round_ha i.lo) (round_ha i.hi) in
        if is_finite r then mk (Float.max lo_b r.lo) (Float.min hi_b r.hi)
        else mk lo_b hi_b
  | Mir.Esat16 a ->
      let i = ev a in
      let bounds = (-32768.0, 32767.0) in
      record_site ctx e "pe_sat16" (classify ~rounded:false i bounds) i bounds;
      mk (Float.max (-32768.0) i.lo) (Float.min 32767.0 i.hi)
  | Mir.Esat_add32 (a, b) ->
      let ia = ev a and ib = ev b in
      let s = mk (ia.lo +. ib.lo) (ia.hi +. ib.hi) in
      let bounds = (-2147483648.0, 2147483647.0) in
      record_site ctx e "pe_sat_add32" (classify ~rounded:false s bounds) s
        bounds;
      mk (Float.max (-2147483648.0) s.lo) (Float.min 2147483647.0 s.hi)
  | Mir.Emul_shift (a, b, s) ->
      ignore (ev a); ignore (ev b); ignore (ev s);
      ty_itv Mir.i32
  | Mir.Ecall (f, args) ->
      List.iter (fun a -> ignore (ev a)) args;
      (* libm results are at least bounded for a few shapes *)
      (match f with
      | "fabs" -> (
          match args with
          | [ a ] ->
              let i = ev a in
              if is_finite i then mk 0.0 (Float.max (Float.abs i.lo) (Float.abs i.hi))
              else mk 0.0 infinity
          | _ -> top)
      | "sin" | "cos" -> mk (-1.0) 1.0
      | _ -> ty_itv (Mir_env.ty_of_expr ctx.env ctx.locals e))
  | Mir.Eselect (c, a, b) ->
      ignore (ev c);
      hull (ev a) (ev b)
  | Mir.Eaddr _ | Mir.Eopaque _ -> top

and record_site ctx e op verdict i bounds =
  match ctx.record with
  | Some f -> f e op verdict i bounds
  | None -> ()

(* remove every binding rooted at [root] *)
let havoc_root root state =
  Smap.filter
    (fun path _ ->
      not
        (String.equal path root
        || (String.length path > String.length root
           && String.sub path 0 (String.length root) = root
           && (path.[String.length root] = '.'
              || path.[String.length root] = '['))))
    state

(* variables whose address an expression lets escape: the callee may
   write them *)
let opaque_writes e =
  let acc = ref [] in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Eaddr p -> acc := Mir.place_root p :: !acc
      | Mir.Eopaque ce -> acc := Mir.addressed_vars_of_c ce @ !acc
      | _ -> ())
    e;
  !acc

(* a call that may write memory invalidates everything we know *)
let impure_call e =
  let found = ref false in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Ecall (f, _) when not (pure_call f) -> found := true
      | _ -> ())
    e;
  !found

let exec_expr ctx state e =
  let i = eval_itv ctx state e in
  let state = List.fold_left (fun st v -> havoc_root v st) state (opaque_writes e) in
  let state = if impure_call e then Smap.empty else state in
  (i, state)

let exec_atom ctx (state : itv Smap.t) (at : Mir_cfg.atom) : itv Smap.t =
  match at.Mir_cfg.a with
  | Mir_cfg.A_cond c ->
      let _, state = exec_expr ctx state c in
      state
  | Mir_cfg.A_stmt s -> (
      match s with
      | Mir.Sdecl (_, n, Some e) ->
          let i, state = exec_expr ctx state e in
          let ty =
            Mir_env.scalar_of_vty (Mir_env.var_vty ctx.env ctx.locals n)
          in
          let lo, hi = Mir_env.ty_range ty in
          let i = if i.lo >= lo && i.hi <= hi then i else mk lo hi in
          Smap.add n i state
      | Mir.Sdecl (_, n, None) -> Smap.remove n state
      | Mir.Sassign (p, e) -> (
          let i, state = exec_expr ctx state e in
          let root = Mir.place_root p in
          if Mir_env.is_volatile ctx.env root then state
          else
            match Mir.place_path p with
            | Some path ->
                let lo, hi = place_range ctx p in
                let i = if i.lo >= lo && i.hi <= hi then i else mk lo hi in
                Smap.add path i state
            | None -> havoc_root root state)
      | Mir.Sexpr e ->
          let _, state = exec_expr ctx state e in
          state
      | Mir.Sincr p -> (
          match Mir.place_path p with
          | Some path -> (
              match Smap.find_opt path state with
              | Some i ->
                  let lo, hi = place_range ctx p in
                  let n = mk (i.lo +. 1.0) (i.hi +. 1.0) in
                  Smap.add path
                    (if n.lo >= lo && n.hi <= hi then n else mk lo hi)
                    state
              | None -> state)
          | None -> havoc_root (Mir.place_root p) state)
      | Mir.Sreturn (Some e) ->
          let _, state = exec_expr ctx state e in
          state
      | Mir.Sreturn None | Mir.Scomment _ -> state
      | Mir.Sopaque _ ->
          (* an unmodelled statement may write anything *)
          Smap.empty
      | Mir.Sif _ | Mir.Swhile _ | Mir.Sfor _ | Mir.Sblock _ -> state)

let rec locals_of_body acc env = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match s with
        | Mir.Sdecl (cty, n, _) -> (n, Mir_env.vty_of_cty env cty) :: acc
        | Mir.Sif (_, t, e) -> locals_of_body (locals_of_body acc env t) env e
        | Mir.Swhile (_, b) | Mir.Sblock b -> locals_of_body acc env b
        | Mir.Sfor (i, _, u, b) -> locals_of_body acc env (i :: u :: b)
        | _ -> acc
      in
      locals_of_body acc env rest

(* analyse one function body; returns the verdict facts in source
   order (by atom id) *)
let analyze env (f : C_ast.func) (body : Mir.stmt list) : sat_fact list =
  let locals =
    List.map (fun (cty, n) -> (n, Mir_env.vty_of_cty env cty)) f.C_ast.args
    @ locals_of_body [] env body
  in
  let ctx = { env; locals; record = None } in
  let cfg = Mir_cfg.build body in
  let transfer i (fact : L.t) : L.t =
    match fact with
    | None -> None
    | Some state ->
        Some
          (List.fold_left (exec_atom ctx) state
             cfg.Mir_cfg.nodes.(i).Mir_cfg.atoms)
  in
  let res =
    Solver.run ~widen Dataflow.Forward cfg ~entry:(Some Smap.empty) ~transfer
  in
  (* final pass with the stabilised inputs, recording every sat site;
     key facts by atom to keep them in source order and deduplicated *)
  let facts = ref [] in
  Array.iter
    (fun n ->
      match res.Solver.inp.(n.Mir_cfg.nid) with
      | None -> ()
      | Some state ->
          let state = ref state in
          List.iter
            (fun at ->
              ctx.record <-
                Some
                  (fun e op verdict i bounds ->
                    facts :=
                      ( at.Mir_cfg.aid,
                        {
                          op;
                          site = Mir_to_c.expr_to_string e;
                          verdict;
                          arg = i;
                          bounds;
                        } )
                      :: !facts);
              state := exec_atom ctx !state at;
              ctx.record <- None)
            n.Mir_cfg.atoms)
    cfg.Mir_cfg.nodes;
  List.sort (fun (a, _) (b, _) -> compare a b) !facts |> List.map snd
