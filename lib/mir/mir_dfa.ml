(* Def-use analyses over the MIR CFG, built on the worklist solver:

   - definite assignment (forward, must): reads of a local before any
     assignment on some path  -> uninitialised-read facts
   - liveness (backward, may): assignments to a local that no path
     reads before the next write or the function end -> dead stores
   - CFG reachability: statements no path reaches -> unreachable code

   The facts are plain data; lib/analysis maps them onto stable
   MIR00x Diag rules (the IR library stays below the rule engine). *)

type fact =
  | Uninit_read of { var : string; loc : string }
  | Dead_store of { var : string; loc : string }
  | Unreachable of { loc : string }

module Sset = Set.Make (String)

let loc_of_astmt = function
  | Mir_cfg.A_stmt s -> Mir_to_c.stmt_to_string s
  | Mir_cfg.A_cond c -> Mir_to_c.expr_to_string c

(* locals of a body: every declaration, plus the function arguments
   (arguments count as initialised) *)
let rec decls_of acc = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match s with
        | Mir.Sdecl (_, n, _) -> Sset.add n acc
        | Mir.Sif (_, t, e) -> decls_of (decls_of acc t) e
        | Mir.Swhile (_, b) | Mir.Sblock b -> decls_of acc b
        | Mir.Sfor (i, _, u, b) -> decls_of (decls_of acc (i :: u :: b)) []
        | _ -> acc
      in
      decls_of acc rest

(* variables read by an expression, restricted to plain [Pvar] roots *)
let reads_of_expr locals e =
  let acc = ref Sset.empty in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Load (Mir.Pvar v) when Sset.mem v locals -> acc := Sset.add v !acc
      | Mir.Load p ->
          (* reading b.f or a[i] reads the root and any index vars;
             iter_expr already visits index expressions *)
          let root = Mir.place_root p in
          if Sset.mem root locals then acc := Sset.add root !acc
      | Mir.Eaddr _ ->
          (* an out-parameter: the callee writes the root, so it counts
             defined (below), not read; iter_expr visits index exprs *)
          ()
      | Mir.Eopaque ce ->
          (* a local that only appears as [&v] is an out-parameter — the
             callee writes it; count it defined (below), not read *)
          let addressed = Sset.of_list (Mir.addressed_vars_of_c ce) in
          List.iter
            (fun v ->
              if Sset.mem v locals && not (Sset.mem v addressed) then
                acc := Sset.add v !acc)
            (Mir.vars_of_c ce)
      | _ -> ())
    e;
  !acc

(* locals whose address escapes ([Eaddr], or [&v] inside an opaque
   fragment): treat as both defined (the callee may write them) and
   used (it may read them) *)
let addressed_of_expr locals e =
  let acc = ref Sset.empty in
  let note v = if Sset.mem v locals then acc := Sset.add v !acc in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Eaddr p -> note (Mir.place_root p)
      | Mir.Eopaque ce ->
          List.iter note (Mir.addressed_vars_of_c ce)
      | _ -> ())
    e;
  !acc

(* per-atom effect: (reads, defines, addressed) over locals *)
let effect locals (a : Mir_cfg.astmt) =
  let e3 reads defs addr = (reads, defs, addr) in
  match a with
  | Mir_cfg.A_cond c ->
      e3 (reads_of_expr locals c) Sset.empty (addressed_of_expr locals c)
  | Mir_cfg.A_stmt s -> (
      match s with
      | Mir.Sdecl (_, n, Some e) ->
          e3 (reads_of_expr locals e)
            (Sset.singleton n)
            (addressed_of_expr locals e)
      | Mir.Sdecl (_, _, None) -> e3 Sset.empty Sset.empty Sset.empty
      | Mir.Sassign (p, e) ->
          let reads = reads_of_expr locals e in
          (* writing through b.f/a[i] reads the index exprs *)
          let reads =
            match p with
            | Mir.Pvar _ -> reads
            | _ ->
                let extra = ref Sset.empty in
                Mir.iter_place
                  (fun e -> extra := Sset.union !extra (reads_of_expr locals e))
                  p;
                Sset.union reads !extra
          in
          let defs =
            match p with
            | Mir.Pvar v when Sset.mem v locals -> Sset.singleton v
            | _ -> Sset.empty
          in
          e3 reads defs (addressed_of_expr locals e)
      | Mir.Sexpr e -> e3 (reads_of_expr locals e) Sset.empty (addressed_of_expr locals e)
      | Mir.Sincr (Mir.Pvar v) when Sset.mem v locals ->
          e3 (Sset.singleton v) (Sset.singleton v) Sset.empty
      | Mir.Sincr p ->
          let extra = ref Sset.empty in
          Mir.iter_place
            (fun e -> extra := Sset.union !extra (reads_of_expr locals e))
            p;
          e3 !extra Sset.empty Sset.empty
      | Mir.Sreturn (Some e) ->
          e3 (reads_of_expr locals e) Sset.empty (addressed_of_expr locals e)
      | Mir.Sopaque cs ->
          (* conservative: every mentioned local is read; every
             addressed one is also defined *)
          let vars = ref Sset.empty and addr = ref Sset.empty in
          let scan_e ce =
            let addressed = Sset.of_list (Mir.addressed_vars_of_c ce) in
            List.iter
              (fun v ->
                if Sset.mem v locals && not (Sset.mem v addressed) then
                  vars := Sset.add v !vars)
              (Mir.vars_of_c ce);
            List.iter
              (fun v -> if Sset.mem v locals then addr := Sset.add v !addr)
              (Mir.addressed_vars_of_c ce)
          in
          let rec scan_s (cs : C_ast.stmt) =
            match cs with
            | C_ast.Expr e | C_ast.Return (Some e) | C_ast.Decl (_, _, Some e)
              ->
                scan_e e
            | C_ast.Assign (a, b) ->
                scan_e a;
                scan_e b
            | C_ast.If (c, t, e) ->
                scan_e c;
                List.iter scan_s t;
                List.iter scan_s e
            | C_ast.While (c, b) ->
                scan_e c;
                List.iter scan_s b
            | C_ast.For (i, c, u, b) ->
                scan_s i;
                scan_e c;
                scan_s u;
                List.iter scan_s b
            | C_ast.Block b -> List.iter scan_s b
            | C_ast.Decl (_, _, None)
            | C_ast.Return None
            | C_ast.Comment _ | C_ast.Raw _ ->
                ()
          in
          scan_s cs;
          e3 !vars !addr !addr
      | Mir.Sreturn None | Mir.Scomment _ -> e3 Sset.empty Sset.empty Sset.empty
      | Mir.Sif _ | Mir.Swhile _ | Mir.Sfor _ | Mir.Sblock _ ->
          (* structured statements never appear as atoms *)
          e3 Sset.empty Sset.empty Sset.empty)

(* an expression whose evaluation is observable (may have effects);
   stores of such right-hand sides are never reported dead *)
let rec observable = function
  | Mir.Kint _ | Mir.Kfloat _ -> false
  | Mir.Load _ -> false
  | Mir.Eaddr _ | Mir.Eopaque _ | Mir.Ecall _ -> true
  | Mir.Eun (_, a) | Mir.Ecast (_, a) | Mir.Equantize (_, a) | Mir.Esat16 a ->
      observable a
  | Mir.Ebin (_, a, b) | Mir.Esat_add32 (a, b) -> observable a || observable b
  | Mir.Emul_shift (a, b, c) | Mir.Eselect (a, b, c) ->
      observable a || observable b || observable c

(* ---- definite assignment (forward, must) ---- *)

module Must = struct
  (* [None] = not yet visited (top of the must-lattice) *)
  type t = Sset.t option

  let bottom = None
  let equal = ( = )

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Sset.inter a b)
end

module Must_solver = Dataflow.Solve (Must)

(* ---- liveness (backward, may) ---- *)

module May = struct
  type t = Sset.t

  let bottom = Sset.empty
  let equal = Sset.equal
  let join = Sset.union
end

module May_solver = Dataflow.Solve (May)

let analyze (body : Mir.stmt list) ~(args : string list) : fact list =
  let locals = decls_of Sset.empty body in
  let cfg = Mir_cfg.build body in
  let facts = ref [] in
  let emit f = facts := f :: !facts in
  (* -- reachability -- *)
  let reach = Mir_cfg.reachable cfg in
  Array.iter
    (fun n ->
      if not reach.(n.Mir_cfg.nid) then
        List.iter
          (fun at ->
            match at.Mir_cfg.a with
            | Mir_cfg.A_stmt (Mir.Scomment _) -> ()
            | a -> emit (Unreachable { loc = loc_of_astmt a }))
          n.Mir_cfg.atoms)
    cfg.Mir_cfg.nodes;
  (* -- definite assignment -- *)
  let init_assigned =
    Sset.of_list (List.filter (fun a -> Sset.mem a locals) args)
  in
  let must =
    Must_solver.run Dataflow.Forward cfg ~entry:(Some init_assigned)
      ~transfer:(fun i fact ->
        match fact with
        | None -> None
        | Some assigned ->
            Some
              (List.fold_left
                 (fun acc at ->
                   let _, defs, addr = effect locals at.Mir_cfg.a in
                   Sset.union acc (Sset.union defs addr))
                 assigned cfg.Mir_cfg.nodes.(i).Mir_cfg.atoms))
  in
  Array.iter
    (fun n ->
      if reach.(n.Mir_cfg.nid) then begin
        let assigned =
          ref
            (match must.Must_solver.inp.(n.Mir_cfg.nid) with
            | Some s -> s
            | None -> locals (* unvisited: assume everything assigned *))
        in
        List.iter
          (fun at ->
            let reads, defs, addr = effect locals at.Mir_cfg.a in
            Sset.iter
              (fun v ->
                if not (Sset.mem v !assigned) then
                  emit (Uninit_read { var = v; loc = loc_of_astmt at.Mir_cfg.a }))
              reads;
            assigned := Sset.union !assigned (Sset.union defs addr))
          n.Mir_cfg.atoms
      end)
    cfg.Mir_cfg.nodes;
  (* -- liveness / dead stores -- *)
  let live =
    May_solver.run Dataflow.Backward cfg ~entry:Sset.empty
      ~transfer:(fun i fact ->
        List.fold_left
          (fun live at ->
            let reads, defs, addr = effect locals at.Mir_cfg.a in
            (* backward: kill defs, then add reads (addressed vars stay
               live: the callee may read them) *)
            Sset.union (Sset.union reads addr) (Sset.diff live defs))
          fact
          (List.rev cfg.Mir_cfg.nodes.(i).Mir_cfg.atoms))
  in
  Array.iter
    (fun n ->
      if reach.(n.Mir_cfg.nid) then begin
        (* walk the node backward, tracking liveness per atom *)
        let live_after = ref live.May_solver.inp.(n.Mir_cfg.nid) in
        List.iter
          (fun at ->
            let reads, defs, addr = effect locals at.Mir_cfg.a in
            (match at.Mir_cfg.a with
            | Mir_cfg.A_stmt (Mir.Sassign (Mir.Pvar v, rhs))
              when Sset.mem v locals
                   && (not (Sset.mem v !live_after))
                   && not (observable rhs) ->
                emit (Dead_store { var = v; loc = loc_of_astmt at.Mir_cfg.a })
            | _ -> ());
            live_after :=
              Sset.union (Sset.union reads addr) (Sset.diff !live_after defs))
          (List.rev n.Mir_cfg.atoms)
      end)
    cfg.Mir_cfg.nodes;
  List.rev !facts
