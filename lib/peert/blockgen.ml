open C_ast

type mode = Hw | Pil

type gctx = {
  mode : mode;
  name : string;
  ins : expr list;
  outs : expr list;
  out_tys : cty list;
  out_dtypes : Dtype.t list;
  dt : float;
  state : string -> expr;
  ext_in : int -> expr;
  ext_out : int -> expr;
  pil_slot : int option;
}

type gen = {
  state_fields : (cty * string) list;
  init : stmt list;
  step : stmt list;
  update : stmt list;
  needs_time : bool;
}

type spec_alias = Block.spec

exception Unsupported of string

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      then c
      else '_')
    name

let nothing = { state_fields = []; init = []; step = []; update = []; needs_time = false }

let in0 g = List.nth g.ins 0
let out0 g = List.nth g.outs 0
let oty0 g = List.nth g.out_tys 0
let odt0 g = List.nth g.out_dtypes 0

(* Helper replicating Value.of_float for a quantised output dtype:
   round half away from zero, saturate at the type's range, NaN -> 0.
   The helpers themselves are emitted once per model by the target. *)
let cast_helper_of_dtype = function
  | Dtype.Bool -> Some "pe_cast_b"
  | Dtype.Int8 -> Some "pe_cast_i8"
  | Dtype.Uint8 -> Some "pe_cast_u8"
  | Dtype.Int16 -> Some "pe_cast_i16"
  | Dtype.Uint16 -> Some "pe_cast_u16"
  | Dtype.Int32 -> Some "pe_cast_i32"
  | Dtype.Uint32 -> Some "pe_cast_u32"
  | Dtype.Double | Dtype.Single | Dtype.Fix _ -> None

(* The helper definitions themselves (appended to every generated
   translation unit that may call them). Round half away from zero,
   saturate at the dtype's range, NaN maps to zero — C99 round() is
   exactly OCaml's Float.round, so an output routed through one of
   these agrees bit for bit with the simulated signal. *)
let cast_helpers =
  let mk cname ret lo hi =
    Func_def
      (func ~static:true
         ~comment:"quantise to the output dtype: round to nearest, saturate"
         ret cname
         [ (Double_t, "x") ]
         [
           Decl (Double_t, "r", Some (call "round" [ Var "x" ]));
           Decl (ret, "y", Some (Int_lit 0));
           If
             ( Bin ("==", Var "r", Var "r"),
               [
                 If
                   ( Bin (">=", Var "r", flt hi),
                     [ Assign (Var "y", Cast_to (ret, flt hi)) ],
                     [
                       If
                         ( Bin ("<=", Var "r", flt lo),
                           [ Assign (Var "y", Cast_to (ret, flt lo)) ],
                           [ Assign (Var "y", Cast_to (ret, Var "r")) ] );
                     ] );
               ],
               [] );
           Return (Some (Var "y"));
         ])
  in
  [
    mk "pe_cast_i8" I8 (-128.0) 127.0;
    mk "pe_cast_u8" U8 0.0 255.0;
    mk "pe_cast_i16" I16 (-32768.0) 32767.0;
    mk "pe_cast_u16" U16 0.0 65535.0;
    mk "pe_cast_i32" I32 (-2147483648.0) 2147483647.0;
    mk "pe_cast_u32" U32 0.0 4294967295.0;
    Func_def
      (func ~static:true ~comment:"boolean output: any non-zero input is true"
         U8 "pe_cast_b"
         [ (Double_t, "x") ]
         [
           Return
             (Some
                (Cast_to
                   ( U8,
                     Ternary (Bin ("!=", Var "x", flt 0.0), Int_lit 1, Int_lit 0)
                   )));
         ]);
  ]

(* Emit only the helpers a translation unit actually calls: the plant
   simulator is compiled host-side with -Werror, where an unused
   static function is fatal. *)
let rec calls_in_expr acc = function
  | Call (f, args) -> List.fold_left calls_in_expr (f :: acc) args
  | Un (_, e) | Cast_to (_, e) | Field (e, _) -> calls_in_expr acc e
  | Bin (_, a, b) | Index (a, b) -> calls_in_expr (calls_in_expr acc a) b
  | Ternary (a, b, c) ->
      calls_in_expr (calls_in_expr (calls_in_expr acc a) b) c
  | Int_lit _ | Hex_lit _ | Float_lit _ | Var _ -> acc

let rec calls_in_stmt acc = function
  | Expr e | Return (Some e) | Decl (_, _, Some e) -> calls_in_expr acc e
  | Assign (a, b) -> calls_in_expr (calls_in_expr acc a) b
  | If (c, t, e) ->
      List.fold_left calls_in_stmt
        (List.fold_left calls_in_stmt (calls_in_expr acc c) t)
        e
  | While (c, b) -> List.fold_left calls_in_stmt (calls_in_expr acc c) b
  | For (i, c, u, b) ->
      List.fold_left calls_in_stmt
        (calls_in_stmt (calls_in_expr (calls_in_stmt acc i) c) u)
        b
  | Block b -> List.fold_left calls_in_stmt acc b
  | Decl (_, _, None) | Return None | Comment _ | Raw _ -> acc

let used_cast_helpers stmts =
  let used = List.fold_left calls_in_stmt [] stmts in
  List.filter
    (function
      | Func_def f -> List.mem f.fname used
      | _ -> false)
    cast_helpers

let time_var = Var "model_time"

(* Clamp an expression between two optional finite bounds. *)
let clamp_stmts target lo hi =
  let s = ref [] in
  if Float.is_finite hi then
    s := If (Bin (">", target, flt hi), [ Assign (target, flt hi) ], []) :: !s;
  if Float.is_finite lo then
    s := If (Bin ("<", target, flt lo), [ Assign (target, flt lo) ], []) :: !s;
  List.rev !s

(* Integer variant: clamping an int32 accumulator with float literals
   would be an implicit double -> int32_t narrowing (MISRA). *)
let clamp_stmts_int target lo hi =
  [
    If (Bin (">", target, int_ hi), [ Assign (target, int_ hi) ], []);
    If (Bin ("<", target, int_ lo), [ Assign (target, int_ lo) ], []);
  ]

let pil_slot_exn g =
  match g.pil_slot with
  | Some s -> s
  | None -> failwith (g.name ^ ": peripheral block without a PIL slot")

let bean_of ps = Param.string ps "bean"

let custom : (string, gctx -> spec_alias -> gen) Hashtbl.t = Hashtbl.create 8
let register kind f = Hashtbl.replace custom kind f

let emit_builtin g spec =
  let ps = spec.Block.params in
  let pf = Param.float ps in
  match spec.Block.kind with
  | "Constant" ->
      { nothing with init = [ Assign (out0 g, flt (pf "value")) ] }
  | "Step" ->
      {
        nothing with
        needs_time = true;
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  ( Bin (">=", time_var, flt (pf "t_step")),
                    flt (pf "after"), flt (pf "before") ) );
          ];
      }
  | "Ramp" ->
      {
        nothing with
        needs_time = true;
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  ( Bin (">=", time_var, flt (pf "start")),
                    Bin ("*", flt (pf "slope"), Bin ("-", time_var, flt (pf "start"))),
                    flt 0.0 ) );
          ];
      }
  | "Sine" ->
      {
        nothing with
        needs_time = true;
        step =
          [
            Assign
              ( out0 g,
                Bin
                  ( "+",
                    flt (pf "bias"),
                    Bin
                      ( "*",
                        flt (pf "amp"),
                        call "sin"
                          [
                            Bin
                              ( "+",
                                Bin
                                  ( "*",
                                    flt (2.0 *. Float.pi *. pf "freq_hz"),
                                    time_var ),
                                flt (pf "phase") );
                          ] ) ) );
          ];
      }
  | "Pulse" ->
      {
        nothing with
        needs_time = true;
        step =
          [
            Decl
              ( Double_t, g.name ^ "_frac",
                Some (call "fmod" [ time_var; flt (pf "period") ]) );
            Assign
              ( out0 g,
                Ternary
                  ( Bin
                      ("<", Var (g.name ^ "_frac"),
                       flt (pf "duty" *. pf "period")),
                    flt (pf "amp"), flt 0.0 ) );
          ];
      }
  | "SetpointSchedule" ->
      let times = Param.floats ps "times" and values = Param.floats ps "values" in
      let n = Array.length times in
      {
        nothing with
        needs_time = true;
        state_fields = [];
        init = [];
        step =
          [ Assign (out0 g, flt 0.0) ]
          @ List.init n (fun i ->
                If
                  ( Bin (">=", time_var, flt times.(i)),
                    [ Assign (out0 g, flt values.(i)) ],
                    [] ));
      }
  | "Clock" -> { nothing with needs_time = true; step = [ Assign (out0 g, time_var) ] }
  | "UniformNoise" ->
      (* xorshift-based PRNG scaled into [lo, hi) *)
      let lo = pf "lo" and hi = pf "hi" in
      {
        nothing with
        state_fields = [ (U32, "seed") ];
        init = [ Assign (g.state "seed", Hex_lit (Param.int ps "seed" land 0xFFFFFFF)) ];
        step =
          [
            Assign
              ( g.state "seed",
                Bin ("^", g.state "seed", Bin ("<<", g.state "seed", Int_lit 13)) );
            Assign
              ( g.state "seed",
                Bin ("^", g.state "seed", Bin (">>", g.state "seed", Int_lit 17)) );
            Assign
              ( g.state "seed",
                Bin ("^", g.state "seed", Bin ("<<", g.state "seed", Int_lit 5)) );
            Assign
              ( out0 g,
                Bin
                  ( "+",
                    flt lo,
                    Bin
                      ( "*",
                        Bin
                          ( "/",
                            Cast_to (Double_t, g.state "seed"),
                            flt 4294967296.0 ),
                        flt (hi -. lo) ) ) );
          ];
      }
  | "Gain" -> { nothing with step = [ Assign (out0 g, Bin ("*", flt (pf "k"), in0 g)) ] }
  | "Sum" ->
      let signs = Param.string ps "signs" in
      let expr =
        List.fold_left
          (fun acc (i, c) ->
            let term = List.nth g.ins i in
            match acc with
            | None -> Some (if c = '+' then term else Un ("-", term))
            | Some e -> Some (Bin ((if c = '+' then "+" else "-"), e, term)))
          None
          (List.init (String.length signs) (fun i -> (i, signs.[i])))
      in
      { nothing with step = [ Assign (out0 g, Option.get expr) ] }
  | "Product" ->
      let n = Param.int ps "n" in
      let expr =
        List.fold_left
          (fun acc i ->
            match acc with
            | None -> Some (List.nth g.ins i)
            | Some e -> Some (Bin ("*", e, List.nth g.ins i)))
          None
          (List.init n Fun.id)
      in
      { nothing with step = [ Assign (out0 g, Option.get expr) ] }
  | "Divide" ->
      { nothing with step = [ Assign (out0 g, Bin ("/", in0 g, List.nth g.ins 1)) ] }
  | "Abs" ->
      {
        nothing with
        step = [ Assign (out0 g, Ternary (Bin ("<", in0 g, flt 0.0), Un ("-", in0 g), in0 g)) ];
      }
  | "Neg" -> { nothing with step = [ Assign (out0 g, Un ("-", in0 g)) ] }
  | "Sign" ->
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  ( Bin (">", in0 g, flt 0.0),
                    flt 1.0,
                    Ternary (Bin ("<", in0 g, flt 0.0), flt (-1.0), flt 0.0) ) );
          ];
      }
  | "Min" ->
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  (Bin ("<", in0 g, List.nth g.ins 1), in0 g, List.nth g.ins 1) );
          ];
      }
  | "Max" ->
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  (Bin (">", in0 g, List.nth g.ins 1), in0 g, List.nth g.ins 1) );
          ];
      }
  | "Cast" -> { nothing with step = [ Assign (out0 g, Cast_to (oty0 g, in0 g)) ] }
  | "Compare" ->
      let op =
        match Param.string ps "op" with
        | "lt" -> "<"
        | "le" -> "<="
        | "gt" -> ">"
        | "ge" -> ">="
        | "eq" -> "=="
        | _ -> "!="
      in
      { nothing with step = [ Assign (out0 g, Bin (op, in0 g, List.nth g.ins 1)) ] }
  | "Logic" ->
      let stmt =
        match Param.string ps "op" with
        | "not" -> Assign (out0 g, Un ("!", in0 g))
        | "and" -> Assign (out0 g, Bin ("&&", in0 g, List.nth g.ins 1))
        | "or" -> Assign (out0 g, Bin ("||", in0 g, List.nth g.ins 1))
        | _ ->
            Assign
              ( out0 g,
                Bin ("!=", Un ("!", in0 g), Un ("!", List.nth g.ins 1)) )
      in
      { nothing with step = [ stmt ] }
  | "MathFn" ->
      { nothing with step = [ Assign (out0 g, call (Param.string ps "fn") [ in0 g ]) ] }
  | "UnitDelay" ->
      (* MIL stores the next state through Value.cast (round + saturate
         for integer dtypes); mirror that rather than a raw C cast. *)
      let store e =
        match cast_helper_of_dtype (odt0 g) with
        | Some h -> call h [ e ]
        | None -> Cast_to (oty0 g, e)
      in
      let init_val =
        match cast_helper_of_dtype (odt0 g) with
        | Some h -> call h [ flt (pf "init") ]
        | None -> flt (pf "init")
      in
      {
        nothing with
        state_fields = [ (oty0 g, "x") ];
        init = [ Assign (g.state "x", init_val) ];
        step = [ Assign (out0 g, g.state "x") ];
        update = [ Assign (g.state "x", store (in0 g)) ];
      }
  | "DelayN" ->
      let n = Param.int ps "n" in
      if n = 0 then { nothing with step = [ Assign (out0 g, in0 g) ] }
      else
        let store e =
          match cast_helper_of_dtype (odt0 g) with
          | Some h -> call h [ e ]
          | None -> Cast_to (oty0 g, e)
        in
        let zero_elt =
          match cast_helper_of_dtype (odt0 g) with
          | Some _ -> Int_lit 0
          | None -> flt 0.0
        in
        {
          nothing with
          state_fields = [ (Arr (oty0 g, n), "buf"); (U16, "idx") ];
          init =
            [
              Assign (g.state "idx", Int_lit 0);
              For
                ( Decl (I32, "i", Some (Int_lit 0)),
                  Bin ("<", Var "i", Int_lit n),
                  Expr (Un ("++", Var "i")),
                  [ Assign (Index (g.state "buf", Var "i"), zero_elt) ] );
            ];
          step = [ Assign (out0 g, Index (g.state "buf", g.state "idx")) ];
          update =
            [
              Assign (Index (g.state "buf", g.state "idx"), store (in0 g));
              Assign
                ( g.state "idx",
                  Cast_to
                    (U16, Bin ("%", Bin ("+", g.state "idx", Int_lit 1), Int_lit n)) );
            ];
        }
  | "ZOH" -> { nothing with step = [ Assign (out0 g, in0 g) ] }
  | "DiscreteIntegrator" ->
      let lo = pf "lo" and hi = pf "hi" in
      {
        nothing with
        state_fields = [ (Double_t, "y") ];
        init = [ Assign (g.state "y", flt (pf "init")) ];
        step = [ Assign (out0 g, g.state "y") ];
        update =
          Assign
            ( g.state "y",
              Bin
                ( "+",
                  g.state "y",
                  Bin ("*", flt (pf "k" *. g.dt), in0 g) ) )
          :: clamp_stmts (g.state "y") lo hi;
      }
  | "DiscreteDerivative" ->
      {
        nothing with
        state_fields = [ (Double_t, "prev") ];
        init = [ Assign (g.state "prev", flt 0.0) ];
        step =
          [
            (* (k * (u - u_prev)) / dt, associated exactly as the
               simulation computes it so traces match bit for bit *)
            Assign
              ( out0 g,
                Bin
                  ( "/",
                    Bin ("*", flt (pf "k"), Bin ("-", in0 g, g.state "prev")),
                    flt g.dt ) );
          ];
        update = [ Assign (g.state "prev", in0 g) ];
      }
  | "DiscreteTransferFcn" ->
      let tf =
        Ztransfer.create ~num:(Param.floats ps "num") ~den:(Param.floats ps "den")
      in
      let b = Ztransfer.num tf and a = Ztransfer.den tf in
      let n = Ztransfer.order tf in
      if n = 0 then
        { nothing with step = [ Assign (out0 g, Bin ("*", flt b.(0), in0 g)) ] }
      else
        {
          nothing with
          state_fields = [ (Arr (Double_t, n), "w") ];
          init =
            [
              For
                ( Decl (I32, "i", Some (Int_lit 0)),
                  Bin ("<", Var "i", Int_lit n),
                  Expr (Un ("++", Var "i")),
                  [ Assign (Index (g.state "w", Var "i"), flt 0.0) ] );
            ];
          step =
            (* direct form II transposed sweep *)
            [
              Decl
                ( Double_t, g.name ^ "_y",
                  Some
                    (Bin ("+", Bin ("*", flt b.(0), in0 g),
                          Index (g.state "w", Int_lit 0))) );
            ]
            @ List.init n (fun i ->
                  let next =
                    if i + 1 < n then Index (g.state "w", Int_lit (i + 1))
                    else flt 0.0
                  in
                  Assign
                    ( Index (g.state "w", Int_lit i),
                      Bin
                        ( "-",
                          Bin ("+", next, Bin ("*", flt b.(i + 1), in0 g)),
                          Bin ("*", flt a.(i + 1), Var (g.name ^ "_y")) ) ))
            @ [ Assign (out0 g, Var (g.name ^ "_y")) ];
        }
  | "Pid" ->
      let kp = pf "kp" and ki = pf "ki" and kd = pf "kd" and nf = pf "n" in
      let u_min = pf "u_min" and u_max = pf "u_max" in
      let ts = pf "ts" in
      let e = Var (g.name ^ "_e") and d = Var (g.name ^ "_d") in
      let u = Var (g.name ^ "_u") in
      let d_expr =
        if kd = 0.0 then flt 0.0
        else if nf = 0.0 then
          Bin ("/", Bin ("*", flt kd, Bin ("-", e, g.state "e_prev")), flt ts)
        else
          Bin
            ( "/",
              Bin
                ( "+",
                  g.state "d_prev",
                  Bin ("*", flt (kd *. nf), Bin ("-", e, g.state "e_prev")) ),
              flt (1.0 +. (nf *. ts)) )
      in
      let anti_windup_guard =
        Bin
          ( "||",
            Bin ("&&", Bin (">", u, flt u_max), Bin (">", e, flt 0.0)),
            Bin ("&&", Bin ("<", u, flt u_min), Bin ("<", e, flt 0.0)) )
      in
      {
        nothing with
        state_fields =
          [ (Double_t, "integ"); (Double_t, "e_prev"); (Double_t, "d_prev") ];
        init =
          [
            Assign (g.state "integ", flt 0.0);
            Assign (g.state "e_prev", flt 0.0);
            Assign (g.state "d_prev", flt 0.0);
          ];
        step =
          [
            Decl (Double_t, g.name ^ "_e", Some (Bin ("-", in0 g, List.nth g.ins 1)));
            Decl (Double_t, g.name ^ "_d", Some d_expr);
            Decl
              ( Double_t, g.name ^ "_u",
                Some (Bin ("+", Bin ("+", Bin ("*", flt kp, e), g.state "integ"), d)) );
            If
              ( Un ("!", Ternary (anti_windup_guard, Int_lit 1, Int_lit 0)),
                [
                  Assign
                    ( g.state "integ",
                      Bin ("+", g.state "integ", Bin ("*", flt (ki *. ts), e)) );
                ],
                [] );
            Assign (g.state "e_prev", e);
            Assign (g.state "d_prev", d);
          ]
          @ clamp_stmts u u_min u_max
          @ [ Assign (out0 g, u) ];
      }
  | "FixPid" ->
      let fmt =
        match Param.dtype ps "fmt" with
        | Dtype.Fix f -> f
        | _ -> failwith "FixPid: fmt param"
      in
      let gains =
        Pid.gains ~kp:(pf "kp") ~ki:(pf "ki") ~kd:(pf "kd") ~n:(pf "n")
          ~u_min:(pf "u_min") ~u_max:(pf "u_max") ()
      in
      let fx =
        Pid.Fixpoint.create ~ts:(pf "ts") ~fmt ~in_scale:(pf "in_scale")
          ~out_scale:(pf "out_scale") gains
      in
      let c = Pid.Fixpoint.raw_coefficients fx in
      let in_scale = pf "in_scale" and out_scale = pf "out_scale" in
      let sig_one = float_of_int (1 lsl c.Pid.Fixpoint.sig_frac_bits) in
      let coef_one = float_of_int (1 lsl c.Pid.Fixpoint.coef_frac_bits) in
      let e = Var (g.name ^ "_e") in
      let acc = Var (g.name ^ "_acc") in
      (* Saturating helpers are emitted once per model by the target as
         pe_sat16/pe_sat32; here we just call them. *)
      {
        nothing with
        state_fields = [ (I32, "integ"); (I16, "e_prev"); (I32, "d_prev") ];
        init =
          [
            Assign (g.state "integ", Int_lit 0);
            Assign (g.state "e_prev", Int_lit 0);
            Assign (g.state "d_prev", Int_lit 0);
          ];
        step =
          [
            Comment
              (Printf.sprintf "Q%d signals, %d.%d coefficients; scales in=%g out=%g"
                 c.Pid.Fixpoint.sig_frac_bits
                 (32 - c.Pid.Fixpoint.coef_frac_bits)
                 c.Pid.Fixpoint.coef_frac_bits in_scale out_scale);
            Decl
              ( I16, g.name ^ "_e",
                Some
                  (call "pe_sat16"
                     [
                       Cast_to
                         ( I32,
                           call "lround"
                             [
                               Bin
                                 ( "*",
                                   Bin
                                     ( "/",
                                       Bin ("-", in0 g, List.nth g.ins 1),
                                       flt in_scale ),
                                   flt sig_one );
                             ] );
                     ]) );
            (* p term in coefficient format: kp * e >> sig_frac *)
            Decl
              ( I32, g.name ^ "_acc",
                Some
                  (call "pe_mul_shift"
                     [
                       Int_lit c.Pid.Fixpoint.kp_raw;
                       Cast_to (I32, e);
                       Int_lit c.Pid.Fixpoint.sig_frac_bits;
                     ]) );
            Assign (acc, call "pe_sat_add32" [ acc; g.state "integ" ]);
          ]
          @ (if c.Pid.Fixpoint.kd_c1_raw <> 0 then
               [
                 Decl
                   ( I32, g.name ^ "_de",
                     Some
                       (Bin
                          ( "-",
                            Bin ("<<", Cast_to (I32, e),
                                 Int_lit
                                   (c.Pid.Fixpoint.coef_frac_bits
                                    - c.Pid.Fixpoint.sig_frac_bits)),
                            Bin ("<<", Cast_to (I32, g.state "e_prev"),
                                 Int_lit
                                   (c.Pid.Fixpoint.coef_frac_bits
                                    - c.Pid.Fixpoint.sig_frac_bits)) )) );
                 Decl
                   ( I32, g.name ^ "_d",
                     Some
                       (call "pe_sat_add32"
                          [
                            call "pe_mul_shift"
                              [
                                Int_lit c.Pid.Fixpoint.kd_c1_raw;
                                Var (g.name ^ "_de");
                                Int_lit c.Pid.Fixpoint.coef_frac_bits;
                              ];
                            call "pe_mul_shift"
                              [
                                Int_lit c.Pid.Fixpoint.d_decay_raw;
                                g.state "d_prev";
                                Int_lit c.Pid.Fixpoint.coef_frac_bits;
                              ];
                          ]) );
                 Assign (acc, call "pe_sat_add32" [ acc; Var (g.name ^ "_d") ]);
                 Assign (g.state "d_prev", Var (g.name ^ "_d"));
               ]
             else [])
          @ [
              If
                ( Un
                    ( "!",
                      Ternary
                        ( Bin
                            ( "||",
                              Bin
                                ( "&&",
                                  Bin (">", acc, Int_lit c.Pid.Fixpoint.u_max_raw),
                                  Bin (">", e, Int_lit 0) ),
                              Bin
                                ( "&&",
                                  Bin ("<", acc, Int_lit c.Pid.Fixpoint.u_min_raw),
                                  Bin ("<", e, Int_lit 0) ) ),
                          Int_lit 1, Int_lit 0 ) ),
                  [
                    Assign
                      ( g.state "integ",
                        call "pe_sat_add32"
                          [
                            g.state "integ";
                            call "pe_mul_shift"
                              [
                                Int_lit c.Pid.Fixpoint.ki_ts_raw;
                                Cast_to (I32, e);
                                Int_lit c.Pid.Fixpoint.sig_frac_bits;
                              ];
                          ] );
                  ],
                  [] );
              Assign (g.state "e_prev", e);
            ]
          @ clamp_stmts_int acc c.Pid.Fixpoint.u_min_raw
              c.Pid.Fixpoint.u_max_raw
          @ [
              Assign
                ( out0 g,
                  Bin
                    ( "*",
                      Bin ("/", Cast_to (Double_t, acc), flt coef_one),
                      flt out_scale ) );
            ];
      }
  | "RateLimiter" ->
      let rising = pf "rising" and falling = pf "falling" in
      {
        nothing with
        state_fields = [ (Double_t, "prev"); (U8, "started") ];
        init =
          [ Assign (g.state "prev", flt 0.0); Assign (g.state "started", Int_lit 0) ];
        step =
          [
            Decl (Double_t, g.name ^ "_dy", Some (Bin ("-", in0 g, g.state "prev")));
            If
              ( Bin ("==", g.state "started", Int_lit 0),
                [
                  Assign (g.state "prev", in0 g);
                  Assign (g.state "started", Int_lit 1);
                ],
                [
                  If
                    ( Bin (">", Var (g.name ^ "_dy"), flt (rising *. g.dt)),
                      [ Assign (Var (g.name ^ "_dy"), flt (rising *. g.dt)) ],
                      [] );
                  If
                    ( Bin ("<", Var (g.name ^ "_dy"), flt (-.falling *. g.dt)),
                      [ Assign (Var (g.name ^ "_dy"), flt (-.falling *. g.dt)) ],
                      [] );
                  Assign
                    (g.state "prev", Bin ("+", g.state "prev", Var (g.name ^ "_dy")));
                ] );
            Assign (out0 g, g.state "prev");
          ];
      }
  | "MovingAverage" ->
      let n = Param.int ps "n" in
      {
        nothing with
        state_fields = [ (Arr (Double_t, n), "buf"); (U16, "idx"); (U16, "filled") ];
        init =
          [
            Assign (g.state "idx", Int_lit 0);
            Assign (g.state "filled", Int_lit 0);
            For
              ( Decl (I32, "i", Some (Int_lit 0)),
                Bin ("<", Var "i", Int_lit n),
                Expr (Un ("++", Var "i")),
                [ Assign (Index (g.state "buf", Var "i"), flt 0.0) ] );
          ];
        step =
          [
            Assign (Index (g.state "buf", g.state "idx"), in0 g);
            Assign
              ( g.state "idx",
                Cast_to
                  (U16, Bin ("%", Bin ("+", g.state "idx", Int_lit 1), Int_lit n)) );
            If
              ( Bin ("<", g.state "filled", Int_lit n),
                [ Assign (g.state "filled", Bin ("+", g.state "filled", Int_lit 1)) ],
                [] );
            Decl (Double_t, g.name ^ "_s", Some (flt 0.0));
            For
              ( Decl (I32, "i", Some (Int_lit 0)),
                Bin ("<", Var "i", Int_lit n),
                Expr (Un ("++", Var "i")),
                [
                  Assign
                    ( Var (g.name ^ "_s"),
                      Bin ("+", Var (g.name ^ "_s"), Index (g.state "buf", Var "i")) );
                ] );
            Assign
              ( out0 g,
                Bin ("/", Var (g.name ^ "_s"), Cast_to (Double_t, g.state "filled")) );
          ];
      }
  | "EncoderSpeed" ->
      let cpr = Param.int ps "counts_per_rev" in
      let k = 2.0 *. Float.pi /. float_of_int cpr in
      {
        nothing with
        state_fields = [ (I32, "prev") ];
        init = [ Assign (g.state "prev", Int_lit 0) ];
        step =
          [
            (* wrap-aware 16-bit difference works for both absolute and
               wrapped position registers *)
            Decl
              ( I16, g.name ^ "_dc",
                Some (Cast_to (I16, Bin ("-", in0 g, g.state "prev"))) );
            (* ((double)dc * k) / dt, associated as the simulation does *)
            Assign
              ( out0 g,
                Bin
                  ( "/",
                    Bin
                      ("*", Cast_to (Double_t, Var (g.name ^ "_dc")), flt k),
                    flt g.dt ) );
            Assign (g.state "prev", Cast_to (I32, in0 g));
          ];
      }
  | "Saturation" ->
      {
        nothing with
        step =
          (Assign (out0 g, in0 g) :: clamp_stmts (out0 g) (pf "lo") (pf "hi"));
      }
  | "Quantizer" ->
      let q = pf "interval" in
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Bin ("*", flt q, call "round" [ Bin ("/", in0 g, flt q) ]) );
          ];
      }
  | "DeadZone" ->
      let lo = pf "lo" and hi = pf "hi" in
      {
        nothing with
        step =
          [
            Assign (out0 g, flt 0.0);
            If
              ( Bin (">", in0 g, flt hi),
                [ Assign (out0 g, Bin ("-", in0 g, flt hi)) ],
                [
                  If
                    ( Bin ("<", in0 g, flt lo),
                      [ Assign (out0 g, Bin ("-", in0 g, flt lo)) ],
                      [] );
                ] );
          ];
      }
  | "Relay" ->
      {
        nothing with
        state_fields = [ (U8, "on") ];
        init = [ Assign (g.state "on", Int_lit 0) ];
        step =
          [
            If
              ( Bin (">=", in0 g, flt (pf "on_point")),
                [ Assign (g.state "on", Int_lit 1) ],
                [
                  If
                    ( Bin ("<=", in0 g, flt (pf "off_point")),
                      [ Assign (g.state "on", Int_lit 0) ],
                      [] );
                ] );
            Assign
              ( out0 g,
                Ternary (g.state "on", flt (pf "on_value"), flt (pf "off_value")) );
          ];
      }
  | "Switch" ->
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Ternary
                  ( Bin (">=", List.nth g.ins 1, flt (pf "threshold")),
                    in0 g, List.nth g.ins 2 ) );
          ];
      }
  | "CoulombFriction" ->
      let level = pf "level" in
      {
        nothing with
        step =
          [
            Assign
              ( out0 g,
                Bin
                  ( "+",
                    in0 g,
                    Ternary
                      ( Bin (">", in0 g, flt 0.0),
                        flt level,
                        Ternary (Bin ("<", in0 g, flt 0.0), flt (-.level), flt 0.0) ) ) );
          ];
      }
  | "Lookup1D" ->
      let xs = Param.floats ps "xs" and ys = Param.floats ps "ys" in
      let n = Array.length xs in
      let xs_tab = g.name ^ "_xs" and ys_tab = g.name ^ "_ys" in
      {
        nothing with
        state_fields = [];
        init = [];
        step =
          [
            Comment (Printf.sprintf "piecewise-linear lookup, %d breakpoints" n);
            Raw
              (Printf.sprintf
                 "{ static const double %s[%d] = {%s};\n\
                 \  static const double %s[%d] = {%s};\n\
                 \  double x = %s;\n\
                 \  if (x <= %s[0]) { %s = %s[0]; }\n\
                 \  else if (x >= %s[%d]) { %s = %s[%d]; }\n\
                 \  else { int lo = 0, hi = %d;\n\
                 \    while (hi - lo > 1) { int mid = (lo + hi) / 2;\n\
                 \      if (%s[mid] <= x) lo = mid; else hi = mid; }\n\
                 \    %s = %s[lo] + (%s[hi] - %s[lo]) * (x - %s[lo]) / (%s[hi] - %s[lo]); } }"
                 xs_tab n
                 (String.concat ", "
                    (Array.to_list (Array.map (Printf.sprintf "%.17g") xs)))
                 ys_tab n
                 (String.concat ", "
                    (Array.to_list (Array.map (Printf.sprintf "%.17g") ys)))
                 (C_print.expr_to_string (in0 g))
                 xs_tab
                 (C_print.expr_to_string (out0 g))
                 ys_tab xs_tab (n - 1)
                 (C_print.expr_to_string (out0 g))
                 ys_tab (n - 1) (n - 1) xs_tab
                 (C_print.expr_to_string (out0 g))
                 ys_tab ys_tab ys_tab xs_tab xs_tab xs_tab);
          ];
      }
  | "Inport" ->
      let idx = Param.int ps "index" in
      { nothing with step = [ Assign (out0 g, g.ext_in idx) ] }
  | "Outport" ->
      let idx = Param.int ps "index" in
      {
        nothing with
        step = [ Assign (g.ext_out idx, in0 g); Assign (out0 g, in0 g) ];
      }
  | "Terminator" -> nothing
  | "Merge2" ->
      (* generated code keeps the latest writer's value; approximated by
         preferring input 0 when it changed *)
      {
        nothing with
        state_fields = [ (Double_t, "p0"); (Double_t, "p1"); (Double_t, "held") ];
        init =
          [
            Assign (g.state "p0", flt 0.0);
            Assign (g.state "p1", flt 0.0);
            Assign (g.state "held", flt 0.0);
          ];
        step =
          [
            If
              ( Bin ("!=", in0 g, g.state "p0"),
                [ Assign (g.state "held", in0 g) ],
                [
                  If
                    ( Bin ("!=", List.nth g.ins 1, g.state "p1"),
                      [ Assign (g.state "held", List.nth g.ins 1) ],
                      [] );
                ] );
            Assign (g.state "p0", in0 g);
            Assign (g.state "p1", List.nth g.ins 1);
            Assign (out0 g, g.state "held");
          ];
      }
  | "PE_TimerInt" | "PE_Serial" -> nothing
  | "PE_Adc" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Decl (U16, g.name ^ "_code", None);
                Expr (call (bean ^ "_Measure") [ Int_lit 1 ]);
                Expr (call (bean ^ "_GetValue") [ Un ("&", Var (g.name ^ "_code")) ]);
                Assign (out0 g, Var (g.name ^ "_code"));
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Comment "PIL: peripheral read redirected to the comm buffer";
                Assign (out0 g, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g)));
              ];
          })
  | "PE_Pwm" -> (
      let bean = bean_of ps in
      let period_counts = Param.int ps "period_counts" in
      (* SetRatio16 semantics including the integer duty counter: the
         realised duty is quantised by the PWM period register, exactly
         as the simulation bean models it *)
      let r = Var (g.name ^ "_r") and dc = Var (g.name ^ "_dc") in
      let echo write_stmts =
        [ Decl (I32, g.name ^ "_r", Some (Cast_to (I32, in0 g))) ]
        @ clamp_stmts_int r 0 65535
        @ write_stmts
        @ [
            Decl
              ( I32, g.name ^ "_dc",
                Some
                  (Bin
                     ( "/",
                       Bin ("*", r, Int_lit period_counts),
                       Int_lit 65535 )) );
            Assign
              ( out0 g,
                Bin
                  ( "/",
                    Cast_to (Double_t, dc),
                    flt (float_of_int period_counts) ) );
          ]
      in
      match g.mode with
      | Hw ->
          {
            nothing with
            step = echo [ Expr (call (bean ^ "_SetRatio16") [ Cast_to (U16, r) ]) ];
          }
      | Pil ->
          {
            nothing with
            step =
              echo
                [
                  Comment "PIL: peripheral write redirected to the comm buffer";
                  Assign
                    ( Index (Var "pil_actuator_buf", Int_lit (pil_slot_exn g)),
                      Cast_to (U16, r) );
                ];
          })
  | "PE_FreeCntr" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          { nothing with
            step = [ Assign (out0 g, call (bean ^ "_GetCounterValue") []) ] }
      | Pil ->
          (* time stamps stay local in PIL: the counter still runs *)
          { nothing with
            step = [ Assign (out0 g, call (bean ^ "_GetCounterValue") []) ] })
  | "PE_Dac" -> (
      let bean = bean_of ps in
      let vref = pf "vref" and max_code = Param.int ps "max_code" in
      (* clamp the code into the converter's range before writing, as
         the simulation bean does *)
      let r = Var (g.name ^ "_r") in
      let echo write_stmts =
        [ Decl (I32, g.name ^ "_r", Some (Cast_to (I32, in0 g))) ]
        @ clamp_stmts_int r 0 max_code
        @ write_stmts
        @ [
            Assign
              ( out0 g,
                Bin
                  ( "*",
                    Bin
                      ( "/",
                        Cast_to (Double_t, r),
                        flt (float_of_int max_code) ),
                    flt vref ) );
          ]
      in
      match g.mode with
      | Hw ->
          {
            nothing with
            step = echo [ Expr (call (bean ^ "_SetValue") [ Cast_to (U16, r) ]) ];
          }
      | Pil ->
          {
            nothing with
            step =
              echo
                [
                  Assign
                    ( Index (Var "pil_actuator_buf", Int_lit (pil_slot_exn g)),
                      Cast_to (U16, r) );
                ];
          })
  | "PE_QuadDec" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [ Assign (out0 g, Cast_to (I32, call (bean ^ "_GetPosition") [])) ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Cast_to
                      (I32, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g))) );
              ];
          })
  | "PE_BitIO_Out" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Expr (call (bean ^ "_PutVal") [ in0 g ]);
                Assign (out0 g, in0 g);
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( Index (Var "pil_actuator_buf", Int_lit (pil_slot_exn g)),
                    Cast_to (U16, in0 g) );
                Assign (out0 g, in0 g);
              ];
          })
  | "PE_BitIO_In" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          { nothing with step = [ Assign (out0 g, call (bean ^ "_GetVal") []) ] }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Cast_to
                      (U8, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g))) );
              ];
          })
  (* ---- AUTOSAR block-set variant (section 8): same behaviour, MCAL API ---- *)
  | "AR_TimerInt" -> nothing
  | "AR_Adc" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Decl (Named "Adc_ValueGroupType", g.name ^ "_code", None);
                Expr (call "Adc_StartGroupConversion" [ Var ("AdcGroup_" ^ bean) ]);
                Expr
                  (call "Adc_ReadGroup"
                     [ Var ("AdcGroup_" ^ bean); Un ("&", Var (g.name ^ "_code")) ]);
                Assign (out0 g, Var (g.name ^ "_code"));
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Comment "PIL: peripheral read redirected to the comm buffer";
                Assign (out0 g, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g)));
              ];
          })
  | "AR_Pwm" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Comment "rescale ratio16 into the AUTOSAR 0x0000..0x8000 duty domain";
                Expr
                  (call "Pwm_SetDutyCycle"
                     [
                       Var ("PwmChannel_" ^ bean);
                       Cast_to
                         (U16,
                          Bin (">>",
                               Bin ("*", Cast_to (U32, in0 g), Hex_lit 0x8000),
                               Int_lit 16));
                     ]);
                Assign (out0 g, Bin ("/", Cast_to (Double_t, in0 g), flt 65535.0));
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( Index (Var "pil_actuator_buf", Int_lit (pil_slot_exn g)),
                    Cast_to (U16, in0 g) );
                Assign (out0 g, Bin ("/", Cast_to (Double_t, in0 g), flt 65535.0));
              ];
          })
  | "AR_Dio_Out" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Expr
                  (call "Dio_WriteChannel"
                     [
                       Var ("DioChannel_" ^ bean);
                       Ternary (in0 g, Var "STD_HIGH", Var "STD_LOW");
                     ]);
                Assign (out0 g, in0 g);
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( Index (Var "pil_actuator_buf", Int_lit (pil_slot_exn g)),
                    Cast_to (U16, in0 g) );
                Assign (out0 g, in0 g);
              ];
          })
  | "AR_Dio_In" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Bin ("==", call "Dio_ReadChannel" [ Var ("DioChannel_" ^ bean) ],
                         Var "STD_HIGH") );
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Cast_to (U8, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g))) );
              ];
          })
  | "AR_Icu" -> (
      let bean = bean_of ps in
      match g.mode with
      | Hw ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Cast_to
                      (I32, call "Icu_GetEdgeNumbers" [ Var ("IcuChannel_" ^ bean) ]) );
              ];
          }
      | Pil ->
          {
            nothing with
            step =
              [
                Assign
                  ( out0 g,
                    Cast_to
                      (I32, Index (Var "pil_sensor_buf", Int_lit (pil_slot_exn g))) );
              ];
          })
  | kind ->
      raise
        (Unsupported
           (Printf.sprintf
              "block kind %s has no embedded realisation (plant-side block?)" kind))

(* MIL quantises every integer/Bool-typed block output through
   Value.of_float (round half away from zero, saturate); a plain C
   assignment of a double expression would truncate and wrap instead.
   Route non-trivial right-hand sides through the matching pe_cast_*
   helper so the generated step agrees with the simulation bit for
   bit. Pure copies (already-typed fields) and integer literals are
   exact and stay untouched; a top-level cast to the output type is
   replaced rather than wrapped, as casting first would truncate
   before the helper can round. *)
let rec is_copy_expr = function
  | Var _ -> true
  | Field (e, _) | Index (e, _) -> is_copy_expr e
  | _ -> false

let quantized_rhs dt rhs =
  match cast_helper_of_dtype dt with
  | None -> rhs
  | Some h -> (
      match rhs with
      | Cast_to (ty, e) when ty = cty_of_dtype dt -> call h [ e ]
      | Int_lit _ | Hex_lit _ -> rhs
      | e when is_copy_expr e -> e
      | e -> call h [ e ])

let quantize_outputs g gen =
  let out_dtype_of lv =
    let rec find outs dts =
      match (outs, dts) with
      | o :: _, dt :: _ when o = lv -> Some dt
      | _ :: os, _ :: ds -> find os ds
      | _ -> None
    in
    find g.outs g.out_dtypes
  in
  let rec rw_stmt = function
    | Assign (lv, rhs) -> (
        match out_dtype_of lv with
        | Some dt -> Assign (lv, quantized_rhs dt rhs)
        | None -> Assign (lv, rhs))
    | If (c, t, e) -> If (c, List.map rw_stmt t, List.map rw_stmt e)
    | For (i, c, u, b) -> For (i, c, u, List.map rw_stmt b)
    | While (c, b) -> While (c, List.map rw_stmt b)
    | Block b -> Block (List.map rw_stmt b)
    | s -> s
  in
  {
    gen with
    init = List.map rw_stmt gen.init;
    step = List.map rw_stmt gen.step;
    update = List.map rw_stmt gen.update;
  }

let emit g spec =
  let gen =
    match Hashtbl.find_opt custom spec.Block.kind with
    | Some f -> f g spec
    | None -> emit_builtin g spec
  in
  quantize_outputs g gen

let supported spec =
  if Hashtbl.mem custom spec.Block.kind then true
  else
    match spec.Block.kind with
    | "Integrator" | "TransferFcn" | "StateSpace" | "FirstOrder" | "DcMotor"
    | "PowerStage" | "EncoderCounts" | "ThermalPlant" ->
        false
    | _ -> true
