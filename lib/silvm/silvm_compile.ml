(* Closure-compile the generated application instead of interpreting it.

   The classic interpreter -> closure-compiler move: each function of
   the translation set is lifted into MIR ({!Mir_of_c}), and every MIR
   node is compiled ONCE into an OCaml closure over a flat mutable
   state; running a step is then just calling closures, with no AST
   dispatch, no hashtable lookups and no per-operation boxing on the
   typed fast path. MIR is the only input: generated code lifts with no
   opaque node, and an opaque node (hand-written C outside the lifted
   subset) compiles to a closure that raises {!Silvm_interp.Unsupported}
   when it runs — where the interpreter would raise it too.

   Bit-exactness contract: for every program {!Silvm_interp} executes
   whose MIR lift has no opaque node, the compiled closures produce the
   same value in every storage cell after every call — including the
   wrap/sat/cast/quantize corners and the error cases (division by
   zero, shift range, loop fuel). The equivalence battery in
   test_silvm_compile.ml holds this to every-block-output-every-step
   equality against the interpreter and against the MIL engine.

   Representation choices that make the fast path fast:
   - integer cells hold the canonical value ({!Silvm_value}'s
     sign-extended / zero-extended int64) as a native [int] — every
     C type the generated code stores is <= 32 bits, so the canonical
     value always fits in OCaml's 63-bit int, and wrap-around at the
     operation width is a mask + conditional subtract;
   - float cells hold the double (binary32 cells store the value
     already rounded through {!to_f32}, exactly like the interpreter's
     [write_cell]);
   - expressions whose C type is statically known compile to unboxed
     [st -> int] / [st -> float] closures; the dynamic
     [st -> Silvm_value.t] tier remains for externals and for the
     ternaries whose arms disagree on type (the interpreter returns the
     arm's value unconverted, so the result type is data-dependent);
   - the PIL exchange buffers live in a [Bigarray] of unsigned 16-bit
     cells, so batched runs can snapshot actuator traces with no
     boxing and compare them vectorized. *)

open C_ast

type ity = Silvm_value.ity

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Silvm_interp.Unsupported s)) fmt

let fail fmt = Printf.ksprintf (fun s -> raise (Silvm_interp.Runtime_error s)) fmt
let verr fmt = Printf.ksprintf (fun s -> raise (Silvm_value.Error s)) fmt

type ba16 = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ---------------- run-time state (the instance) ---------------- *)

type st = {
  ints : int array;  (** canonical values of the <= 32-bit integer cells *)
  floats : float array;
  sensor : ba16;  (** pil_sensor_buf *)
  actuator : ba16;  (** pil_actuator_buf *)
  externals : (string, Silvm_value.t list -> Silvm_value.t) Hashtbl.t;
  mutable fuel : int;
}

let loop_fuel_budget = Silvm_interp.loop_fuel_budget

(* ---------------- compile-time layout ---------------- *)

type fwidth = [ `F32 | `F64 ]

type storage =
  | Sint of ity * int  (** slot in [st.ints] *)
  | Sflt of fwidth * int  (** slot in [st.floats] *)
  | Sintarr of ity * int * int  (** base slot, length *)
  | Sfltarr of fwidth * int * int
  | Sstructv of (string * storage) array
  | Sxchg of [ `Sens | `Act ] * int  (** exchange buffer, length *)

type compiled_fn = {
  cf_name : string;
  cf_params : (st -> Silvm_value.t -> unit) array;
  cf_body : st -> unit;
  cf_ret : (Silvm_value.t -> Silvm_value.t) option;  (** [None] = void *)
}

(* a function whose body uses something outside the compiled subset
   (e.g. the 64-bit locals of the emitted pe_* helper bodies, which are
   intrinsics at every call site and therefore never invoked) fails
   lazily: the error only surfaces if the function is actually called *)
type fn_slot = Fn_ok of compiled_fn | Fn_fail of string

type code = {
  typedefs : (string, cty) Hashtbl.t;
  structs : (string, (cty * string) list) Hashtbl.t;
  globals : (string, storage) Hashtbl.t;
  macros : (string, Silvm_value.t) Hashtbl.t;
  srcfns : (string, func) Hashtbl.t;
  fns : (string, fn_slot) Hashtbl.t;
  mutable n_ints : int;
  mutable n_floats : int;
  mutable n_sensor : int;
  mutable n_actuator : int;
  mutable int_init : (int * int) list;
  mutable float_init : (int * float) list;
}

let i32ty = Silvm_value.i32ty
let u32ty = Silvm_value.u32ty
let u16ty = { Silvm_value.bits = 16; signed = false }
let u8ty = { Silvm_value.bits = 8; signed = false }

(* wrap a native int into the canonical value range of [t] (<= 32 bits:
   the low bits of native arithmetic are exact, so mask + sign-adjust
   reproduces Silvm_value.normalize) *)
let norm (t : ity) x =
  let m = (1 lsl t.Silvm_value.bits) - 1 in
  let v = x land m in
  if t.Silvm_value.signed && v land (1 lsl (t.Silvm_value.bits - 1)) <> 0 then
    v - m - 1
  else v

let to_f32 = Silvm_interp.to_f32

(* C float->int conversion, exactly the interpreter's of_float_trunc
   (NaN -> 0, truncate toward zero, modular wrap) *)
let trunc_to (t : ity) x =
  match Silvm_value.of_float_trunc t x with
  | Silvm_value.VI (_, v) -> Int64.to_int v
  | Silvm_value.VF _ -> assert false

(* interpreter write_cell for an integer cell, from a dynamic value *)
let dyn_to_int (t : ity) = function
  | Silvm_value.VI (_, x) -> Int64.to_int (Silvm_value.normalize t x)
  | Silvm_value.VF x -> trunc_to t x

(* ---------------- compiled expressions ---------------- *)

(* typed closures when the C type is static; [CD] is the dynamic tier *)
type cexp =
  | CI of ity * (st -> int)
  | CF of (st -> float)
  | CD of (st -> Silvm_value.t)

let dyn = function
  | CI (t, f) -> fun st -> Silvm_value.VI (t, Int64.of_int (f st))
  | CF f -> fun st -> Silvm_value.VF (f st)
  | CD f -> f

(* numeric value as a double (canonical ints are exact in int64, so
   [float_of_int] equals the interpreter's Int64.to_float) *)
let fl = function
  | CF f -> f
  | CI (_, f) -> fun st -> float_of_int (f st)
  | CD f -> fun st -> Silvm_value.to_float (f st)

let truth = function
  | CI (_, f) -> fun st -> f st <> 0
  | CF f -> fun st -> f st <> 0.0
  | CD f -> fun st -> Silvm_value.truth (f st)

(* Silvm_value.to_int: used for array subscripts and shift counts *)
let as_index = function
  | CI (_, f) -> f
  | CF f ->
      fun st ->
        let x = f st in
        if Float.is_nan x then 0
        else Int64.to_int (Int64.of_float (Float.trunc x))
  | CD f -> fun st -> Silvm_value.to_int (f st)

(* conversion applied when an expression feeds an i32 helper parameter
   (interpreter: write_cell into the int32_t argument cell) *)
let as_i32 = function
  | CI (t, f) ->
      if t = i32ty then f
      else if t.Silvm_value.signed || t.Silvm_value.bits < 32 then f
        (* canonical value of any narrower type is already in i32 range *)
      else fun st -> norm i32ty (f st)
  | CF f -> fun st -> trunc_to i32ty (f st)
  | CD f -> fun st -> dyn_to_int i32ty (f st)

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then fail "loop fuel exhausted (runaway loop?)"

(* non-local exit of a compiled function body *)
exception Creturn of Silvm_value.t option

(* ---------------- type resolution ---------------- *)

type rkind =
  | Rint of ity
  | Rf of fwidth
  | Rstruct of (cty * string) list
  | Rarr of cty * int
  | Rvoid

let rec resolve g (ty : cty) : rkind =
  match ty with
  | Double_t -> Rf `F64
  | Float_t -> Rf `F32
  | I8 | U8 | I16 | U16 | I32 | U32 ->
      Rint (Option.get (Silvm_interp.ity_of_base ty))
  | Named n -> (
      match Silvm_interp.stdint_ity n with
      | Some t -> Rint t
      | None -> (
          match Hashtbl.find_opt g.structs n with
          | Some fields -> Rstruct fields
          | None -> (
              match Hashtbl.find_opt g.typedefs n with
              | Some under -> resolve g under
              | None -> unsupported "unknown type name %s" n)))
  | Arr (ety, n) -> Rarr (ety, n)
  | Ptr _ -> unsupported "pointer object"
  | Void -> Rvoid

let narrow (t : ity) =
  if t.Silvm_value.bits > 32 then
    unsupported "64-bit storage in compiled SIL (interpreter-only)";
  t

let alloc_int g =
  let k = g.n_ints in
  g.n_ints <- k + 1;
  k

let alloc_flt g =
  let k = g.n_floats in
  g.n_floats <- k + 1;
  k

let rec new_storage g (ty : cty) : storage =
  match resolve g ty with
  | Rint t -> Sint (narrow t, alloc_int g)
  | Rf w -> Sflt (w, alloc_flt g)
  | Rstruct fields ->
      Sstructv
        (Array.of_list
           (List.map (fun (fty, fn) -> (fn, new_storage g fty)) fields))
  | Rarr (ety, n) -> (
      match resolve g ety with
      | Rint t ->
          let t = narrow t in
          let base = g.n_ints in
          g.n_ints <- base + n;
          Sintarr (t, base, n)
      | Rf w ->
          let base = g.n_floats in
          g.n_floats <- base + n;
          Sfltarr (w, base, n)
      | _ -> unsupported "array of aggregates")
  | Rvoid -> unsupported "void object"

(* ---------------- lvalues ---------------- *)

(* getter plus a normalizing setter (the setter performs the
   interpreter's write_cell wrap / binary32 rounding) *)
type lval =
  | LI of ity * (st -> int) * (st -> int -> unit)
  | LF of fwidth * (st -> float) * (st -> float -> unit)

let lval_of_storage = function
  | Sint (t, k) ->
      LI
        ( t,
          (fun st -> Array.unsafe_get st.ints k),
          fun st x -> Array.unsafe_set st.ints k (norm t x) )
  | Sflt (`F64, k) ->
      LF
        ( `F64,
          (fun st -> Array.unsafe_get st.floats k),
          fun st x -> Array.unsafe_set st.floats k x )
  | Sflt (`F32, k) ->
      LF
        ( `F32,
          (fun st -> Array.unsafe_get st.floats k),
          fun st x -> Array.unsafe_set st.floats k (to_f32 x) )
  | Sintarr _ | Sfltarr _ | Sstructv _ | Sxchg _ ->
      unsupported "aggregate read as a value"

let check_index len i =
  if i < 0 || i >= len then fail "index %d out of bounds (%d)" i len;
  i

let xchg_buf st = function `Sens -> st.sensor | `Act -> st.actuator

let index_lval stor (ix : st -> int) : lval =
  match stor with
  | Sintarr (t, base, len) ->
      LI
        ( t,
          (fun st -> Array.unsafe_get st.ints (base + check_index len (ix st))),
          fun st x ->
            Array.unsafe_set st.ints (base + check_index len (ix st)) (norm t x)
        )
  | Sfltarr (w, base, len) ->
      let round = match w with `F64 -> fun x -> x | `F32 -> to_f32 in
      LF
        ( w,
          (fun st -> Array.unsafe_get st.floats (base + check_index len (ix st))),
          fun st x ->
            Array.unsafe_set st.floats
              (base + check_index len (ix st))
              (round x) )
  | Sxchg (which, len) ->
      LI
        ( u16ty,
          (fun st -> Bigarray.Array1.get (xchg_buf st which) (check_index len (ix st))),
          fun st x ->
            Bigarray.Array1.set (xchg_buf st which)
              (check_index len (ix st))
              (norm u16ty x) )
  | Sint _ | Sflt _ | Sstructv _ -> fail "index into a non-array"

(* interpreter write_cell, from a compiled RHS *)
let store (lv : lval) (e : cexp) : st -> unit =
  match (lv, e) with
  | LI (_, _, set), CI (_, f) -> fun st -> set st (f st)
  | LI (t, _, set), CF f -> fun st -> set st (trunc_to t (f st))
  | LI (t, _, set), CD f -> fun st -> set st (dyn_to_int t (f st))
  | LF (_, _, set), e -> (
      let f = fl e in
      fun st -> set st (f st))

(* ---------------- libm (the interpreter's subset) ---------------- *)

let libm1 = Silvm_interp.libm1
let libm2 = Silvm_interp.libm2

(* ---------------- scalar constants ---------------- *)

let const_of_value = function
  | Silvm_value.VI (t, v) when t.Silvm_value.bits <= 32 ->
      let x = Int64.to_int v in
      CI (t, fun _ -> x)
  | Silvm_value.VF x -> CF (fun _ -> x)
  | v -> CD (fun _ -> v)

let int_lit n =
  let v = Int64.to_int (Silvm_value.normalize i32ty (Int64.of_int n)) in
  CI (i32ty, fun _ -> v)

let hex_lit n =
  if n <= 0x7FFFFFFF then int_lit n
  else
    let v = Int64.to_int (Silvm_value.normalize u32ty (Int64.of_int n)) in
    CI (u32ty, fun _ -> v)

(* ---------------- expression compilation ---------------- *)

(* integer promotion then the usual arithmetic conversions, decided at
   compile time: the canonical value is unchanged by promotion, so only
   a conversion to a *different* common type costs a wrap *)
let promote_ity (t : ity) = if t.Silvm_value.bits < 32 then i32ty else t

let common_ity (a : ity) (b : ity) =
  if a = b then a
  else if a.Silvm_value.signed = b.Silvm_value.signed then
    if a.Silvm_value.bits >= b.Silvm_value.bits then a else b
  else
    let s, u = if a.Silvm_value.signed then (a, b) else (b, a) in
    if u.Silvm_value.bits >= s.Silvm_value.bits then u else s

let conv_to (t : ity) (src : ity) (f : st -> int) : st -> int =
  if src = t then f else fun st -> norm t (f st)

type scope = (string, storage) Hashtbl.t

let rec compile_expr g (scope : scope) (e : Mir.expr) : cexp =
  match e with
  | Mir.Kint (n, Mir.Dec) -> int_lit n
  | Mir.Kint (n, Mir.Hex) -> hex_lit n
  | Mir.Kfloat x -> CF (fun _ -> x)
  | Mir.Load (Mir.Pvar v)
    when (not (Hashtbl.mem scope v)) && not (Hashtbl.mem g.globals v) -> (
      match Hashtbl.find_opt g.macros v with
      | Some value -> const_of_value value
      | None -> fail "unbound identifier %s" v)
  | Mir.Load p -> (
      match compile_lval g scope p with
      | LI (t, get, _) -> CI (t, get)
      | LF (_, get, _) -> CF get)
  | Mir.Eun (Mir.Neg, a) -> (
      match compile_expr g scope a with
      | CI (t, f) ->
          let t = promote_ity t in
          CI (t, fun st -> norm t (-f st))
      | CF f -> CF (fun st -> -.f st)
      | CD f -> CD (fun st -> Silvm_value.unop "-" (f st)))
  | Mir.Eun (Mir.Lnot, a) ->
      let tc = truth (compile_expr g scope a) in
      CI (i32ty, fun st -> if tc st then 0 else 1)
  | Mir.Ebin (Mir.Land, a, b) ->
      let ta = truth (compile_expr g scope a)
      and tb = truth (compile_expr g scope b) in
      CI (i32ty, fun st -> if ta st && tb st then 1 else 0)
  | Mir.Ebin (Mir.Lor, a, b) ->
      let ta = truth (compile_expr g scope a)
      and tb = truth (compile_expr g scope b) in
      CI (i32ty, fun st -> if ta st || tb st then 1 else 0)
  | Mir.Ebin (op, a, b) ->
      compile_bin op (compile_expr g scope a) (compile_expr g scope b)
  | Mir.Ecast (cty, a) -> compile_cast g cty (compile_expr g scope a)
  | Mir.Equantize (k, a) -> compile_quantize k (fl (compile_expr g scope a))
  | Mir.Esat16 a ->
      let f = as_i32 (compile_expr g scope a) in
      CI
        ( { Silvm_value.bits = 16; signed = true },
          fun st ->
            let x = f st in
            if x > 32767 then 32767 else if x < -32768 then -32768 else x )
  | Mir.Esat_add32 (a, b) ->
      let fa = as_i32 (compile_expr g scope a)
      and fb = as_i32 (compile_expr g scope b) in
      CI
        ( i32ty,
          fun st ->
            let s = fa st + fb st in
            if s > 0x7FFFFFFF then 0x7FFFFFFF
            else if s < -0x80000000 then -0x80000000
            else s )
  | Mir.Emul_shift (a, b, s) ->
      let fa = as_i32 (compile_expr g scope a)
      and fb = as_i32 (compile_expr g scope b)
      and fs = as_i32 (compile_expr g scope s) in
      CI
        ( i32ty,
          fun st ->
            (* the helper body, op for op: i64 product, rounding bias,
               arithmetic shift, truncating cast — with the
               interpreter's shift-range errors *)
            let x = fa st and y = fb st and sh = fs st in
            let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
            if sh - 1 < 0 || sh - 1 >= 64 then
              verr "shift count %d out of range" (sh - 1);
            let p = Int64.add p (Int64.shift_left 1L (sh - 1)) in
            if sh >= 64 then verr "shift count %d out of range" sh;
            Int64.to_int
              (Silvm_value.normalize i32ty (Int64.shift_right p sh)) )
  | Mir.Ecall (f, args) -> compile_call g scope f args
  | Mir.Eselect (c, a, b) -> (
      let tc = truth (compile_expr g scope c) in
      let ca = compile_expr g scope a and cb = compile_expr g scope b in
      match (ca, cb) with
      | CI (ta, fa), CI (tb, fb) when ta = tb ->
          CI (ta, fun st -> if tc st then fa st else fb st)
      | CF fa, CF fb -> CF (fun st -> if tc st then fa st else fb st)
      | _ ->
          (* the interpreter returns the arm's value unconverted: a
             type-mismatched ternary is data-dependently typed *)
          let da = dyn ca and db = dyn cb in
          CD (fun st -> if tc st then da st else db st))
  | Mir.Eaddr p ->
      (* the interpreter evaluates the operand, then rejects unary & *)
      let read = dyn (compile_expr g scope (Mir.Load p)) in
      CD (fun st -> Silvm_value.unop "&" (read st))
  | Mir.Eopaque _ ->
      let msg = "opaque expression: " ^ Mir_to_c.expr_to_string e in
      CD (fun _ -> raise (Silvm_interp.Unsupported msg))

and compile_bin op (a : cexp) (b : cexp) : cexp =
  match (a, b) with
  | (CF _ | CI _), (CF _ | CI _) when (match (a, b) with
                                       | CF _, _ | _, CF _ -> true
                                       | _ -> false) -> (
      let fa = fl a and fb = fl b in
      match op with
      | Mir.Add -> CF (fun st -> fa st +. fb st)
      | Mir.Sub -> CF (fun st -> fa st -. fb st)
      | Mir.Mul -> CF (fun st -> fa st *. fb st)
      | Mir.Div -> CF (fun st -> fa st /. fb st)
      | Mir.Lt -> CI (i32ty, fun st -> if fa st < fb st then 1 else 0)
      | Mir.Le -> CI (i32ty, fun st -> if fa st <= fb st then 1 else 0)
      | Mir.Gt -> CI (i32ty, fun st -> if fa st > fb st then 1 else 0)
      | Mir.Ge -> CI (i32ty, fun st -> if fa st >= fb st then 1 else 0)
      | Mir.Eq -> CI (i32ty, fun st -> if fa st = fb st then 1 else 0)
      | Mir.Ne -> CI (i32ty, fun st -> if fa st <> fb st then 1 else 0)
      | _ ->
          let name = Mir.bop_name op in
          CD (fun _ -> verr "operator %s on float operands" name))
  | CI (ta, fa0), CI (tb, fb0) -> (
      let pa = promote_ity ta and pb = promote_ity tb in
      let t = common_ity pa pb in
      let fa = conv_to t pa fa0 and fb = conv_to t pb fb0 in
      let cmp test = CI (i32ty, fun st -> if test (compare (fa st) (fb st)) then 1 else 0) in
      match op with
      | Mir.Add -> CI (t, fun st -> norm t (fa st + fb st))
      | Mir.Sub -> CI (t, fun st -> norm t (fa st - fb st))
      | Mir.Mul -> CI (t, fun st -> norm t (fa st * fb st))
      | Mir.Div ->
          CI
            ( t,
              fun st ->
                let x = fa st in
                let y = fb st in
                if y = 0 then verr "division by zero";
                norm t (x / y) )
      | Mir.Mod ->
          CI
            ( t,
              fun st ->
                let x = fa st in
                let y = fb st in
                if y = 0 then verr "remainder by zero";
                norm t (x mod y) )
      | Mir.Shl ->
          let bits = pa.Silvm_value.bits in
          let fx = fa0 and fn_ = as_index b in
          CI
            ( pa,
              fun st ->
                let x = fx st in
                let n = fn_ st in
                if n < 0 || n >= bits then verr "shift count %d out of range" n;
                norm pa (x lsl n) )
      | Mir.Shr ->
          let bits = pa.Silvm_value.bits in
          let signed = pa.Silvm_value.signed in
          let fx = fa0 and fn_ = as_index b in
          CI
            ( pa,
              fun st ->
                let x = fx st in
                let n = fn_ st in
                if n < 0 || n >= bits then verr "shift count %d out of range" n;
                if signed then x asr n else x lsr n )
      | Mir.Band -> CI (t, fun st -> norm t (fa st land fb st))
      | Mir.Bor -> CI (t, fun st -> norm t (fa st lor fb st))
      | Mir.Bxor -> CI (t, fun st -> norm t (fa st lxor fb st))
      | Mir.Eq -> cmp (fun c -> c = 0)
      | Mir.Ne -> cmp (fun c -> c <> 0)
      | Mir.Lt -> cmp (fun c -> c < 0)
      | Mir.Le -> cmp (fun c -> c <= 0)
      | Mir.Gt -> cmp (fun c -> c > 0)
      | Mir.Ge -> cmp (fun c -> c >= 0)
      | Mir.Land | Mir.Lor -> assert false)
  | _ ->
      let name = Mir.bop_name op in
      let da = dyn a and db = dyn b in
      CD
        (fun st ->
          let x = da st in
          let y = db st in
          Silvm_value.binop name x y)

and compile_cast g (ty : cty) (a : cexp) : cexp =
  match resolve g ty with
  | Rf `F64 -> CF (fl a)
  | Rf `F32 ->
      let f = fl a in
      CF (fun st -> to_f32 (f st))
  | Rint t when t.Silvm_value.bits <= 32 -> (
      match a with
      | CI (ta, f) -> if ta = t then a else CI (t, fun st -> norm t (f st))
      | CF f -> CI (t, fun st -> trunc_to t (f st))
      | CD f -> CI (t, fun st -> dyn_to_int t (f st)))
  | Rint _ -> unsupported "64-bit cast in compiled SIL (interpreter-only)"
  | Rvoid -> a (* (void)e discards the value *)
  | Rstruct _ | Rarr _ -> unsupported "cast to pointer/array type"

and compile_quantize k (af : st -> float) : cexp =
  let mt = Mir.qkind_ty k in
  let t =
    match mt with
    | Mir.Tint { Mir.bits; signed } -> { Silvm_value.bits; signed }
    | _ -> assert false
  in
  match k with
  | Mir.Qb -> CI (u8ty, fun st -> if af st <> 0.0 then 1 else 0)
  | _ ->
      let lo, hi = Mir.qkind_bounds k in
      let lo_i = trunc_to t lo and hi_i = trunc_to t hi in
      CI
        ( t,
          fun st ->
            let x = af st in
            if Float.is_nan x then 0
            else
              let r = Float.round x in
              if r >= hi then hi_i
              else if r <= lo then lo_i
              else trunc_to t r )

and compile_call g scope f args : cexp =
  if Hashtbl.mem g.srcfns f then
    let das =
      Array.of_list (List.map (fun a -> dyn (compile_expr g scope a)) args)
    in
    CD
      (fun st ->
        let vs = Array.to_list (Array.map (fun d -> d st) das) in
        match call_fn g st f vs with
        | Some v -> v
        | None -> Silvm_value.vbool false (* void call in expression context *))
  else
    (* the interpreter resolves externals before libm, and externals
       are registered per instance after compilation — so a libm-named
       call keeps a (cheap) dynamic guard for the shadowing case *)
    let shadowed mk =
      let das = List.map (fun a -> dyn (compile_expr g scope a)) args in
      CD
        (fun st ->
          match Hashtbl.find_opt st.externals f with
          | Some fn -> fn (List.map (fun d -> d st) das)
          | None -> mk st)
    in
    match (libm1 f, libm2 f, args) with
    | Some fn, _, [ a ] ->
        let fa = fl (compile_expr g scope a) in
        shadowed (fun st -> Silvm_value.VF (fn (fa st)))
    | _, Some fn, [ a; b ] ->
        let fa = fl (compile_expr g scope a)
        and fb = fl (compile_expr g scope b) in
        shadowed (fun st -> Silvm_value.VF (fn (fa st) (fb st)))
    | _ ->
        if String.equal f "lround" then
          match args with
          | [ a ] ->
              let fa = fl (compile_expr g scope a) in
              shadowed (fun st ->
                  Silvm_value.of_int64 i32ty
                    (Int64.of_float (Float.round (fa st))))
          | _ -> fail "lround arity"
        else
          let das =
            List.map (fun a -> dyn (compile_expr g scope a)) args
          in
          CD
            (fun st ->
              (* arguments first, as the interpreter evaluates them *)
              let vs = List.map (fun d -> d st) das in
              match Hashtbl.find_opt st.externals f with
              | Some fn -> fn vs
              | None -> unsupported "call to unknown function %s" f)

(* invoke a compiled (or lazily failed) model function *)
and call_fn g st fname (args : Silvm_value.t list) : Silvm_value.t option =
  match Hashtbl.find_opt g.fns fname with
  | Some (Fn_ok fn) ->
      let n = Array.length fn.cf_params in
      if List.length args <> n then
        fail "%s: %d arguments, %d expected" fname (List.length args) n;
      List.iteri (fun i v -> fn.cf_params.(i) st v) args;
      let result =
        match fn.cf_body st with
        | () -> None
        | exception Creturn v -> v
      in
      (match (fn.cf_ret, result) with
      | None, _ -> None
      | Some cast, Some v -> Some (cast v)
      | Some _, None -> fail "%s: fell off a non-void function" fname)
  | Some (Fn_fail msg) -> raise (Silvm_interp.Unsupported msg)
  | None -> (
      match Hashtbl.find_opt st.externals fname with
      | Some f -> Some (f args)
      | None -> (
          match (libm1 fname, libm2 fname, args) with
          | Some f, _, [ x ] ->
              Some (Silvm_value.VF (f (Silvm_value.to_float x)))
          | _, Some f, [ x; y ] ->
              Some
                (Silvm_value.VF
                   (f (Silvm_value.to_float x) (Silvm_value.to_float y)))
          | _ ->
              if String.equal fname "lround" then
                match args with
                | [ x ] ->
                    Some
                      (Silvm_value.of_int64 i32ty
                         (Int64.of_float
                            (Float.round (Silvm_value.to_float x))))
                | _ -> fail "lround arity"
              else unsupported "call to unknown function %s" fname))

(* ---------------- places ---------------- *)

and storage_of_place g scope (p : Mir.place) : storage =
  match p with
  | Mir.Pvar v -> (
      match Hashtbl.find_opt scope v with
      | Some s -> s
      | None -> (
          match Hashtbl.find_opt g.globals v with
          | Some s -> s
          | None -> fail "unbound identifier %s" v))
  | Mir.Pfield (b, f) -> (
      match storage_of_place g scope b with
      | Sstructv fields -> (
          let n = Array.length fields in
          let rec find i =
            if i >= n then fail "no field %s" f
            else
              let fn, s = fields.(i) in
              if String.equal fn f then s else find (i + 1)
          in
          find 0)
      | _ -> fail "field access %s on a non-struct" f)
  | Mir.Pindex _ -> unsupported "nested array subscript"

and compile_lval g scope (p : Mir.place) : lval =
  match p with
  | Mir.Pindex (base, idx) ->
      let stor = storage_of_place g scope base in
      let ix = as_index (compile_expr g scope idx) in
      index_lval stor ix
  | _ -> lval_of_storage (storage_of_place g scope p)

(* ---------------- statements ---------------- *)

and seq (fs : (st -> unit) list) : st -> unit =
  match fs with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f1; f2 ] ->
      fun st ->
        f1 st;
        f2 st
  | fs ->
      let a = Array.of_list fs in
      let n = Array.length a in
      fun st ->
        for i = 0 to n - 1 do
          (Array.unsafe_get a i) st
        done

and zero_storage = function
  | Sint (_, k) -> fun st -> Array.unsafe_set st.ints k 0
  | Sflt (_, k) -> fun st -> Array.unsafe_set st.floats k 0.0
  | Sintarr (_, base, len) ->
      fun st -> Array.fill st.ints base len 0
  | Sfltarr (_, base, len) ->
      fun st -> Array.fill st.floats base len 0.0
  | Sstructv _ | Sxchg _ -> unsupported "aggregate local"

and new_local g scope (ty : cty) name : storage =
  let stor =
    match resolve g ty with
    | Rint t -> Sint (narrow t, alloc_int g)
    | Rf w -> Sflt (w, alloc_flt g)
    | Rarr _ | Rstruct _ -> unsupported "aggregate local"
    | Rvoid -> unsupported "void object"
  in
  Hashtbl.replace scope name stor;
  stor

and compile_stmt g scope (s : Mir.stmt) : (st -> unit) option =
  match s with
  | Mir.Scomment _ -> None
  | Mir.Sdecl (cty, n, init) -> (
      (* declaration order equals execution order in the generated
         straight-line code, so binding the name from here on mirrors
         the interpreter's dynamic frame *)
      match init with
      | None ->
          let stor = new_local g scope cty n in
          Some (zero_storage stor)
      | Some e ->
          (* the initialiser is compiled in the scope *before* the
             declaration, like the interpreter evaluates it *)
          let ce = compile_expr g scope e in
          let stor = new_local g scope cty n in
          Some (store (lval_of_storage stor) ce))
  | Mir.Sassign (p, e) ->
      let ce = compile_expr g scope e in
      Some (store (compile_lval g scope p) ce)
  | Mir.Sexpr e -> (
      match compile_expr g scope e with
      | CI (_, f) -> Some (fun st -> ignore (f st))
      | CF f -> Some (fun st -> ignore (f st))
      | CD f -> Some (fun st -> ignore (f st)))
  | Mir.Sincr p -> (
      match compile_lval g scope p with
      | LI (_, get, set) -> Some (fun st -> set st (get st + 1))
      | LF (_, get, set) -> Some (fun st -> set st (get st +. 1.0)))
  | Mir.Sif (c, t, e) ->
      let tc = truth (compile_expr g scope c) in
      let ft = compile_stmts g scope t in
      let fe = compile_stmts g scope e in
      Some (fun st -> if tc st then ft st else fe st)
  | Mir.Swhile (c, b) ->
      let tc = truth (compile_expr g scope c) in
      let fb = compile_stmts g scope b in
      Some
        (fun st ->
          while tc st do
            burn st;
            fb st
          done)
  | Mir.Sfor (i, c, u, b) ->
      let fi = Option.value (compile_stmt g scope i) ~default:(fun _ -> ()) in
      let tc = truth (compile_expr g scope c) in
      let fb = compile_stmts g scope b in
      let fu = Option.value (compile_stmt g scope u) ~default:(fun _ -> ()) in
      Some
        (fun st ->
          fi st;
          while tc st do
            burn st;
            fb st;
            fu st
          done)
  | Mir.Sreturn e ->
      let d = Option.map (fun e -> dyn (compile_expr g scope e)) e in
      Some (fun st -> raise (Creturn (Option.map (fun f -> f st) d)))
  | Mir.Sblock b -> Some (compile_stmts g scope b)
  | Mir.Sopaque _ ->
      (* like the interpreter: fails when run, not when compiled *)
      let msg = "opaque statement: " ^ Mir_to_c.stmt_to_string s in
      Some (fun _ -> raise (Silvm_interp.Unsupported msg))

and compile_stmts g scope (ss : Mir.stmt list) : st -> unit =
  seq (List.filter_map (compile_stmt g scope) ss)

(* ---------------- functions ---------------- *)

and dyn_setter = function
  | Sint (t, k) -> fun st v -> Array.unsafe_set st.ints k (dyn_to_int t v)
  | Sflt (`F64, k) ->
      fun st v -> Array.unsafe_set st.floats k (Silvm_value.to_float v)
  | Sflt (`F32, k) ->
      fun st v -> Array.unsafe_set st.floats k (to_f32 (Silvm_value.to_float v))
  | Sintarr _ | Sfltarr _ | Sstructv _ | Sxchg _ ->
      unsupported "aggregate assignment"

and ret_cast g (ty : cty) : (Silvm_value.t -> Silvm_value.t) option =
  match resolve g ty with
  | Rvoid -> None
  | Rf `F64 -> Some (fun v -> Silvm_value.VF (Silvm_value.to_float v))
  | Rf `F32 -> Some (fun v -> Silvm_value.VF (to_f32 (Silvm_value.to_float v)))
  | Rint t when t.Silvm_value.bits <= 32 ->
      Some
        (function
        | Silvm_value.VI (_, x) -> Silvm_value.of_int64 t x
        | Silvm_value.VF x -> Silvm_value.of_float_trunc t x)
  | Rint _ -> unsupported "64-bit return in compiled SIL (interpreter-only)"
  | Rstruct _ | Rarr _ -> unsupported "aggregate return"

and compile_fn g (f : func) : compiled_fn =
  let scope : scope = Hashtbl.create 16 in
  let params =
    Array.of_list
      (List.map (fun (ty, n) -> dyn_setter (new_local g scope ty n)) f.args)
  in
  let body = compile_stmts g scope (Mir_of_c.lift_stmts f.body) in
  { cf_name = f.fname; cf_params = params; cf_body = body; cf_ret = ret_cast g f.ret }

(* ---------------- translation-unit processing ---------------- *)

let is_xchg_name n =
  String.equal n "pil_sensor_buf" || String.equal n "pil_actuator_buf"

let add_unit g (u : cunit) =
  List.iter
    (fun item ->
      match item with
      | Include _ | Include_local _ | Item_comment _ | Proto _ | Raw_item _ ->
          ()
      | Define (n, body) -> (
          match int_of_string_opt body with
          | Some v ->
              Hashtbl.replace g.macros n (Silvm_value.of_int i32ty v)
          | None -> (
              match float_of_string_opt body with
              | Some x -> Hashtbl.replace g.macros n (Silvm_value.VF x)
              | None -> () (* function-like or non-constant macro *)))
      | Typedef (ty, n) -> Hashtbl.replace g.typedefs n ty
      | Struct_def (n, fields) -> Hashtbl.replace g.structs n fields
      | Global { gty; gname; ginit; _ } ->
          let stor =
            match gty with
            | Arr (U16, n) when is_xchg_name gname ->
                if String.equal gname "pil_sensor_buf" then (
                  g.n_sensor <- n;
                  Sxchg (`Sens, n))
                else (
                  g.n_actuator <- n;
                  Sxchg (`Act, n))
            | _ -> new_storage g gty
          in
          (match ginit with
          | None -> ()
          | Some init ->
              let v =
                match init with
                | Int_lit v | Hex_lit v -> Silvm_value.of_int i32ty v
                | Float_lit x -> Silvm_value.VF x
                | Un ("-", Int_lit v) -> Silvm_value.of_int i32ty (-v)
                | Un ("-", Float_lit x) -> Silvm_value.VF (-.x)
                | _ -> unsupported "non-literal initialiser for global %s" gname
              in
              (match stor with
              | Sint (t, k) -> g.int_init <- (k, dyn_to_int t v) :: g.int_init
              | Sflt (w, k) ->
                  let x = Silvm_value.to_float v in
                  let x = match w with `F64 -> x | `F32 -> to_f32 x in
                  g.float_init <- (k, x) :: g.float_init
              | _ -> unsupported "initialiser for aggregate global %s" gname));
          Hashtbl.replace g.globals gname stor
      | Func_def f -> Hashtbl.replace g.srcfns f.fname f)
    u.items

let create_genv () =
  let g =
    {
      typedefs = Hashtbl.create 16;
      structs = Hashtbl.create 16;
      globals = Hashtbl.create 64;
      macros = Hashtbl.create 16;
      srcfns = Hashtbl.create 32;
      fns = Hashtbl.create 32;
      n_ints = 0;
      n_floats = 0;
      n_sensor = 0;
      n_actuator = 0;
      int_init = [];
      float_init = [];
    }
  in
  (* the limits.h / stdint.h constants the generated helpers reference,
     same table the interpreter preloads *)
  let ic t v = Silvm_value.VI (t, v) in
  List.iter
    (fun (n, v) -> Hashtbl.replace g.macros n v)
    [
      ("INT8_MAX", ic i32ty 127L);
      ("INT8_MIN", ic i32ty (-128L));
      ("INT16_MAX", ic i32ty 32767L);
      ("INT16_MIN", ic i32ty (-32768L));
      ("INT32_MAX", ic i32ty 2147483647L);
      ("INT32_MIN", ic i32ty (-2147483648L));
      ("UINT8_MAX", ic i32ty 255L);
      ("UINT16_MAX", ic i32ty 65535L);
      ("UINT32_MAX", ic u32ty 4294967295L);
    ];
  g

let compile (units : cunit list) : code =
  let g = create_genv () in
  List.iter (add_unit g) units;
  (* compile every function; a body outside the compiled subset fails
     lazily at call time, like the interpreter's Unsupported *)
  Hashtbl.iter
    (fun name f ->
      let slot =
        match compile_fn g f with
        | fn -> Fn_ok fn
        | exception Silvm_interp.Unsupported msg ->
            Fn_fail (Printf.sprintf "%s: %s" name msg)
        | exception Silvm_interp.Runtime_error msg ->
            Fn_fail (Printf.sprintf "%s: %s" name msg)
      in
      Hashtbl.replace g.fns name slot)
    g.srcfns;
  g

(* ---------------- instances ---------------- *)

let instantiate (g : code) : st =
  let ints = Array.make (max 1 g.n_ints) 0 in
  let floats = Array.make (max 1 g.n_floats) 0.0 in
  List.iter (fun (k, v) -> ints.(k) <- v) g.int_init;
  List.iter (fun (k, x) -> floats.(k) <- x) g.float_init;
  let mk n =
    let a = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a
  in
  {
    ints;
    floats;
    sensor = mk g.n_sensor;
    actuator = mk g.n_actuator;
    externals = Hashtbl.create 8;
    fuel = loop_fuel_budget;
  }

let register_external st name f = Hashtbl.replace st.externals name f
let has_func (g : code) name = Hashtbl.mem g.fns name

let call (g : code) st fname args =
  st.fuel <- loop_fuel_budget;
  call_fn g st fname args

(* fast typed accessors for the exchange buffers *)
let set_sensor st slot v = Bigarray.Array1.set st.sensor slot (v land 0xFFFF)
let actuator st slot = Bigarray.Array1.get st.actuator slot
let actuator_buf st = st.actuator
let sensor_count (g : code) = g.n_sensor
let actuator_count (g : code) = g.n_actuator

(* ad-hoc reads of global storage (block-output signals): compiled
   once, then just a closure call per step *)
let reader (g : code) (p : Mir.place) : st -> Silvm_value.t =
  match compile_lval g (Hashtbl.create 1) p with
  | LI (t, get, _) -> dyn (CI (t, get))
  | LF (_, get, _) -> dyn (CF get)

(* ---------------- content-hashed compile cache ----------------

   The key is a digest of the translation units' structure, so repeated
   submissions of identical generated code share one compiled [code]
   across the whole process — every domain of a campaign pool
   instantiates its own [st] over the shared closures. The table is the
   bounded {!Content_cache} the model compile cache uses too. *)

let cache : code Content_cache.t =
  Content_cache.create ~metrics:"silvm" ~trace:"silvm"

let digest (units : cunit list) =
  Digest.to_hex (Digest.string (Marshal.to_string units []))

let compile_cached (units : cunit list) : code =
  Content_cache.find_or_add cache (digest units) (fun () ->
      let t0 = if Obs.enabled () then Obs.now_ns () else 0.0 in
      let code = compile units in
      if Obs.enabled () then
        Obs.record_named "profile.silvm.compile_s"
          ((Obs.now_ns () -. t0) *. 1e-9);
      code)

let cache_stats () =
  let hits, misses, _ = Content_cache.stats cache in
  (hits, misses)

let cache_clear () = Content_cache.clear cache
