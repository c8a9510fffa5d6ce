(* Reference evaluator for MIR with exact C99 scalar semantics:
   integer promotion, usual arithmetic conversions, modular wrap at
   the target width, truncating division, and the generated helpers'
   round-half-away-from-zero quantisation and saturating arithmetic.

   Deliberately written against MIR (not shared with the SIL
   interpreter's Silvm_value): the MIR<->C round-trip property in the
   test suite compares this evaluator with the SIL interpreter running
   the lowered C, so the two arithmetic implementations check each
   other. It also backs the constant folder: a fold is only performed
   when this evaluator produces a defined result. *)

exception Nonconst  (** expression depends on memory or an external *)

exception Undefined of string  (** C UB / unspecified: never folded *)

type value = Vi of Mir.ity * int64 | Vf of Mir.ty * float

let undef fmt = Printf.ksprintf (fun s -> raise (Undefined s)) fmt

(* normalise an int64 into the value range of [ity] (wrap semantics) *)
let norm (ity : Mir.ity) (v : int64) : int64 =
  if ity.Mir.bits >= 64 then v
  else
    let shift = 64 - ity.Mir.bits in
    let shifted = Int64.shift_left v shift in
    if ity.Mir.signed then Int64.shift_right shifted shift
    else Int64.shift_right_logical shifted shift

let vi ity v = Vi (ity, norm ity v)

let ity_of_ty = function
  | Mir.Tint i -> Some i
  | Mir.Tf32 | Mir.Tf64 | Mir.Tnamed _ | Mir.Tunknown -> None

(* numeric value of an integer cell as a float (u64 needs the unsigned
   reading of the bits) *)
let float_of_int_value (ity : Mir.ity) v =
  if (not ity.Mir.signed) && ity.Mir.bits = 64 && Int64.compare v 0L < 0 then
    Int64.to_float v +. 18446744073709551616.0
  else Int64.to_float v

let to_double = function
  | Vf (_, x) -> x
  | Vi (ity, v) -> float_of_int_value ity v

let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* convert a value into [ty] with C conversion semantics *)
let convert (ty : Mir.ty) v : value =
  match (ty, v) with
  | Mir.Tf64, _ -> Vf (Mir.Tf64, to_double v)
  | Mir.Tf32, _ -> Vf (Mir.Tf32, round_f32 (to_double v))
  | Mir.Tint ity, Vi (_, x) -> vi ity x
  | Mir.Tint ity, Vf (_, x) ->
      (* float -> int: truncate toward zero; UB when out of range *)
      if Float.is_nan x then undef "float->int conversion of NaN";
      let tr = Float.trunc x in
      let lo, hi =
        if ity.Mir.signed then
          ( -.Float.pow 2.0 (Float.of_int (ity.Mir.bits - 1)),
            Float.pow 2.0 (Float.of_int (ity.Mir.bits - 1)) )
        else (0.0, Float.pow 2.0 (Float.of_int ity.Mir.bits))
      in
      if tr < lo || tr >= hi then
        undef "float->int conversion out of range (%g)" x;
      vi ity (Int64.of_float tr)
  | (Mir.Tnamed _ | Mir.Tunknown), _ ->
      undef "conversion to unknown type"

let promote_v = function
  | Vi (ity, v) when ity.Mir.bits < 32 ->
      vi { Mir.bits = 32; signed = true } v
  | v -> v

let is_truthy = function
  | Vi (_, v) -> not (Int64.equal v 0L)
  | Vf (_, x) -> x <> 0.0

(* usual arithmetic conversions applied to both operands *)
let usual_pair a b =
  let ty v = match v with Vi (i, _) -> Mir.Tint i | Vf (t, _) -> t in
  let common = Mir_env.usual (ty a) (ty b) in
  match common with
  | Mir.Tunknown | Mir.Tnamed _ -> undef "untyped operand"
  | _ -> (common, convert common a, convert common b)

let unsigned_lt a b = Int64.unsigned_compare a b < 0

let binop (op : Mir.bop) (a : value) (b : value) : value =
  match op with
  | Mir.Land | Mir.Lor -> assert false (* short-circuit in eval *)
  | Mir.Shl | Mir.Shr -> (
      let a = promote_v a and b = promote_v b in
      match (a, b) with
      | Vi (ity, x), Vi (_, s) ->
          let s = Int64.to_int s in
          if s < 0 || s >= ity.Mir.bits then
            undef "shift amount %d out of range for %d bits" s ity.Mir.bits;
          if op = Mir.Shl then vi ity (Int64.shift_left x s)
          else if ity.Mir.signed then vi ity (Int64.shift_right x s)
          else vi ity (Int64.shift_right_logical (norm ity x) s)
      | _ -> undef "shift on a float operand")
  | _ -> (
      let common, a, b = usual_pair a b in
      match (a, b) with
      | Vf (fty, x), Vf (_, y) -> (
          let r op = if fty = Mir.Tf32 then round_f32 op else op in
          match op with
          | Mir.Add -> Vf (fty, r (x +. y))
          | Mir.Sub -> Vf (fty, r (x -. y))
          | Mir.Mul -> Vf (fty, r (x *. y))
          | Mir.Div -> Vf (fty, r (x /. y))
          | Mir.Mod | Mir.Band | Mir.Bor | Mir.Bxor ->
              undef "integer operator on floats"
          | Mir.Eq -> vi { Mir.bits = 32; signed = true } (if x = y then 1L else 0L)
          | Mir.Ne -> vi { Mir.bits = 32; signed = true } (if x <> y then 1L else 0L)
          | Mir.Lt -> vi { Mir.bits = 32; signed = true } (if x < y then 1L else 0L)
          | Mir.Gt -> vi { Mir.bits = 32; signed = true } (if x > y then 1L else 0L)
          | Mir.Le -> vi { Mir.bits = 32; signed = true } (if x <= y then 1L else 0L)
          | Mir.Ge -> vi { Mir.bits = 32; signed = true } (if x >= y then 1L else 0L)
          | Mir.Shl | Mir.Shr | Mir.Land | Mir.Lor -> assert false)
      | Vi (ity, x), Vi (_, y) -> (
          ignore common;
          let bool_ b = vi { Mir.bits = 32; signed = true } (if b then 1L else 0L) in
          let cmp lt =
            (* after the usual conversions both sides have type [ity];
               32-bit values are exact in int64, 64-bit unsigned needs
               an unsigned compare *)
            bool_
              (if ity.Mir.signed || ity.Mir.bits < 64 then
                 lt (Int64.compare x y)
               else lt (Int64.unsigned_compare x y))
          in
          match op with
          | Mir.Add -> vi ity (Int64.add x y)
          | Mir.Sub -> vi ity (Int64.sub x y)
          | Mir.Mul -> vi ity (Int64.mul x y)
          | Mir.Div ->
              if Int64.equal y 0L then undef "division by zero";
              if ity.Mir.signed then (
                if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
                  undef "INT_MIN / -1";
                vi ity (Int64.div x y))
              else vi ity (Int64.unsigned_div (norm ity x) (norm ity y))
          | Mir.Mod ->
              if Int64.equal y 0L then undef "modulo by zero";
              if ity.Mir.signed then (
                if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
                  undef "INT_MIN %% -1";
                vi ity (Int64.rem x y))
              else vi ity (Int64.unsigned_rem (norm ity x) (norm ity y))
          | Mir.Band -> vi ity (Int64.logand x y)
          | Mir.Bor -> vi ity (Int64.logor x y)
          | Mir.Bxor -> vi ity (Int64.logxor x y)
          | Mir.Eq -> bool_ (Int64.equal x y)
          | Mir.Ne -> bool_ (not (Int64.equal x y))
          | Mir.Lt -> cmp (fun c -> c < 0)
          | Mir.Gt -> cmp (fun c -> c > 0)
          | Mir.Le -> cmp (fun c -> c <= 0)
          | Mir.Ge -> cmp (fun c -> c >= 0)
          | Mir.Shl | Mir.Shr | Mir.Land | Mir.Lor -> assert false)
      | _ -> assert false)

let unop (op : Mir.uop) (a : value) : value =
  match op with
  | Mir.Neg -> (
      match promote_v a with
      | Vi (ity, x) -> vi ity (Int64.neg x)
      | Vf (fty, x) -> Vf (fty, -.x))
  | Mir.Lnot ->
      vi { Mir.bits = 32; signed = true } (if is_truthy a then 0L else 1L)

(* ---- the generated helpers, bit for bit ---- *)

(* pe_cast_<k>: round half away from zero, saturate, NaN -> 0 *)
let quantize (k : Mir.qkind) (v : value) : value =
  let x = to_double v in
  let ret_ty = Mir.qkind_ty k in
  let ity = match ity_of_ty ret_ty with Some i -> i | None -> assert false in
  match k with
  | Mir.Qb -> vi ity (if x <> 0.0 then 1L else 0L)
  | _ ->
      if Float.is_nan x then vi ity 0L
      else
        let lo, hi = Mir.qkind_bounds k in
        let r = Float.round x in
        if r >= hi then vi ity (Int64.of_float hi)
        else if r <= lo then vi ity (Int64.of_float lo)
        else vi ity (Int64.of_float r)

let sat16 (v : value) : value =
  match convert Mir.i32 v with
  | Vi (_, x) ->
      let c = if Int64.compare x 32767L > 0 then 32767L
              else if Int64.compare x (-32768L) < 0 then -32768L
              else x in
      vi { Mir.bits = 16; signed = true } c
  | Vf _ -> assert false

let sat_add32 (a : value) (b : value) : value =
  match (convert Mir.i32 a, convert Mir.i32 b) with
  | Vi (_, x), Vi (_, y) ->
      let s = Int64.add x y in
      let c =
        if Int64.compare s 2147483647L > 0 then 2147483647L
        else if Int64.compare s (-2147483648L) < 0 then -2147483648L
        else s
      in
      vi { Mir.bits = 32; signed = true } c
  | _ -> assert false

let mul_shift (a : value) (b : value) (s : value) : value =
  match (convert Mir.i32 a, convert Mir.i32 b, convert Mir.i32 s) with
  | Vi (_, x), Vi (_, y), Vi (_, sh) ->
      let sh = Int64.to_int sh in
      if sh < 1 || sh >= 63 then undef "pe_mul_shift shift %d" sh;
      let p = Int64.mul x y in
      let p = Int64.add p (Int64.shift_left 1L (sh - 1)) in
      vi { Mir.bits = 32; signed = true } (Int64.shift_right p sh)
  | _ -> assert false

(* ---- expression evaluation ---- *)

(* [lookup] resolves a Load; pass [None] for pure constant evaluation
   (raises [Nonconst] on any memory access). *)
let rec eval ?lookup (e : Mir.expr) : value =
  let ev = eval ?lookup in
  match e with
  | Mir.Kint (n, Mir.Dec) ->
      (* a decimal literal in generated code always fits in int *)
      vi { Mir.bits = 32; signed = true } (Int64.of_int n)
  | Mir.Kint (n, Mir.Hex) -> vi { Mir.bits = 32; signed = false } (Int64.of_int n)
  | Mir.Kfloat x -> Vf (Mir.Tf64, x)
  | Mir.Load p -> (
      match lookup with
      | Some f -> f p
      | None -> raise Nonconst)
  | Mir.Eun (op, a) -> unop op (ev a)
  | Mir.Ebin (Mir.Land, a, b) ->
      vi { Mir.bits = 32; signed = true }
        (if is_truthy (ev a) && is_truthy (ev b) then 1L else 0L)
  | Mir.Ebin (Mir.Lor, a, b) ->
      vi { Mir.bits = 32; signed = true }
        (if is_truthy (ev a) || is_truthy (ev b) then 1L else 0L)
  | Mir.Ebin (op, a, b) -> binop op (ev a) (ev b)
  | Mir.Ecast (cty, a) -> (
      let v = ev a in
      match cty with
      | C_ast.Double_t -> convert Mir.Tf64 v
      | C_ast.Float_t -> convert Mir.Tf32 v
      | C_ast.I8 -> convert Mir.i8 v
      | C_ast.U8 -> convert Mir.u8 v
      | C_ast.I16 -> convert Mir.i16 v
      | C_ast.U16 -> convert Mir.u16 v
      | C_ast.I32 -> convert Mir.i32 v
      | C_ast.U32 -> convert Mir.u32 v
      | C_ast.Named "int64_t" -> convert Mir.i64 v
      | C_ast.Named "uint64_t" -> convert Mir.u64 v
      | C_ast.Named "int" -> convert Mir.i32 v
      | _ -> undef "cast to unmodelled type")
  | Mir.Equantize (k, a) -> quantize k (ev a)
  | Mir.Esat16 a -> sat16 (ev a)
  | Mir.Esat_add32 (a, b) -> sat_add32 (ev a) (ev b)
  | Mir.Emul_shift (a, b, s) -> mul_shift (ev a) (ev b) (ev s)
  | Mir.Ecall _ -> raise Nonconst
  | Mir.Eselect (c, a, b) -> if is_truthy (ev c) then ev a else ev b
  | Mir.Eaddr _ | Mir.Eopaque _ -> raise Nonconst

(* constant evaluation that reports failure instead of raising *)
let const_eval e =
  match eval e with
  | v -> Some v
  | exception (Nonconst | Undefined _) -> None

(* ---- statement interpretation over named scalar cells ----

   Supports the subset the QCheck round-trip generator emits: scalar
   globals and locals addressed as [Pvar]. *)

exception Unsupported of string

type frame = { cells : (string, value ref) Hashtbl.t; fuel : int ref }

let cell frame name =
  match Hashtbl.find_opt frame.cells name with
  | Some r -> r
  | None -> raise (Unsupported ("unbound variable " ^ name))

let rec exec env frame (s : Mir.stmt) : value option =
  let lookup = function
    | Mir.Pvar v -> !(cell frame v)
    | p ->
        raise
          (Unsupported
             ("non-scalar place " ^ Mir_to_c.expr_to_string (Mir.Load p)))
  in
  let ev e = eval ~lookup e in
  decr frame.fuel;
  if !(frame.fuel) <= 0 then raise (Unsupported "fuel exhausted");
  match s with
  | Mir.Sdecl (cty, name, init) ->
      let v =
        match init with
        | Some e -> (
            let v = ev e in
            match Mir_env.vty_of_cty env cty with
            | Mir_env.Scalar ty -> convert ty v
            | _ -> raise (Unsupported "aggregate local"))
        | None -> Vi ({ Mir.bits = 32; signed = true }, 0L)
      in
      Hashtbl.replace frame.cells name (ref v);
      None
  | Mir.Sassign (Mir.Pvar x, e) ->
      let r = cell frame x in
      let ty = match !r with Vi (i, _) -> Mir.Tint i | Vf (t, _) -> t in
      r := convert ty (ev e);
      None
  | Mir.Sassign (p, _) ->
      raise
        (Unsupported
           ("assignment to " ^ Mir_to_c.expr_to_string (Mir.Load p)))
  | Mir.Sexpr e ->
      ignore (ev e);
      None
  | Mir.Sincr (Mir.Pvar x) ->
      let r = cell frame x in
      (r :=
         match !r with
         | Vi (ity, v) -> vi ity (Int64.add v 1L)
         | Vf (t, x) -> Vf (t, x +. 1.0));
      None
  | Mir.Sincr _ -> raise (Unsupported "increment of a non-scalar place")
  | Mir.Sif (c, t, e) ->
      if is_truthy (ev c) then exec_list env frame t else exec_list env frame e
  | Mir.Swhile (c, b) ->
      let rec loop () =
        if is_truthy (ev c) then
          match exec_list env frame b with
          | Some v -> Some v
          | None -> loop ()
        else None
      in
      loop ()
  | Mir.Sfor (i, c, u, b) ->
      ignore (exec env frame i);
      let rec loop () =
        if is_truthy (ev c) then
          match exec_list env frame b with
          | Some v -> Some v
          | None ->
              ignore (exec env frame u);
              loop ()
        else None
      in
      loop ()
  | Mir.Sreturn (Some e) -> Some (ev e)
  | Mir.Sreturn None -> Some (Vi ({ Mir.bits = 32; signed = true }, 0L))
  | Mir.Scomment _ -> None
  | Mir.Sblock b -> exec_list env frame b
  | Mir.Sopaque _ -> raise (Unsupported "opaque statement")

and exec_list env frame = function
  | [] -> None
  | s :: rest -> (
      match exec env frame s with
      | Some v -> Some v
      | None -> exec_list env frame rest)

(* run a body against named global cells; returns their final values *)
let run env ~globals body =
  let frame = { cells = Hashtbl.create 16; fuel = ref 200_000 } in
  List.iter (fun (n, v) -> Hashtbl.replace frame.cells n (ref v)) globals;
  ignore (exec_list env frame body);
  List.map (fun (n, _) -> (n, !(cell frame n))) globals
