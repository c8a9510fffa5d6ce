(* An interpreter for the ecsd_cgen C AST.

   Executes the translation set of a generated application (model
   header + model source) directly on the AST: no C compiler is
   involved, so the "software in the loop" stage runs anywhere the
   environment runs, yet with the C arithmetic reproduced faithfully by
   {!Silvm_value}. The subset covered is exactly what the PEERT targets
   emit -- scalar/struct/array storage, functions, control flow, the
   libm calls of the block library -- and anything outside it raises
   {!Unsupported} rather than guessing. *)

open C_ast

exception Unsupported of string
exception Runtime_error of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* storage cells: every object of the translation set lives in one *)
type cell =
  | Cint of Silvm_value.ity * int64 ref
  | Cfloat of [ `F32 | `F64 ] * float ref
  | Carr of cell array
  | Cstruct of (string * cell) array

type t = {
  typedefs : (string, cty) Hashtbl.t;
  structs : (string, (cty * string) list) Hashtbl.t;
  globals : (string, cell) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  macros : (string, Silvm_value.t) Hashtbl.t;
  externals : (string, Silvm_value.t list -> Silvm_value.t) Hashtbl.t;
  mutable fuel : int;
  mutable stmts_executed : int;
}

let loop_fuel_budget = 100_000_000

(* the stdint names appear as [Named] types (e.g. the int64_t
   accumulator of pe_sat_add32) *)
let stdint_ity = function
  | "int8_t" -> Some { Silvm_value.bits = 8; signed = true }
  | "uint8_t" | "bool_t" -> Some { Silvm_value.bits = 8; signed = false }
  | "int16_t" -> Some { Silvm_value.bits = 16; signed = true }
  | "uint16_t" -> Some { Silvm_value.bits = 16; signed = false }
  | "int32_t" -> Some { Silvm_value.bits = 32; signed = true }
  | "uint32_t" -> Some { Silvm_value.bits = 32; signed = false }
  | "int64_t" -> Some { Silvm_value.bits = 64; signed = true }
  | "uint64_t" -> Some { Silvm_value.bits = 64; signed = false }
  | _ -> None

let ity_of_base = function
  | I8 -> Some { Silvm_value.bits = 8; signed = true }
  | U8 -> Some { Silvm_value.bits = 8; signed = false }
  | I16 -> Some { Silvm_value.bits = 16; signed = true }
  | U16 -> Some { Silvm_value.bits = 16; signed = false }
  | I32 -> Some { Silvm_value.bits = 32; signed = true }
  | U32 -> Some { Silvm_value.bits = 32; signed = false }
  | _ -> None

let create () =
  let t =
    {
      typedefs = Hashtbl.create 16;
      structs = Hashtbl.create 16;
      globals = Hashtbl.create 64;
      funcs = Hashtbl.create 32;
      macros = Hashtbl.create 16;
      externals = Hashtbl.create 8;
      fuel = loop_fuel_budget;
      stmts_executed = 0;
    }
  in
  (* limits.h / stdint.h constants the generated helpers reference *)
  let ic ity v = Silvm_value.VI (ity, v) in
  let i32 = Silvm_value.i32ty and u32 = Silvm_value.u32ty in
  List.iter
    (fun (n, v) -> Hashtbl.replace t.macros n v)
    [
      ("INT8_MAX", ic i32 127L);
      ("INT8_MIN", ic i32 (-128L));
      ("INT16_MAX", ic i32 32767L);
      ("INT16_MIN", ic i32 (-32768L));
      ("INT32_MAX", ic i32 2147483647L);
      ("INT32_MIN", ic i32 (-2147483648L));
      ("UINT8_MAX", ic i32 255L);
      ("UINT16_MAX", ic i32 65535L);
      ("UINT32_MAX", ic u32 4294967295L);
    ];
  t

let rec new_cell t ty =
  match ty with
  | Double_t -> Cfloat (`F64, ref 0.0)
  | Float_t -> Cfloat (`F32, ref 0.0)
  | I8 | U8 | I16 | U16 | I32 | U32 ->
      Cint (Option.get (ity_of_base ty), ref 0L)
  | Named n -> (
      match stdint_ity n with
      | Some ity -> Cint (ity, ref 0L)
      | None -> (
          match Hashtbl.find_opt t.structs n with
          | Some fields ->
              Cstruct
                (Array.of_list
                   (List.map (fun (fty, fn) -> (fn, new_cell t fty)) fields))
          | None -> (
              match Hashtbl.find_opt t.typedefs n with
              | Some under -> new_cell t under
              | None -> unsupported "unknown type name %s" n)))
  | Arr (ety, n) -> Carr (Array.init n (fun _ -> new_cell t ety))
  | Ptr _ -> unsupported "pointer object"
  | Void -> unsupported "void object"

(* round through IEEE binary32, the C float type *)
let to_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let read_cell = function
  | Cint (ity, r) -> Silvm_value.VI (ity, !r)
  | Cfloat (_, r) -> Silvm_value.VF !r
  | Carr _ | Cstruct _ -> unsupported "aggregate read as a value"

let write_cell c v =
  match c with
  | Cint (ity, r) -> (
      match v with
      | Silvm_value.VI (_, x) -> r := Silvm_value.normalize ity x
      | Silvm_value.VF x -> (
          match Silvm_value.of_float_trunc ity x with
          | Silvm_value.VI (_, y) -> r := y
          | _ -> assert false))
  | Cfloat (w, r) -> (
      let x = Silvm_value.to_float v in
      r := match w with `F64 -> x | `F32 -> to_f32 x)
  | Carr _ | Cstruct _ -> unsupported "aggregate assignment"

let rec cast_value t ty v =
  match ty with
  | Double_t -> Silvm_value.VF (Silvm_value.to_float v)
  | Float_t -> Silvm_value.VF (to_f32 (Silvm_value.to_float v))
  | I8 | U8 | I16 | U16 | I32 | U32 -> (
      let ity = Option.get (ity_of_base ty) in
      match v with
      | Silvm_value.VI (_, x) -> Silvm_value.of_int64 ity x
      | Silvm_value.VF x -> Silvm_value.of_float_trunc ity x)
  | Named n -> (
      match stdint_ity n with
      | Some ity -> (
          match v with
          | Silvm_value.VI (_, x) -> Silvm_value.of_int64 ity x
          | Silvm_value.VF x -> Silvm_value.of_float_trunc ity x)
      | None -> (
          match Hashtbl.find_opt t.typedefs n with
          | Some under -> cast_value t under v
          | None -> unsupported "cast to unknown type %s" n))
  | Void -> v (* (void)e discards the value *)
  | Ptr _ | Arr _ -> unsupported "cast to pointer/array type"

let add_unit t (u : cunit) =
  List.iter
    (fun item ->
      match item with
      | Include _ | Include_local _ | Item_comment _ | Proto _ | Raw_item _ ->
          ()
      | Define (n, body) -> (
          match int_of_string_opt body with
          | Some v -> Hashtbl.replace t.macros n (Silvm_value.of_int Silvm_value.i32ty v)
          | None -> (
              match float_of_string_opt body with
              | Some x -> Hashtbl.replace t.macros n (Silvm_value.VF x)
              | None -> () (* function-like or non-constant macro *)))
      | Typedef (ty, n) -> Hashtbl.replace t.typedefs n ty
      | Struct_def (n, fields) -> Hashtbl.replace t.structs n fields
      | Global { gty; gname; ginit; _ } ->
          let c = new_cell t gty in
          (match ginit with
          | Some (Int_lit v) -> write_cell c (Silvm_value.of_int Silvm_value.i32ty v)
          | Some (Hex_lit v) -> write_cell c (Silvm_value.of_int Silvm_value.i32ty v)
          | Some (Float_lit x) -> write_cell c (Silvm_value.VF x)
          | Some (Un ("-", Int_lit v)) ->
              write_cell c (Silvm_value.of_int Silvm_value.i32ty (-v))
          | Some (Un ("-", Float_lit x)) -> write_cell c (Silvm_value.VF (-.x))
          | Some _ -> unsupported "non-literal initialiser for global %s" gname
          | None -> ());
          Hashtbl.replace t.globals gname c
      | Func_def f -> Hashtbl.replace t.funcs f.fname f)
    u.items

let register_external t name f = Hashtbl.replace t.externals name f
let has_func t name = Hashtbl.mem t.funcs name
let stmts_executed t = t.stmts_executed

(* libm subset the block library emits calls to *)
let libm1 = function
  | "sin" -> Some sin
  | "cos" -> Some cos
  | "tan" -> Some tan
  | "asin" -> Some asin
  | "acos" -> Some acos
  | "atan" -> Some atan
  | "exp" -> Some exp
  | "log" -> Some log
  | "log10" -> Some log10
  | "sqrt" -> Some sqrt
  | "fabs" -> Some Float.abs
  | "floor" -> Some Float.floor
  | "ceil" -> Some Float.ceil
  | "round" -> Some Float.round
  | "trunc" -> Some Float.trunc
  | _ -> None

let libm2 = function
  | "fmod" -> Some Float.rem
  | "pow" -> Some Float.pow
  | "atan2" -> Some Float.atan2
  | "fmin" -> Some Float.min
  | "fmax" -> Some Float.max
  | _ -> None

exception Return_value of Silvm_value.t option

let rec resolve_cell t frame e =
  match e with
  | Var n -> (
      match Hashtbl.find_opt frame n with
      | Some c -> c
      | None -> (
          match Hashtbl.find_opt t.globals n with
          | Some c -> c
          | None -> fail "unbound identifier %s" n))
  | Field (b, f) -> (
      match resolve_cell t frame b with
      | Cstruct fields -> (
          let n = Array.length fields in
          let rec find i =
            if i >= n then fail "no field %s" f
            else
              let fn, c = fields.(i) in
              if String.equal fn f then c else find (i + 1)
          in
          find 0)
      | _ -> fail "field access %s on a non-struct" f)
  | Index (b, i) -> (
      let idx = Silvm_value.to_int (eval t frame i) in
      match resolve_cell t frame b with
      | Carr cells ->
          if idx < 0 || idx >= Array.length cells then
            fail "index %d out of bounds (%d)" idx (Array.length cells);
          cells.(idx)
      | _ -> fail "index into a non-array")
  | _ -> unsupported "expression is not an lvalue"

and eval t frame e =
  match e with
  | Int_lit v -> Silvm_value.of_int Silvm_value.i32ty v
  | Hex_lit v ->
      if v <= 0x7FFFFFFF then Silvm_value.of_int Silvm_value.i32ty v
      else Silvm_value.of_int Silvm_value.u32ty v
  | Float_lit x -> Silvm_value.VF x
  | Var n -> (
      match Hashtbl.find_opt frame n with
      | Some c -> read_cell c
      | None -> (
          match Hashtbl.find_opt t.globals n with
          | Some c -> read_cell c
          | None -> (
              match Hashtbl.find_opt t.macros n with
              | Some v -> v
              | None -> fail "unbound identifier %s" n)))
  | Field _ | Index _ -> read_cell (resolve_cell t frame e)
  | Call (fname, args) -> (
      match call_opt t fname (List.map (eval t frame) args) with
      | Some v -> v
      | None -> Silvm_value.vbool false (* void call in expression context *))
  | Un (("++" | "--") as op, lv) ->
      let c = resolve_cell t frame lv in
      let one = Silvm_value.of_int Silvm_value.i32ty 1 in
      let v' =
        Silvm_value.binop (if op = "++" then "+" else "-") (read_cell c) one
      in
      write_cell c v';
      read_cell c
  | Un (op, a) -> Silvm_value.unop op (eval t frame a)
  | Bin ("&&", a, b) ->
      Silvm_value.vbool
        (Silvm_value.truth (eval t frame a) && Silvm_value.truth (eval t frame b))
  | Bin ("||", a, b) ->
      Silvm_value.vbool
        (Silvm_value.truth (eval t frame a) || Silvm_value.truth (eval t frame b))
  | Bin (op, a, b) -> Silvm_value.binop op (eval t frame a) (eval t frame b)
  | Cast_to (ty, a) -> cast_value t ty (eval t frame a)
  | Ternary (c, a, b) ->
      if Silvm_value.truth (eval t frame c) then eval t frame a
      else eval t frame b

and exec t frame s =
  t.stmts_executed <- t.stmts_executed + 1;
  match s with
  | Comment _ -> ()
  | Expr e -> ignore (eval t frame e)
  | Decl (ty, n, init) ->
      let c = new_cell t ty in
      (match init with Some e -> write_cell c (eval t frame e) | None -> ());
      Hashtbl.replace frame n c
  | Assign (lv, e) -> write_cell (resolve_cell t frame lv) (eval t frame e)
  | If (c, a, b) ->
      if Silvm_value.truth (eval t frame c) then exec_list t frame a
      else exec_list t frame b
  | While (c, body) ->
      while Silvm_value.truth (eval t frame c) do
        burn_fuel t;
        exec_list t frame body
      done
  | For (init, cond, post, body) ->
      exec t frame init;
      while Silvm_value.truth (eval t frame cond) do
        burn_fuel t;
        exec_list t frame body;
        exec t frame post
      done
  | Return e -> raise (Return_value (Option.map (eval t frame) e))
  | Block body -> exec_list t frame body
  | Raw s -> unsupported "raw statement: %s" s

and exec_list t frame l = List.iter (exec t frame) l

and burn_fuel t =
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then fail "loop fuel exhausted (runaway loop?)"

and call_opt t fname args =
  match Hashtbl.find_opt t.funcs fname with
  | Some f ->
      if List.length args <> List.length f.args then
        fail "%s: %d arguments, %d expected" fname (List.length args)
          (List.length f.args);
      let frame = Hashtbl.create 16 in
      List.iter2
        (fun (ty, n) v ->
          let c = new_cell t ty in
          write_cell c v;
          Hashtbl.replace frame n c)
        f.args args;
      let result =
        match exec_list t frame f.body with
        | () -> None
        | exception Return_value v -> v
      in
      (match (f.ret, result) with
      | Void, _ -> None
      | ty, Some v -> Some (cast_value t ty v)
      | _, None -> fail "%s: fell off a non-void function" fname)
  | None -> (
      match Hashtbl.find_opt t.externals fname with
      | Some f -> Some (f args)
      | None -> (
          match (libm1 fname, libm2 fname, args) with
          | Some f, _, [ x ] -> Some (Silvm_value.VF (f (Silvm_value.to_float x)))
          | _, Some f, [ x; y ] ->
              Some
                (Silvm_value.VF
                   (f (Silvm_value.to_float x) (Silvm_value.to_float y)))
          | _ ->
              (* lround: the only libm call returning an integer *)
              if String.equal fname "lround" then
                match args with
                | [ x ] ->
                    Some
                      (Silvm_value.of_int64 Silvm_value.i32ty
                         (Int64.of_float (Float.round (Silvm_value.to_float x))))
                | _ -> fail "lround arity"
              else unsupported "call to unknown function %s" fname))

let call t fname args =
  t.fuel <- loop_fuel_budget;
  call_opt t fname args

let read t e = eval t (Hashtbl.create 1) e
let write t e v = write_cell (resolve_cell t (Hashtbl.create 1) e) v
