(* Typed mid-level IR between the block diagram and the C AST.

   Blockgen's per-block C fragments are lifted into this IR, analysed
   and optionally optimised, printed back out through the C emitter,
   and compiled to closures for SIL ({!Silvm_compile} consumes MIR
   only). The design rule (after Blaze's PIL) is one explicitly
   widthed op per constructor: saturation, wrap and quantisation are
   first-class nodes instead of pattern-matched helper calls, so the
   range analysis, the def-use rules, the sat-op prover, the optimiser
   and the closure compiler all share one semantics.

   The second design rule is exact round-tripping: [Mir_to_c.lower] is
   the inverse of [Mir_of_c.lift]. Every construct the code generators
   emit lifts to a typed node, including [&x] out-parameters
   ([Eaddr]); anything else (hand-written C) is carried through
   verbatim as an opaque node, which the closure compiler rejects when
   it runs. Lifting then lowering a generated translation unit
   therefore reproduces it structurally unchanged, which keeps golden
   SIL traces and MISRA findings stable when the MIR pipeline is
   inserted into the codegen path. *)

type ity = { bits : int; signed : bool }

type ty =
  | Tint of ity
  | Tf32
  | Tf64
  | Tnamed of string  (** opaque scalar typedef (AUTOSAR driver types) *)
  | Tunknown

let i8 = Tint { bits = 8; signed = true }
let u8 = Tint { bits = 8; signed = false }
let i16 = Tint { bits = 16; signed = true }
let u16 = Tint { bits = 16; signed = false }
let i32 = Tint { bits = 32; signed = true }
let u32 = Tint { bits = 32; signed = false }
let i64 = Tint { bits = 64; signed = true }
let u64 = Tint { bits = 64; signed = false }

(* literal spelling, preserved for exact lowering *)
type style = Dec | Hex

type uop = Neg | Lnot

type bop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Band | Bor | Bxor
  | Eq | Ne | Lt | Gt | Le | Ge
  | Land | Lor

(* quantisation targets of the generated pe_cast_* helpers: round half
   away from zero, saturate at the dtype range, NaN -> 0 *)
type qkind = Qb | Qi8 | Qu8 | Qi16 | Qu16 | Qi32 | Qu32

type place =
  | Pvar of string
  | Pfield of place * string
  | Pindex of place * expr

and expr =
  | Kint of int * style  (** C int literal (Hex spelling is unsigned) *)
  | Kfloat of float  (** C double literal *)
  | Load of place
  | Eun of uop * expr
  | Ebin of bop * expr * expr
  | Ecast of C_ast.cty * expr  (** plain C cast: truncate / wrap *)
  | Equantize of qkind * expr  (** pe_cast_<k>: round + saturate *)
  | Esat16 of expr  (** pe_sat16: clamp an int32 into int16 range *)
  | Esat_add32 of expr * expr  (** pe_sat_add32: saturating add *)
  | Emul_shift of expr * expr * expr  (** pe_mul_shift: (a*b+2^(s-1))>>s *)
  | Ecall of string * expr list  (** external / opaque call *)
  | Eselect of expr * expr * expr  (** ternary *)
  | Eaddr of place  (** [&p]: an out-parameter; the place escapes *)
  | Eopaque of C_ast.expr  (** unliftable fragment, lowered verbatim *)

type stmt =
  | Sdecl of C_ast.cty * string * expr option
  | Sassign of place * expr
  | Sexpr of expr
  | Sincr of place  (** prefix ++ *)
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt * expr * stmt * stmt list
  | Sreturn of expr option
  | Scomment of string
  | Sblock of stmt list
  | Sopaque of C_ast.stmt  (** unliftable statement, lowered verbatim *)

let qkind_name = function
  | Qb -> "pe_cast_b"
  | Qi8 -> "pe_cast_i8"
  | Qu8 -> "pe_cast_u8"
  | Qi16 -> "pe_cast_i16"
  | Qu16 -> "pe_cast_u16"
  | Qi32 -> "pe_cast_i32"
  | Qu32 -> "pe_cast_u32"

let qkind_of_name = function
  | "pe_cast_b" -> Some Qb
  | "pe_cast_i8" -> Some Qi8
  | "pe_cast_u8" -> Some Qu8
  | "pe_cast_i16" -> Some Qi16
  | "pe_cast_u16" -> Some Qu16
  | "pe_cast_i32" -> Some Qi32
  | "pe_cast_u32" -> Some Qu32
  | _ -> None

(* result type of each quantiser (pe_cast_b returns uint8_t) *)
let qkind_ty = function
  | Qb -> u8
  | Qi8 -> i8
  | Qu8 -> u8
  | Qi16 -> i16
  | Qu16 -> u16
  | Qi32 -> i32
  | Qu32 -> u32

(* saturation bounds of a quantiser, as exact doubles (the helper
   compares against these literals) *)
let qkind_bounds = function
  | Qb -> (0.0, 1.0)
  | Qi8 -> (-128.0, 127.0)
  | Qu8 -> (0.0, 255.0)
  | Qi16 -> (-32768.0, 32767.0)
  | Qu16 -> (0.0, 65535.0)
  | Qi32 -> (-2147483648.0, 2147483647.0)
  | Qu32 -> (0.0, 4294967295.0)

let uop_name = function Neg -> "-" | Lnot -> "!"

let bop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"

let bop_of_name = function
  | "+" -> Some Add | "-" -> Some Sub | "*" -> Some Mul | "/" -> Some Div
  | "%" -> Some Mod | "<<" -> Some Shl | ">>" -> Some Shr
  | "&" -> Some Band | "|" -> Some Bor | "^" -> Some Bxor
  | "==" -> Some Eq | "!=" -> Some Ne | "<" -> Some Lt | ">" -> Some Gt
  | "<=" -> Some Le | ">=" -> Some Ge | "&&" -> Some Land | "||" -> Some Lor
  | _ -> None

let is_comparison = function
  | Eq | Ne | Lt | Gt | Le | Ge -> true
  | _ -> false

let is_logical = function Land | Lor -> true | _ -> false

(* ---- traversal helpers ---- *)

let rec iter_expr f e =
  f e;
  match e with
  | Kint _ | Kfloat _ | Eopaque _ -> ()
  | Load p | Eaddr p -> iter_place f p
  | Eun (_, a) | Ecast (_, a) | Equantize (_, a) | Esat16 a -> iter_expr f a
  | Ebin (_, a, b) | Esat_add32 (a, b) ->
      iter_expr f a;
      iter_expr f b
  | Emul_shift (a, b, c) | Eselect (a, b, c) ->
      iter_expr f a;
      iter_expr f b;
      iter_expr f c
  | Ecall (_, args) -> List.iter (iter_expr f) args

and iter_place f = function
  | Pvar _ -> ()
  | Pfield (p, _) -> iter_place f p
  | Pindex (p, i) ->
      iter_place f p;
      iter_expr f i

let rec iter_stmt ~expr ~stmt s =
  stmt s;
  match s with
  | Sdecl (_, _, Some e) | Sexpr e -> iter_expr expr e
  | Sdecl (_, _, None) | Scomment _ | Sreturn None | Sopaque _ -> ()
  | Sassign (p, e) ->
      iter_place expr p;
      iter_expr expr e
  | Sincr p -> iter_place expr p
  | Sreturn (Some e) -> iter_expr expr e
  | Sif (c, t, e) ->
      iter_expr expr c;
      List.iter (iter_stmt ~expr ~stmt) t;
      List.iter (iter_stmt ~expr ~stmt) e
  | Swhile (c, b) ->
      iter_expr expr c;
      List.iter (iter_stmt ~expr ~stmt) b
  | Sfor (i, c, u, b) ->
      iter_stmt ~expr ~stmt i;
      iter_expr expr c;
      iter_stmt ~expr ~stmt u;
      List.iter (iter_stmt ~expr ~stmt) b
  | Sblock b -> List.iter (iter_stmt ~expr ~stmt) b

(* root variable of a place *)
let rec place_root = function
  | Pvar v -> v
  | Pfield (p, _) | Pindex (p, _) -> place_root p

(* canonical dotted path of a place, [None] when it indexes an array
   with a non-constant subscript *)
let rec place_path = function
  | Pvar v -> Some v
  | Pfield (p, f) -> Option.map (fun s -> s ^ "." ^ f) (place_path p)
  | Pindex (p, Kint (n, _)) ->
      Option.map (fun s -> Printf.sprintf "%s[%d]" s n) (place_path p)
  | Pindex _ -> None

(* variables whose address is taken inside an opaque C fragment: the
   callee may initialise or overwrite them behind the IR's back *)
let addressed_vars_of_c e =
  let acc = ref [] in
  let rec go = function
    | C_ast.Un ("&", C_ast.Var v) -> acc := v :: !acc
    | C_ast.Un ("&", e) | C_ast.Un (_, e) | C_ast.Cast_to (_, e)
    | C_ast.Field (e, _) ->
        go e
    | C_ast.Bin (_, a, b) | C_ast.Index (a, b) ->
        go a;
        go b
    | C_ast.Ternary (a, b, c) ->
        go a;
        go b;
        go c
    | C_ast.Call (_, args) -> List.iter go args
    | C_ast.Int_lit _ | C_ast.Hex_lit _ | C_ast.Float_lit _ | C_ast.Var _ -> ()
  in
  go e;
  !acc

(* every plain variable mentioned in an opaque C fragment *)
let vars_of_c e =
  let acc = ref [] in
  let rec go = function
    | C_ast.Var v -> acc := v :: !acc
    | C_ast.Un (_, e) | C_ast.Cast_to (_, e) | C_ast.Field (e, _) -> go e
    | C_ast.Bin (_, a, b) | C_ast.Index (a, b) ->
        go a;
        go b
    | C_ast.Ternary (a, b, c) ->
        go a;
        go b;
        go c
    | C_ast.Call (_, args) -> List.iter go args
    | C_ast.Int_lit _ | C_ast.Hex_lit _ | C_ast.Float_lit _ -> ()
  in
  go e;
  !acc
