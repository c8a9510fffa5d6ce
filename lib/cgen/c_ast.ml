type cty =
  | Void
  | Double_t
  | Float_t
  | I8
  | U8
  | I16
  | U16
  | I32
  | U32
  | Named of string
  | Ptr of cty
  | Arr of cty * int

let cty_of_dtype = function
  | Dtype.Double -> Double_t
  | Dtype.Single -> Float_t
  | Dtype.Int8 -> I8
  | Dtype.Uint8 | Dtype.Bool -> U8
  | Dtype.Int16 -> I16
  | Dtype.Uint16 -> U16
  | Dtype.Int32 -> I32
  | Dtype.Uint32 -> U32
  | Dtype.Fix f as t ->
      let bits = Dtype.bits t in
      if f.Qformat.signed then
        (match bits with 8 -> I8 | 16 -> I16 | _ -> I32)
      else (match bits with 8 -> U8 | 16 -> U16 | _ -> U32)

type expr =
  | Int_lit of int
  | Hex_lit of int
  | Float_lit of float
  | Var of string
  | Field of expr * string
  | Index of expr * expr
  | Call of string * expr list
  | Un of string * expr
  | Bin of string * expr * expr
  | Cast_to of cty * expr
  | Ternary of expr * expr * expr

type stmt =
  | Expr of expr
  | Decl of cty * string * expr option
  | Assign of expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | Return of expr option
  | Comment of string
  | Raw of string
  | Block of stmt list

type func = {
  ret : cty;
  fname : string;
  args : (cty * string) list;
  body : stmt list;
  fcomment : string option;
  static : bool;
}

type item =
  | Include of string
  | Include_local of string
  | Define of string * string
  | Typedef of cty * string
  | Struct_def of string * (cty * string) list
  | Global of { gty : cty; gname : string; ginit : expr option;
                volatile : bool; static : bool }
  | Func_def of func
  | Proto of func
  | Raw_item of string
  | Item_comment of string

type cunit = { unit_name : string; items : item list }

let int_ n = Int_lit n
let flt x = Float_lit x
let var s = Var s
let call f args = Call (f, args)
let ( +! ) a b = Bin ("+", a, b)
let ( -! ) a b = Bin ("-", a, b)
let ( *! ) a b = Bin ("*", a, b)
let ( /! ) a b = Bin ("/", a, b)
let ( >>! ) a n = Bin (">>", a, Int_lit n)
let ( <<! ) a n = Bin ("<<", a, Int_lit n)
let assign lhs rhs = Assign (lhs, rhs)

let func ?(static = false) ?comment ret fname args body =
  { ret; fname; args; body; fcomment = comment; static }
