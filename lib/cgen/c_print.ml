open C_ast

let rec string_of_cty = function
  | Void -> "void"
  | Double_t -> "double"
  | Float_t -> "float"
  | I8 -> "int8_t"
  | U8 -> "uint8_t"
  | I16 -> "int16_t"
  | U16 -> "uint16_t"
  | I32 -> "int32_t"
  | U32 -> "uint32_t"
  | Named s -> s
  | Ptr t -> string_of_cty t ^ " *"
  | Arr (t, _) -> string_of_cty t

let decl_string ty name =
  match ty with
  | Arr (t, n) -> Printf.sprintf "%s %s[%d]" (string_of_cty t) name n
  | Ptr t -> Printf.sprintf "%s *%s" (string_of_cty t) name
  | t -> Printf.sprintf "%s %s" (string_of_cty t) name

let float_lit x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

(* Precedence levels (C11 subset), higher binds tighter. *)
let prec_of_bin = function
  | "*" | "/" | "%" -> 10
  | "+" | "-" -> 9
  | "<<" | ">>" -> 8
  | "<" | ">" | "<=" | ">=" -> 7
  | "==" | "!=" -> 6
  | "&" -> 5
  | "^" -> 4
  | "|" -> 3
  | "&&" -> 2
  | "||" -> 1
  | _ -> 0

let rec expr_prec = function
  | Int_lit _ | Hex_lit _ | Float_lit _ | Var _ -> 100
  | Field _ | Index _ | Call _ -> 90
  | Un _ | Cast_to _ -> 80
  | Bin (op, _, _) -> prec_of_bin op
  | Ternary _ -> 0

and expr_to_string e =
  let paren_if cond s = if cond then "(" ^ s ^ ")" else s in
  let sub parent_prec child =
    paren_if (expr_prec child < parent_prec) (expr_to_string child)
  in
  match e with
  | Int_lit n -> string_of_int n
  | Hex_lit n -> Printf.sprintf "0x%XU" n
  | Float_lit x -> float_lit x
  | Var s -> s
  | Field (e, f) -> Printf.sprintf "%s.%s" (sub 90 e) f
  | Index (e, i) -> Printf.sprintf "%s[%s]" (sub 90 e) (expr_to_string i)
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_string args))
  | Un (op, e) -> Printf.sprintf "%s%s" op (sub 80 e)
  | Cast_to (t, e) -> Printf.sprintf "(%s)%s" (string_of_cty t) (sub 80 e)
  | Bin (op, a, b) ->
      let p = prec_of_bin op in
      (* left associative: right child needs parens at equal precedence *)
      Printf.sprintf "%s %s %s" (sub p a) op
        (paren_if (expr_prec b <= p && expr_prec b < 90) (expr_to_string b))
  | Ternary (c, a, b) ->
      Printf.sprintf "%s ? %s : %s" (sub 1 c) (expr_to_string a) (expr_to_string b)

let rec stmt_lines ind s =
  let pad = String.make (2 * ind) ' ' in
  match s with
  | Expr e -> [ pad ^ expr_to_string e ^ ";" ]
  | Decl (ty, name, init) ->
      let d = decl_string ty name in
      [ (match init with
        | Some e -> Printf.sprintf "%s%s = %s;" pad d (expr_to_string e)
        | None -> pad ^ d ^ ";") ]
  | Assign (lhs, rhs) ->
      [ Printf.sprintf "%s%s = %s;" pad (expr_to_string lhs) (expr_to_string rhs) ]
  | If (c, thens, []) ->
      (pad ^ "if (" ^ expr_to_string c ^ ") {")
      :: List.concat_map (stmt_lines (ind + 1)) thens
      @ [ pad ^ "}" ]
  | If (c, thens, elses) ->
      (pad ^ "if (" ^ expr_to_string c ^ ") {")
      :: List.concat_map (stmt_lines (ind + 1)) thens
      @ [ pad ^ "} else {" ]
      @ List.concat_map (stmt_lines (ind + 1)) elses
      @ [ pad ^ "}" ]
  | While (c, body) ->
      (pad ^ "while (" ^ expr_to_string c ^ ") {")
      :: List.concat_map (stmt_lines (ind + 1)) body
      @ [ pad ^ "}" ]
  | For (init, cond, step, body) ->
      let strip_semi l =
        match l with
        | [ s ] when String.length s > 0 && s.[String.length s - 1] = ';' ->
            String.sub s 0 (String.length s - 1)
        | _ -> String.concat " " l
      in
      let i = strip_semi (stmt_lines 0 init) in
      let st = strip_semi (stmt_lines 0 step) in
      (Printf.sprintf "%sfor (%s; %s; %s) {" pad i (expr_to_string cond) st)
      :: List.concat_map (stmt_lines (ind + 1)) body
      @ [ pad ^ "}" ]
  | Return None -> [ pad ^ "return;" ]
  | Return (Some e) -> [ pad ^ "return " ^ expr_to_string e ^ ";" ]
  | Comment c -> [ pad ^ "/* " ^ c ^ " */" ]
  | Raw s -> List.map (fun l -> pad ^ l) (String.split_on_char '\n' s)
  | Block body ->
      (pad ^ "{")
      :: List.concat_map (stmt_lines (ind + 1)) body
      @ [ pad ^ "}" ]

let print_stmts ?(indent = 0) stmts =
  String.concat "\n" (List.concat_map (stmt_lines indent) stmts)

let func_sig f =
  let args =
    match f.args with
    | [] -> "void"
    | args -> String.concat ", " (List.map (fun (t, n) -> decl_string t n) args)
  in
  Printf.sprintf "%s%s %s(%s)"
    (if f.static then "static " else "")
    (string_of_cty f.ret) f.fname args

let item_lines = function
  | Include h -> [ Printf.sprintf "#include <%s>" h ]
  | Include_local h -> [ Printf.sprintf "#include \"%s\"" h ]
  | Define (k, v) -> [ Printf.sprintf "#define %s %s" k v ]
  | Typedef (t, n) -> [ Printf.sprintf "typedef %s;" (decl_string t n) ]
  | Struct_def (name, fields) ->
      (Printf.sprintf "typedef struct {")
      :: List.map (fun (t, n) -> "  " ^ decl_string t n ^ ";") fields
      @ [ Printf.sprintf "} %s;" name ]
  | Global { gty; gname; ginit; volatile; static } ->
      let quals =
        (if static then "static " else "") ^ if volatile then "volatile " else ""
      in
      [ (match ginit with
        | Some e ->
            Printf.sprintf "%s%s = %s;" quals (decl_string gty gname)
              (expr_to_string e)
        | None -> Printf.sprintf "%s%s;" quals (decl_string gty gname)) ]
  | Proto f -> [ func_sig f ^ ";" ]
  | Raw_item s -> String.split_on_char '\n' s
  | Func_def f ->
      (match f.fcomment with
      | Some c -> [ "/* " ^ c ^ " */" ]
      | None -> [])
      @ [ func_sig f ^ " {" ]
      @ List.concat_map (stmt_lines 1) f.body
      @ [ "}" ]
  | Item_comment c -> [ "/* " ^ c ^ " */" ]

let print_unit u =
  let header =
    [
      Printf.sprintf "/* File: %s" u.unit_name;
      " * Generated by the ECSD integrated environment (PEERT target).";
      " * Model-derived code -- do not edit by hand. */";
      "";
    ]
  in
  let body = List.concat_map (fun i -> item_lines i @ [ "" ]) u.items in
  String.concat "\n" (header @ body)

let loc s =
  List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))
