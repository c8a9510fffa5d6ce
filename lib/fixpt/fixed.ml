type overflow = Saturate | Wrap
type rounding = Floor | Nearest | Half_up | Zero
type t = { raw : int; fmt : Qformat.t }

exception Overflow of string

let in_range fmt raw = raw >= Qformat.min_raw fmt && raw <= Qformat.max_raw fmt

let create fmt raw =
  if not (in_range fmt raw) then
    invalid_arg
      (Printf.sprintf "Fixed.create: raw %d out of range for %s" raw
         (Qformat.to_string fmt));
  { raw; fmt }

(* Reduce an arbitrary integer into the format's range according to the
   overflow policy. Wrapping reproduces two's-complement truncation. *)
let fit ovf fmt raw =
  if in_range fmt raw then { raw; fmt }
  else
    match ovf with
    | Saturate ->
        if raw > Qformat.max_raw fmt then { raw = Qformat.max_raw fmt; fmt }
        else { raw = Qformat.min_raw fmt; fmt }
    | Wrap ->
        let w = fmt.Qformat.word_bits in
        let mask = (1 lsl w) - 1 in
        let low = raw land mask in
        let raw' =
          if fmt.Qformat.signed && low land (1 lsl (w - 1)) <> 0 then
            low - (1 lsl w)
          else low
        in
        { raw = raw'; fmt }

let raw t = t.raw
let fmt t = t.fmt
let to_float t = float_of_int t.raw *. Qformat.resolution t.fmt

let rec round_div round num den =
  (* Divide [num] by positive [den] with the requested rounding. *)
  match round with
  | Floor ->
      (* OCaml division truncates toward zero; emulate floor. *)
      if num >= 0 then num / den
      else
        let q = num / den in
        if q * den = num then q else q - 1
  | Half_up -> round_div Floor (num + (den / 2)) den
  | Zero -> num / den
  | Nearest ->
      if num >= 0 then (num + (den / 2)) / den
      else -((-num + (den / 2)) / den)

let of_float ?(round = Nearest) ?(ovf = Saturate) fmt x =
  let scaled = ldexp x fmt.Qformat.frac_bits in
  let r =
    match round with
    | Nearest -> Float.round scaled
    | Half_up -> Float.floor (scaled +. 0.5)
    | Floor -> Float.floor scaled
    | Zero -> Float.trunc scaled
  in
  if Float.is_nan r then invalid_arg "Fixed.of_float: nan";
  (* Clamp before int conversion to avoid undefined behaviour on huge
     floats. *)
  let hi = float_of_int (Qformat.max_raw fmt) and lo = float_of_int (Qformat.min_raw fmt) in
  if r > hi then fit ovf fmt (Qformat.max_raw fmt + if ovf = Wrap then 1 else 0)
  else if r < lo then fit ovf fmt (Qformat.min_raw fmt - if ovf = Wrap then 1 else 0)
  else fit ovf fmt (int_of_float r)

let zero fmt = { raw = 0; fmt }
let one fmt = of_float fmt 1.0

let check_same_fmt op a b =
  if not (Qformat.equal a.fmt b.fmt) then
    invalid_arg
      (Printf.sprintf "Fixed.%s: format mismatch (%s vs %s)" op
         (Qformat.to_string a.fmt) (Qformat.to_string b.fmt))

let add ?(ovf = Saturate) a b =
  check_same_fmt "add" a b;
  fit ovf a.fmt (a.raw + b.raw)

let sub ?(ovf = Saturate) a b =
  check_same_fmt "sub" a b;
  fit ovf a.fmt (a.raw - b.raw)

let neg ?(ovf = Saturate) a = fit ovf a.fmt (-a.raw)

let mul_to rfmt ?(ovf = Saturate) ?(round = Nearest) a b =
  (* Full product has frac bits fa + fb; renormalise to rfmt's frac bits. *)
  let prod = a.raw * b.raw in
  let shift_amt =
    a.fmt.Qformat.frac_bits + b.fmt.Qformat.frac_bits - rfmt.Qformat.frac_bits
  in
  let adjusted =
    if shift_amt > 0 then round_div round prod (1 lsl shift_amt)
    else prod lsl -shift_amt
  in
  fit ovf rfmt adjusted

let mul ?(ovf = Saturate) ?(round = Nearest) a b =
  mul_to a.fmt ~ovf ~round a b

let div ?(ovf = Saturate) ?(round = Nearest) a b =
  if b.raw = 0 then raise (Overflow "Fixed.div: division by zero");
  (* a/b in a's format: (a.raw << fb) / b.raw keeps fa frac bits. *)
  let num = a.raw lsl b.fmt.Qformat.frac_bits in
  let q =
    if b.raw > 0 then round_div round num b.raw
    else -(round_div round num (-b.raw))
  in
  fit ovf a.fmt q

let scale_by_int ?(ovf = Saturate) a k = fit ovf a.fmt (a.raw * k)

let shift ?(ovf = Saturate) a n =
  if n >= 0 then fit ovf a.fmt (a.raw lsl n) else fit ovf a.fmt (a.raw asr -n)

let convert ?(ovf = Saturate) ?(round = Nearest) rfmt a =
  let d = a.fmt.Qformat.frac_bits - rfmt.Qformat.frac_bits in
  let raw' =
    if d > 0 then round_div round a.raw (1 lsl d) else a.raw lsl -d
  in
  fit ovf rfmt raw'

let compare a b = Float.compare (to_float a) (to_float b)
let equal a b = compare a b = 0
let abs ?(ovf = Saturate) a = if a.raw < 0 then neg ~ovf a else a
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_saturated t =
  t.raw = Qformat.max_raw t.fmt || t.raw = Qformat.min_raw t.fmt

let to_string t =
  Printf.sprintf "%g[%s]" (to_float t) (Qformat.to_string t.fmt)

let pp ppf t = Format.pp_print_string ppf (to_string t)
