(** Fixed-point values and arithmetic.

    A value couples a raw integer with its {!Qformat.t}. All arithmetic is
    performed on raw integers exactly as a fixed-point C implementation on a
    16/32-bit MCU would, so that the simulated controller and the generated
    code agree bit-for-bit. Out-of-range results are handled according to an
    {!overflow} policy (the paper's case study uses saturation, the DSP
    hardware default). *)

type overflow = Saturate | Wrap

type rounding =
  | Floor
  | Nearest  (** half away from zero *)
  | Half_up  (** half toward +infinity: the add-half-then-shift idiom *)
  | Zero

type t = private { raw : int; fmt : Qformat.t }

exception Overflow of string
(** Raised by operations under a [~check:true] policy used in tests. *)

val create : Qformat.t -> int -> t
(** [create fmt raw] wraps a raw value already known to be in range.
    @raise Invalid_argument if [raw] is out of range for [fmt]. *)

val of_float : ?round:rounding -> ?ovf:overflow -> Qformat.t -> float -> t
(** Quantise a real number into the format. Default rounding [Nearest],
    default overflow [Saturate]. *)

val to_float : t -> float
(** Exact real value of the fixed-point number. *)

val raw : t -> int
val fmt : t -> Qformat.t

val zero : Qformat.t -> t
val one : Qformat.t -> t
(** The representation of 1.0, saturated if 1.0 is not representable
    (e.g. Q15 yields 0.999969...). *)

val add : ?ovf:overflow -> t -> t -> t
(** Same-format addition. @raise Invalid_argument on format mismatch. *)

val sub : ?ovf:overflow -> t -> t -> t

val neg : ?ovf:overflow -> t -> t

val mul : ?ovf:overflow -> ?round:rounding -> t -> t -> t
(** Full-precision multiply then renormalise to the left operand's format,
    as a single-instruction fractional multiply does on a DSP. *)

val mul_to : Qformat.t -> ?ovf:overflow -> ?round:rounding -> t -> t -> t
(** Multiply with an explicit result format (e.g. Q15*Q15 -> Q31 MAC). *)

val div : ?ovf:overflow -> ?round:rounding -> t -> t -> t
(** Fractional division, result in the left operand's format. *)

val scale_by_int : ?ovf:overflow -> t -> int -> t
(** Multiply by a plain integer. *)

val shift : ?ovf:overflow -> t -> int -> t
(** Arithmetic shift of the raw value: positive is left (towards larger
    magnitude). *)

val convert : ?ovf:overflow -> ?round:rounding -> Qformat.t -> t -> t
(** Re-quantise into another format. *)

val compare : t -> t -> int
(** Compare by real value (formats may differ). *)

val equal : t -> t -> bool
val abs : ?ovf:overflow -> t -> t
val min : t -> t -> t
val max : t -> t -> t
val is_saturated : t -> bool
(** Whether the value sits at either end of its representable range. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
