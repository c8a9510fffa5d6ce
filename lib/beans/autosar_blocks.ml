(* Functionally identical to the PE block set: same behaviours, new kinds
   so the code generator picks the MCAL driver API. *)

let twins =
  [
    ("AR_TimerInt", "PE_TimerInt");
    ("AR_Adc", "PE_Adc");
    ("AR_Pwm", "PE_Pwm");
    ("AR_Dio_Out", "PE_BitIO_Out");
    ("AR_Dio_In", "PE_BitIO_In");
    ("AR_Icu", "PE_QuadDec");
  ]

let rekind spec =
  let ar, _ = List.find (fun (_, pe) -> pe = spec.Block.kind) twins in
  { spec with Block.kind = ar }

let timer_int bean = rekind (Periph_blocks.timer_int bean)
let adc bean = rekind (Periph_blocks.adc bean)
let pwm bean = rekind (Periph_blocks.pwm bean)
let dio_out bean = rekind (Periph_blocks.bit_io_out bean)
let dio_in bean = rekind (Periph_blocks.bit_io_in bean)
let icu_position bean = rekind (Periph_blocks.quad_decoder bean)

let pe_twin = Hashtbl.of_seq (List.to_seq twins)
let is_autosar_kind kind = Hashtbl.mem pe_twin kind

let pe_kind kind =
  match Hashtbl.find_opt pe_twin kind with Some pe -> pe | None -> kind
