open C_ast

(* The same synthesised register scheme as Bean_code, so both HAL variants
   drive "the same silicon". *)
let base_of mcu kind =
  let family_base =
    match mcu.Mcu_db.family with
    | "56F83xx" -> 0xF000
    | "HCS12" -> 0x0040
    | _ -> 0x4000_0000
  in
  let offset =
    match kind with
    | `Timer -> 0x0C0
    | `Adc -> 0x180
    | `Pwm -> 0x200
    | `Gpio -> 0x2C0
    | `Qdec -> 0x300
    | `Sci -> 0x340
  in
  family_base + offset

let reg name = Call ("REG16", [ Var name ])

let symbolic_id b =
  match b.Bean.config with
  | Bean.Timer_int _ | Bean.Free_cntr _ -> "GptChannel_" ^ b.Bean.bname
  | Bean.Adc _ -> "AdcGroup_" ^ b.Bean.bname
  | Bean.Pwm _ -> "PwmChannel_" ^ b.Bean.bname
  | Bean.Dac _ -> "DacChannel_" ^ b.Bean.bname
  | Bean.Bit_io _ -> "DioChannel_" ^ b.Bean.bname
  | Bean.Quad_dec _ -> "IcuChannel_" ^ b.Bean.bname
  | Bean.Serial _ -> "CddUartChannel_" ^ b.Bean.bname
  | Bean.Watch_dog _ -> "WdgChannel_" ^ b.Bean.bname

let notification_name b =
  match b.Bean.config with
  | Bean.Timer_int _ -> Some ("Gpt_Notification_" ^ b.Bean.bname)
  | Bean.Adc _ -> Some ("Adc_Notification_" ^ b.Bean.bname)
  | Bean.Serial _ -> Some ("CddUart_RxNotification_" ^ b.Bean.bname)
  | Bean.Pwm _ | Bean.Dac _ | Bean.Bit_io _ | Bean.Quad_dec _
  | Bean.Free_cntr _ | Bean.Watch_dog _ ->
      None

let channel_index b =
  match b.Bean.resolved with
  | Some (Bean.R_timer (_, ch)) | Some (Bean.R_free_cntr (_, ch)) -> ch
  | Some (Bean.R_adc { channel; _ }) -> channel
  | Some (Bean.R_pwm { channel; _ }) -> channel
  | Some (Bean.R_dac { channel; _ }) -> channel
  | Some (Bean.R_serial { port; _ }) -> port
  | Some Bean.R_bitio | Some (Bean.R_qdec _) | Some (Bean.R_wdog _) -> 0
  | None -> invalid_arg ("Autosar_code: bean " ^ b.Bean.bname ^ " unresolved")

let std_types_unit =
  {
    unit_name = "Std_Types.h";
    items =
      [
        Item_comment "AUTOSAR standard types (generated subset)";
        Include "stdint.h";
        Typedef (U8, "Std_ReturnType");
        Typedef (U8, "Dio_LevelType");
        Typedef (U16, "Adc_ValueGroupType");
        Typedef (U8, "Adc_GroupType");
        Typedef (U8, "Pwm_ChannelType");
        Typedef (U8, "Dio_ChannelType");
        Typedef (U8, "Gpt_ChannelType");
        Typedef (U32, "Gpt_ValueType");
        Typedef (U8, "Icu_ChannelType");
        Typedef (U16, "Icu_EdgeNumberType");
        Define ("E_OK", "0");
        Define ("E_NOT_OK", "1");
        Define ("STD_HIGH", "1");
        Define ("STD_LOW", "0");
        Define ("REG16(addr)", "(*(volatile uint16_t *)(uintptr_t)(addr))");
      ];
  }

let cfg_unit project =
  let items =
    List.map
      (fun b -> Define (symbolic_id b, string_of_int (channel_index b)))
      (Bean_project.beans project)
  in
  {
    unit_name = "Mcal_Cfg.h";
    items =
      Item_comment "Symbolic channel/group configuration (expert-system resolved)"
      :: items;
  }

let has_class project cls =
  List.exists
    (fun b ->
      match (b.Bean.config, cls) with
      | (Bean.Timer_int _ | Bean.Free_cntr _), `Gpt -> true
      | Bean.Adc _, `Adc -> true
      | Bean.Pwm _, `Pwm -> true
      | Bean.Bit_io _, `Dio -> true
      | Bean.Quad_dec _, `Icu -> true
      | Bean.Serial _, `Uart -> true
      | _ -> false)
    (Bean_project.beans project)

let driver_protos project =
  List.concat
    [
      (if has_class project `Gpt then
         [
           "void Gpt_Init(void);";
           "void Gpt_StartTimer(Gpt_ChannelType Channel, Gpt_ValueType Value);";
           "void Gpt_StopTimer(Gpt_ChannelType Channel);";
         ]
       else []);
      (if has_class project `Adc then
         [
           "void Adc_Init(void);";
           "Std_ReturnType Adc_StartGroupConversion(Adc_GroupType Group);";
           "Std_ReturnType Adc_ReadGroup(Adc_GroupType Group, Adc_ValueGroupType *DataBufferPtr);";
         ]
       else []);
      (if has_class project `Pwm then
         [
           "void Pwm_Init(void);";
           "void Pwm_SetDutyCycle(Pwm_ChannelType ChannelNumber, uint16_t DutyCycle);";
         ]
       else []);
      (if has_class project `Dio then
         [
           "Dio_LevelType Dio_ReadChannel(Dio_ChannelType ChannelId);";
           "void Dio_WriteChannel(Dio_ChannelType ChannelId, Dio_LevelType Level);";
         ]
       else []);
      (if has_class project `Icu then
         [
           "void Icu_Init(void);";
           "Icu_EdgeNumberType Icu_GetEdgeNumbers(Icu_ChannelType Channel);";
         ]
       else []);
      (if has_class project `Uart then
         [
           "void CddUart_Init(void);";
           "Std_ReturnType CddUart_Transmit(uint8_t Data);";
           "Std_ReturnType CddUart_Receive(uint8_t *Data);";
         ]
       else []);
      [ "void Mcal_Init(void);" ];
    ]

let mcal_header project =
  {
    unit_name = "Mcal.h";
    items =
      [
        Item_comment "MCAL driver interface (AUTOSAR block-set variant)";
        Include_local "Std_Types.h";
        Include_local "Mcal_Cfg.h";
        Raw_item (String.concat "\n" (driver_protos project));
      ];
  }

(* Driver implementations against the synthesised register map. The per-
   channel register strides mirror Bean_code so both HAL variants touch
   the same addresses. *)
let gpt_unit mcu project =
  let beans =
    List.filter
      (fun b -> match b.Bean.config with Bean.Timer_int _ | Bean.Free_cntr _ -> true | _ -> false)
      (Bean_project.beans project)
  in
  let base ch = base_of mcu `Timer + (ch * 0x10) in
  let init_stmts =
    List.concat_map
      (fun b ->
        match b.Bean.resolved with
        | Some (Bean.R_timer (sol, ch)) | Some (Bean.R_free_cntr (sol, ch)) ->
            let prescaler_bits =
              int_of_float (log (float_of_int sol.Expert.prescaler) /. log 2.0)
            in
            [
              Comment
                (Printf.sprintf "%s: /%d x %d -> %.6g ms" b.Bean.bname
                   sol.Expert.prescaler sol.Expert.modulo
                   (sol.Expert.achieved_period *. 1e3));
              Assign
                ( reg (Printf.sprintf "0x%04X" (base ch + 4)),
                  Int_lit (sol.Expert.modulo - 1) );
              Assign
                ( reg (Printf.sprintf "0x%04X" (base ch)),
                  Bin ("|", Hex_lit 0x3001, Int_lit (prescaler_bits lsl 8)) );
            ]
        | _ -> [])
      beans
  in
  {
    unit_name = "Gpt.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def
          (func ~comment:"bring up every configured Gpt channel" Void "Gpt_Init" []
             init_stmts);
        Func_def
          (func Void "Gpt_StartTimer"
             [ (Named "Gpt_ChannelType", "Channel"); (Named "Gpt_ValueType", "Value") ]
             [
               Comment "compare interrupt enable for the channel";
               Expr (Call ("(void)", [ Var "Value" ]));
               Assign
                 ( Call ("REG16",
                         [ Bin ("+", Hex_lit (base_of mcu `Timer + 6),
                                Bin ("*", Var "Channel", Hex_lit 0x10)) ]),
                   Hex_lit 0x4000 );
             ]);
        Func_def
          (func Void "Gpt_StopTimer"
             [ (Named "Gpt_ChannelType", "Channel") ]
             [
               Assign
                 ( Call ("REG16",
                         [ Bin ("+", Hex_lit (base_of mcu `Timer),
                                Bin ("*", Var "Channel", Hex_lit 0x10)) ]),
                   Hex_lit 0x0000 );
             ]);
      ];
  }

let adc_unit mcu project =
  let resolution =
    List.find_map
      (fun b -> match b.Bean.config with Bean.Adc { resolution; _ } -> Some resolution | _ -> None)
      (Bean_project.beans project)
    |> Option.value ~default:12
  in
  let base = base_of mcu `Adc in
  {
    unit_name = "Adc.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def
          (func ~comment:(Printf.sprintf "%d-bit single-conversion groups" resolution)
             Void "Adc_Init" []
             [ Assign (reg (Printf.sprintf "0x%04X" base), Hex_lit 0x0000) ]);
        Func_def
          (func (Named "Std_ReturnType") "Adc_StartGroupConversion"
             [ (Named "Adc_GroupType", "Group") ]
             [
               Assign
                 ( reg (Printf.sprintf "0x%04X" base),
                   Bin ("|", Hex_lit 0x2000, Var "Group") );
               Return (Some (Var "E_OK"));
             ]);
        Func_def
          (func (Named "Std_ReturnType") "Adc_ReadGroup"
             [ (Named "Adc_GroupType", "Group");
               (Ptr (Named "Adc_ValueGroupType"), "DataBufferPtr") ]
             [
               Assign
                 ( Un ("*", Var "DataBufferPtr"),
                   Call ("REG16",
                         [ Bin ("+", Hex_lit (base + 4),
                                Bin ("*", Var "Group", Int_lit 2)) ]) );
               Return (Some (Var "E_OK"));
             ]);
      ];
  }

let pwm_unit mcu project =
  let beans =
    List.filter
      (fun b -> match b.Bean.config with Bean.Pwm _ -> true | _ -> false)
      (Bean_project.beans project)
  in
  let base ch = base_of mcu `Pwm + (ch * 0x08) in
  let init_stmts =
    List.concat_map
      (fun b ->
        match b.Bean.resolved with
        | Some (Bean.R_pwm { channel; period_counts; actual_freq; _ }) ->
            [
              Comment (Printf.sprintf "%s: %.6g Hz (%d counts)" b.Bean.bname
                         actual_freq period_counts);
              Assign (reg (Printf.sprintf "0x%04X" (base channel)),
                      Int_lit period_counts);
              Assign (reg (Printf.sprintf "0x%04X" (base channel + 4)), Hex_lit 0x0001);
            ]
        | _ -> [])
      beans
  in
  let period_table =
    List.filter_map
      (fun b ->
        match b.Bean.resolved with
        | Some (Bean.R_pwm { channel; period_counts; _ }) -> Some (channel, period_counts)
        | _ -> None)
      beans
  in
  let max_ch = List.fold_left (fun a (c, _) -> Stdlib.max a c) 0 period_table in
  let table_init =
    String.concat ", "
      (List.init (max_ch + 1) (fun i ->
           string_of_int (try List.assoc i period_table with Not_found -> 1)))
  in
  {
    unit_name = "Pwm.c";
    items =
      [
        Include_local "Mcal.h";
        Raw_item
          (Printf.sprintf
             "static const uint16_t Pwm_PeriodCounts[%d] = {%s};"
             (max_ch + 1) table_init);
        Func_def (func Void "Pwm_Init" [] init_stmts);
        Func_def
          (func
             ~comment:
               "AUTOSAR duty domain: 0x0000 = 0 %, 0x8000 = 100 % of the period"
             Void "Pwm_SetDutyCycle"
             [ (Named "Pwm_ChannelType", "ChannelNumber"); (U16, "DutyCycle") ]
             [
               Decl
                 ( U32, "val",
                   Some
                     (Bin
                        ( ">>",
                          Bin
                            ( "*",
                              Cast_to (U32, Var "DutyCycle"),
                              Cast_to (U32, Index (Var "Pwm_PeriodCounts",
                                                   Var "ChannelNumber")) ),
                          Int_lit 15 )) );
               Assign
                 ( Call ("REG16",
                         [ Bin ("+", Hex_lit (base_of mcu `Pwm + 2),
                                Bin ("*", Var "ChannelNumber", Hex_lit 0x08)) ]),
                   Cast_to (U16, Var "val") );
             ]);
      ];
  }

let dio_unit mcu =
  let base = base_of mcu `Gpio in
  {
    unit_name = "Dio.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def
          (func (Named "Dio_LevelType") "Dio_ReadChannel"
             [ (Named "Dio_ChannelType", "ChannelId") ]
             [
               Return
                 (Some
                    (Ternary
                       ( Bin ("&", reg (Printf.sprintf "0x%04X" base),
                              Bin ("<<", Int_lit 1, Var "ChannelId")),
                         Var "STD_HIGH", Var "STD_LOW" )));
             ]);
        Func_def
          (func Void "Dio_WriteChannel"
             [ (Named "Dio_ChannelType", "ChannelId");
               (Named "Dio_LevelType", "Level") ]
             [
               If
                 ( Bin ("==", Var "Level", Var "STD_HIGH"),
                   [
                     Assign
                       ( reg (Printf.sprintf "0x%04X" base),
                         Bin ("|", reg (Printf.sprintf "0x%04X" base),
                              Bin ("<<", Int_lit 1, Var "ChannelId")) );
                   ],
                   [
                     Assign
                       ( reg (Printf.sprintf "0x%04X" base),
                         Bin ("&", reg (Printf.sprintf "0x%04X" base),
                              Un ("~", Bin ("<<", Int_lit 1, Var "ChannelId"))) );
                   ] );
             ]);
      ];
  }

let icu_unit mcu =
  let base = base_of mcu `Qdec in
  {
    unit_name = "Icu.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def (func Void "Icu_Init" []
                    [ Assign (reg (Printf.sprintf "0x%04X" (base + 2)), Hex_lit 0x0001) ]);
        Func_def
          (func
             ~comment:"edge counting mode: the position register of the decoder"
             (Named "Icu_EdgeNumberType") "Icu_GetEdgeNumbers"
             [ (Named "Icu_ChannelType", "Channel") ]
             [
               Expr (Call ("(void)", [ Var "Channel" ]));
               Return (Some (reg (Printf.sprintf "0x%04X" base)));
             ]);
      ];
  }

let uart_unit mcu project =
  let divisor =
    List.find_map
      (fun b ->
        match b.Bean.resolved with
        | Some (Bean.R_serial { divisor; _ }) -> Some divisor
        | _ -> None)
      (Bean_project.beans project)
    |> Option.value ~default:32
  in
  let base = base_of mcu `Sci in
  {
    unit_name = "CddUart.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def
          (func Void "CddUart_Init" []
             [
               Assign (reg (Printf.sprintf "0x%04X" base), Int_lit divisor);
               Assign (reg (Printf.sprintf "0x%04X" (base + 2)), Hex_lit 0x002C);
             ]);
        Func_def
          (func (Named "Std_ReturnType") "CddUart_Transmit" [ (U8, "Data") ]
             [
               While
                 ( Bin ("==", Bin ("&", reg (Printf.sprintf "0x%04X" (base + 4)),
                                   Hex_lit 0x8000), Int_lit 0),
                   [ Comment "wait for TDRE" ] );
               Assign (reg (Printf.sprintf "0x%04X" (base + 6)), Var "Data");
               Return (Some (Var "E_OK"));
             ]);
        Func_def
          (func (Named "Std_ReturnType") "CddUart_Receive" [ (Ptr U8, "Data") ]
             [
               If
                 ( Bin ("==", Bin ("&", reg (Printf.sprintf "0x%04X" (base + 4)),
                                   Hex_lit 0x4000), Int_lit 0),
                   [ Return (Some (Var "E_NOT_OK")) ],
                   [] );
               Assign (Un ("*", Var "Data"),
                       Cast_to (U8, reg (Printf.sprintf "0x%04X" (base + 6))));
               Return (Some (Var "E_OK"));
             ]);
      ];
  }

let mcal_init_unit project =
  let calls =
    List.concat
      [
        (if has_class project `Gpt then [ Expr (call "Gpt_Init" []) ] else []);
        (if has_class project `Adc then [ Expr (call "Adc_Init" []) ] else []);
        (if has_class project `Pwm then [ Expr (call "Pwm_Init" []) ] else []);
        (if has_class project `Icu then [ Expr (call "Icu_Init" []) ] else []);
        (if has_class project `Uart then [ Expr (call "CddUart_Init" []) ] else []);
      ]
  in
  {
    unit_name = "Mcal.c";
    items =
      [
        Include_local "Mcal.h";
        Func_def
          (func ~comment:"bring the whole MCAL up, expert-resolved settings baked in"
             Void "Mcal_Init" [] calls);
      ];
  }

let hal_units project =
  (match Bean_project.status project with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg
        ("Autosar_code.hal_units: unresolved beans:\n" ^ String.concat "\n" msgs));
  let mcu = Bean_project.mcu project in
  List.concat
    [
      [ std_types_unit; cfg_unit project; mcal_header project ];
      (if has_class project `Gpt then [ gpt_unit mcu project ] else []);
      (if has_class project `Adc then [ adc_unit mcu project ] else []);
      (if has_class project `Pwm then [ pwm_unit mcu project ] else []);
      (if has_class project `Dio then [ dio_unit mcu ] else []);
      (if has_class project `Icu then [ icu_unit mcu ] else []);
      (if has_class project `Uart then [ uart_unit mcu project ] else []);
      [ mcal_init_unit project ];
    ]

let hal_loc project =
  List.fold_left (fun acc u -> acc + C_print.loc (C_print.print_unit u)) 0
    (hal_units project)
