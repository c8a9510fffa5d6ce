(* MIL <-> SIL differential execution.

   Runs the same compiled diagram through the simulation engine and
   through the interpreted generated application in lock-step, feeding
   both the identical sensor stimulus each control period, and reports
   the first step/signal where they disagree. This is the back-to-back
   model-versus-code check the paper's MIL->PIL chain implies but never
   mechanises: every block output of every step is compared, so a
   codegen bug surfaces with the block name and both values in hand. *)

type float_mode =
  | Exact  (** IEEE equality; +0/-0 identified, NaN equal to NaN *)
  | Ulp of int  (** tolerate a few representable values of drift *)

type engine =
  | Interp  (** C AST interpreter *)
  | Compiled  (** closure-compiled execution (the default) *)
  | Both
      (** tri-lockstep: MIL vs compiled, plus a shadow interpreter the
          compiled engine must match bit-for-bit *)

type divergence = {
  d_step : int;
  d_time : float;
  d_block : string;
  d_port : int;
  d_mil : string;
  d_sil : string;
  d_faults : string list;
}

type report = {
  steps_run : int;  (** lock-steps completed without divergence *)
  steps_requested : int;
  signals : int;  (** block output signals compared per step *)
  divergence : divergence option;
  mil_seconds : float;
  sil_seconds : float;
}

(* a plant plus its PIL driver, packaged so heterogeneous plants fit
   one argument *)
type plant = Plant : 'p * 'p Pil_cosim.plant_driver -> plant

(* fault perturbation applied to the sensor codes BOTH sides consume,
   plus the fault names active at a time (for the divergence report) *)
type injector = {
  inj_sensors : step:int -> time:float -> int array -> int array;
  inj_active : time:float -> string list;
}

let ulp_key x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

let ulp_dist a b =
  let d = Int64.sub (ulp_key a) (ulp_key b) in
  Int64.abs d

let floats_agree mode a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || match mode with Exact -> false | Ulp n -> ulp_dist a b <= Int64.of_int n

let values_agree mode mil sil =
  match mil with
  | Value.B b -> Silvm_value.truth sil = b
  | Value.I (_, i) -> Silvm_value.to_int64 sil = Int64.of_int i
  | Value.X _ -> Silvm_value.to_int64 sil = Int64.of_int (Value.to_int mil)
  | Value.F x -> (
      match sil with
      | Silvm_value.VF y -> floats_agree mode x y
      | Silvm_value.VI _ -> floats_agree mode x (Silvm_value.to_float sil))

let mil_to_string = function
  | Value.F x -> Printf.sprintf "%.17g" x
  | Value.I (dt, i) -> Printf.sprintf "%d:%s" i (Dtype.to_string dt)
  | Value.B b -> string_of_bool b
  | Value.X f -> Printf.sprintf "fix:%d" (Fixed.raw f)

(* every block output signal present in the generated block-I/O
   structure: the periodic population plus the function-call groups *)
let compared_signals comp =
  let m = comp.Compile.model in
  let blocks =
    Array.to_list comp.Compile.order
    @ List.concat_map
        (fun (_, arr) -> Array.to_list arr)
        comp.Compile.group_order
  in
  List.concat_map
    (fun b ->
      let spec = Model.spec_of m b in
      List.init spec.Block.n_out (fun p -> (b, p)))
    blocks

(* the same raw sensor words into the MIL block outputs, decoded by
   each slot's port type, and into every SIL exchange buffer *)
let inject sim apps slots sensors =
  List.iter
    (fun (b, slot, ty) ->
      let v = sensors.(slot) in
      Sim.override_output sim (b, 0) (Some (Value.of_int ty v));
      List.iter (fun app -> Silvm_app.set_sensor app slot v) apps)
    slots

(* bit-for-bit equality between the two SIL engines: same type, same
   canonical integer, same float bits ([compare] would identify -0.
   with 0. and separate NaN from NaN — exactly the wrong laws here) *)
let sil_bits_equal a b =
  match (a, b) with
  | Silvm_value.VI (ta, va), Silvm_value.VI (tb, vb) -> ta = tb && Int64.equal va vb
  | Silvm_value.VF xa, Silvm_value.VF xb ->
      Int64.equal (Int64.bits_of_float xa) (Int64.bits_of_float xb)
  | _ -> false

exception Stop of divergence

(* CI drill: ECSD_DIVERGE_AT=<k> fabricates a divergence at lock-step k,
   exercising the whole forensics path (flight-recorder capture, bundle
   write, nonzero exit) on a model that genuinely agrees *)
let forced_divergence_at () =
  match Sys.getenv_opt "ECSD_DIVERGE_AT" with
  | Some s -> int_of_string_opt s
  | None -> None

let run ?(steps = 1000) ?(float_mode = Exact) ?(opt = false) ?(engine = Compiled)
    ?plant ?stimulus ?injector ~name ~project comp =
  Obs.span "silvm.diff" @@ fun () ->
  let sim = Sim.create comp in
  let app =
    let e = match engine with Interp -> `Interp | Compiled | Both -> `Compiled in
    Silvm_app.create ~opt ~engine:e ~name ~project comp
  in
  (* [Both] runs a shadow interpreter in tri-lockstep; any compiled
     value that is not bit-identical to the interpreter's is reported
     as a divergence, even where MIL agrees with both *)
  let shadow =
    match engine with
    | Both -> Some (Silvm_app.create ~opt ~engine:`Interp ~name ~project comp)
    | Interp | Compiled -> None
  in
  let apps = app :: Option.to_list shadow in
  let sched = Silvm_app.schedule app in
  let n_act = List.length sched.Target.actuator_slots in
  let sensor_slots =
    List.map
      (fun (b, slot) -> (b, slot, Compile.out_type comp (b, 0)))
      sched.Target.sensor_slots
  in
  let signals = compared_signals comp in
  let m = comp.Compile.model in
  let base = comp.Compile.base_dt in
  let mil_t = ref 0.0 and sil_t = ref 0.0 in
  let steps_done = ref 0 in
  let force_at = forced_divergence_at () in
  let result =
    try
      (* code the SIL engines cannot run (an opaque statement from a
         registered custom emitter, in its init or step) is a
         divergence at the step it stopped *)
      (try
         Silvm_app.initialize app;
         Option.iter Silvm_app.initialize shadow;
         for k = 0 to steps - 1 do
           let time = float_of_int k *. base in
           let perturb s =
             let s =
               match injector with
               | Some i -> i.inj_sensors ~step:k ~time s
               | None -> s
             in
             if Flight.enabled () then
               Array.iteri
                 (fun slot v ->
                   Flight.signal ~step:k ~time ~port:slot ~value:(float_of_int v)
                     "sensor")
                 s;
             s
           in
           (match plant, stimulus with
           | Some (Plant (p, d)), _ ->
               inject sim apps sensor_slots (perturb (d.Pil_cosim.read_sensors p ~time))
           | None, Some f -> inject sim apps sensor_slots (perturb (f k))
           | None, None -> ());
           let t0 = Sys.time () in
           Sim.step sim;
           mil_t := !mil_t +. (Sys.time () -. t0);
           let faults () =
             match injector with Some i -> i.inj_active ~time | None -> []
           in
           let t1 = Sys.time () in
           Silvm_app.step app;
           sil_t := !sil_t +. (Sys.time () -. t1);
           Option.iter Silvm_app.step shadow;
           (match force_at with
           | Some k' when k = k' ->
               raise
                 (Stop
                    {
                      d_step = k;
                      d_time = time;
                      d_block = "__forced";
                      d_port = 0;
                      d_mil = "forced";
                      d_sil = "forced";
                      d_faults = faults ();
                    })
           | _ -> ());
           List.iter
             (fun (b, p) ->
               let mil = Sim.value sim (b, p) in
               let sil = Silvm_app.signal app (b, p) in
               if not (values_agree float_mode mil sil) then
                 raise
                   (Stop
                      {
                        d_step = k;
                        d_time = time;
                        d_block = Model.block_name m b;
                        d_port = p;
                        d_mil = mil_to_string mil;
                        d_sil = Silvm_value.to_string sil;
                        d_faults = faults ();
                      });
               match shadow with
               | None -> ()
               | Some sh ->
                   let isil = Silvm_app.signal sh (b, p) in
                   if not (sil_bits_equal sil isil) then
                     raise
                       (Stop
                          {
                            d_step = k;
                            d_time = time;
                            d_block = Model.block_name m b;
                            d_port = p;
                            d_mil = "interp:" ^ Silvm_value.to_string isil;
                            d_sil = Silvm_value.to_string sil;
                            d_faults = faults ();
                          }))
             signals;
           incr steps_done;
           match plant with
           | Some (Plant (p, d)) ->
               let acts = Array.init n_act (Silvm_app.actuator app) in
               d.Pil_cosim.apply_actuators p acts;
               d.Pil_cosim.advance p ~dt:base
           | None -> ()
         done
       with Silvm_interp.Unsupported msg ->
         let k = !steps_done in
         let time = float_of_int k *. base in
         raise
           (Stop
              {
                d_step = k;
                d_time = time;
                d_block = name;
                d_port = 0;
                d_mil = "-";
                d_sil = "unsupported: " ^ msg;
                d_faults =
                  (match injector with Some i -> i.inj_active ~time | None -> []);
              }));
      None
    with Stop d ->
      (* forensic moment: record the mismatch itself, then freeze the
         window of this track's events that led to it *)
      if Flight.enabled () then begin
        Flight.mark ~step:d.d_step ~time:d.d_time
          (Printf.sprintf "divergence %s[%d] mil=%s sil=%s" d.d_block d.d_port
             d.d_mil d.d_sil);
        Flight.capture
          ~reason:
            (Printf.sprintf "diff divergence at step %d on %s port %d"
               d.d_step d.d_block d.d_port)
      end;
      Some d
  in
  {
    steps_run = !steps_done;
    steps_requested = steps;
    signals = List.length signals;
    divergence = result;
    mil_seconds = !mil_t;
    sil_seconds = !sil_t;
  }
