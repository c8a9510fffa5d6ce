(* Load a PEERT-generated application and drive it.

   The PIL variant of the generated code is the natural SIL subject:
   its peripheral reads and writes are redirected to the
   [pil_sensor_buf]/[pil_actuator_buf] exchange buffers (§6), which
   become the stimulus/observation ports of the virtual machine -- the
   same role the RS-232 link plays in a real PIL run, without the
   target hardware.

   Two execution backends share this driver: the C-AST interpreter
   ({!Silvm_interp}) and the closure compiler ({!Silvm_compile}).
   The compiled engine is the default -- it is bit-exact against the
   interpreter on the whole covered subset (test_silvm_compile.ml
   holds it to every-output-every-step equality) and one to two
   orders of magnitude faster, which is what campaigns and fuzz
   loops feel. *)

type engine = [ `Interp | `Compiled ]

type backend =
  | Interp of Silvm_interp.t
  | Compiled of {
      code : Silvm_compile.code;
      st : Silvm_compile.st;
      readers : (string, Silvm_compile.st -> Silvm_value.t) Hashtbl.t;
          (** per-field read closures, compiled once on first use *)
    }

type t = {
  backend : backend;
  name : string;
  comp : Compile.t;
  arts : Target.artifacts;
  events : (int * string) list;
      (** rate divisor, group function to fire after the step (bean
          event ISRs; fired at the event block's rate, mirroring the
          immediate-and-atomic group execution of the MIL engine) *)
  mutable steps : int;
  mutable time : float;
}

type trace =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t

let sanitized_field b p m =
  Printf.sprintf "%s_o%d" (Blockgen.sanitize (Model.block_name m b)) p

let divisor comp b =
  match comp.Compile.sample.(Model.blk_index b) with
  | Sample_time.R_discrete { period; _ } ->
      Some (int_of_float (Float.round (period /. comp.Compile.base_dt)))
  | _ -> None

let engine app = match app.backend with Interp _ -> `Interp | Compiled _ -> `Compiled

let has_func app fn =
  match app.backend with
  | Interp interp -> Silvm_interp.has_func interp fn
  | Compiled { code; _ } -> Silvm_compile.has_func code fn

let register_external app fn f =
  match app.backend with
  | Interp interp -> Silvm_interp.register_external interp fn f
  | Compiled { st; _ } -> Silvm_compile.register_external st fn f

let call app fn args =
  match app.backend with
  | Interp interp -> ignore (Silvm_interp.call interp fn args)
  | Compiled { code; st; _ } -> ignore (Silvm_compile.call code st fn args)

(* engine-level live metrics *)
let c_sil_steps = Obs.counter "silvm.steps"

let create ?(mode = Blockgen.Pil) ?(opt = false) ?(engine = `Compiled) ~name
    ~project comp =
  let arts =
    if Obs.enabled () then begin
      let t0 = Obs.now_ns () in
      let arts = Target.generate ~mode ~opt ~name ~project comp in
      Obs.record_named "profile.silvm.codegen_s"
        ((Obs.now_ns () -. t0) *. 1e-9);
      arts
    end
    else Target.generate ~mode ~opt ~name ~project comp
  in
  let units = [ arts.Target.model_h; arts.Target.model_c ] in
  let backend =
    match engine with
    | `Interp ->
        let interp = Silvm_interp.create () in
        List.iter (Silvm_interp.add_unit interp) units;
        Interp interp
    | `Compiled ->
        (* the compiled code is immutable and content-hashed: repeated
           submissions of the same generated units (campaign shards,
           fuzz re-runs) share one compilation *)
        let code = Silvm_compile.compile_cached units in
        Compiled
          { code; st = Silvm_compile.instantiate code; readers = Hashtbl.create 32 }
  in
  let m = comp.Compile.model in
  let app =
    { backend; name; comp; arts; events = []; steps = 0; time = 0.0 }
  in
  (* free-running counter beans read the clock through an external *)
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      if String.equal spec.Block.kind "PE_FreeCntr" then
        match
          ( List.assoc_opt "bean" spec.Block.params,
            List.assoc_opt "tick" spec.Block.params )
        with
        | Some (Param.String bean), Some (Param.Float tick) ->
            register_external app (bean ^ "_GetCounterValue") (fun _ ->
                let count =
                  int_of_float (Float.floor (app.time /. tick)) land 0xFFFF
                in
                Silvm_value.of_int
                  { Silvm_value.bits = 16; signed = false }
                  count)
        | _ -> ())
    (Model.blocks m);
  (* bean events wired to function-call groups: the generated ISR body
     is a call to the group function *)
  let events =
    List.concat_map
      (fun b ->
        let spec = Model.spec_of m b in
        List.init (Array.length spec.Block.event_outs) (fun i -> i)
        |> List.filter_map (fun i ->
               match Model.event_target m (b, i) with
               | Some g ->
                   let fn =
                     Printf.sprintf "%s_%s" name
                       (Blockgen.sanitize (Model.group_name m g))
                   in
                   if has_func app fn then
                     Option.map (fun d -> (d, fn)) (divisor comp b)
                   else None
               | None -> None))
      (Model.blocks m)
  in
  { app with events }

let initialize app =
  app.steps <- 0;
  app.time <- 0.0;
  call app (app.name ^ "_initialize") []

(* one base-rate step: the periodic part, then the ISR groups of every
   bean event that fired in this period *)
let step_fr fr app =
  (* supervision fuel point (cheap: one domain-local read when no
     token is installed) *)
  Cancel.poll ();
  (match fr with
  | Some r -> Flight.step_mark_r r ~step:app.steps ~time:app.time app.name
  | None -> ());
  call app (app.name ^ "_step") [];
  List.iter
    (fun (d, fn) -> if app.steps mod d = 0 then call app fn [])
    app.events;
  app.steps <- app.steps + 1;
  app.time <- app.time +. app.comp.Compile.base_dt;
  Obs.add c_sil_steps 1

let step app =
  step_fr (if Flight.enabled () then Some (Flight.recorder ()) else None) app

let set_sensor app slot v =
  match app.backend with
  | Interp interp ->
      Silvm_interp.write interp
        (C_ast.Index (C_ast.Var "pil_sensor_buf", C_ast.Int_lit slot))
        (Silvm_value.of_int { Silvm_value.bits = 16; signed = false } v)
  | Compiled { st; _ } -> Silvm_compile.set_sensor st slot v

let actuator app slot =
  match app.backend with
  | Interp interp ->
      Silvm_value.to_int
        (Silvm_interp.read interp
           (C_ast.Index (C_ast.Var "pil_actuator_buf", C_ast.Int_lit slot)))
  | Compiled { st; _ } -> Silvm_compile.actuator st slot

let read_field app fname field =
  match app.backend with
  | Interp interp ->
      Silvm_interp.read interp (C_ast.Field (C_ast.Var fname, field))
  | Compiled { code; st; readers } -> (
      (* signals are polled every step of a diff run: compile the read
         once, then it is a closure call *)
      match Hashtbl.find_opt readers field with
      | Some r -> r st
      | None ->
          let r =
            Silvm_compile.reader code (Mir.Pfield (Mir.Pvar fname, field))
          in
          Hashtbl.replace readers field r;
          r st)

(* the block-I/O structure field carrying a block output signal *)
let signal app (b, p) =
  read_field app (app.name ^ "_B")
    (sanitized_field b p app.comp.Compile.model)

let schedule app = app.arts.Target.schedule

let stmts_executed app =
  match app.backend with
  | Interp interp -> Silvm_interp.stmts_executed interp
  | Compiled _ -> 0

(* ---------------- batched execution ---------------- *)

let n_actuators app =
  match app.backend with
  | Compiled { code; _ } -> Silvm_compile.actuator_count code
  | Interp _ ->
      List.length app.arts.Target.schedule.Target.actuator_slots

let run_n_steps ?stimulus ?feedback app n =
  let n_act = n_actuators app in
  let t_batch = if Obs.enabled () then Obs.now_ns () else 0.0 in
  let trace =
    Bigarray.Array2.create Bigarray.int16_unsigned Bigarray.c_layout n
      (max 1 n_act)
  in
  Bigarray.Array2.fill trace 0;
  let row = Array.make (max 1 n_act) 0 in
  (* one recorder fetch for the whole batch, not one per step *)
  let fr = if Flight.enabled () then Some (Flight.recorder ()) else None in
  for k = 0 to n - 1 do
    (match stimulus with
    | None -> ()
    | Some f ->
        let sensors = f k in
        Array.iteri (fun slot v -> set_sensor app slot v) sensors);
    step_fr fr app;
    (match app.backend with
    | Compiled { st; _ } when n_act > 0 ->
        (* vectorized snapshot: blit the exchange buffer into row k *)
        Bigarray.Array1.blit
          (Silvm_compile.actuator_buf st)
          (Bigarray.Array2.slice_left trace k)
    | _ ->
        for slot = 0 to n_act - 1 do
          Bigarray.Array2.set trace k slot (actuator app slot)
        done);
    match feedback with
    | None -> ()
    | Some f ->
        for slot = 0 to n_act - 1 do
          row.(slot) <- Bigarray.Array2.get trace k slot
        done;
        f k row
  done;
  if Obs.enabled () then begin
    (* engine throughput, visible live in heartbeats / Prometheus *)
    let dt = (Obs.now_ns () -. t_batch) *. 1e-9 in
    Obs.record_named "silvm.batch_steps" (float_of_int n);
    if dt > 0.0 then
      Obs.set_gauge "silvm.steps_per_s" (float_of_int n /. dt)
  end;
  trace

(* first (step, slot) where two runs disagree; whole-row comparison is
   the vectorized common case (equal traces touch no per-port logic) *)
let compare_traces (a : trace) (b : trace) =
  let steps = min (Bigarray.Array2.dim1 a) (Bigarray.Array2.dim1 b) in
  let slots = min (Bigarray.Array2.dim2 a) (Bigarray.Array2.dim2 b) in
  let diff = ref None in
  (try
     for k = 0 to steps - 1 do
       for s = 0 to slots - 1 do
         if Bigarray.Array2.unsafe_get a k s <> Bigarray.Array2.unsafe_get b k s
         then (
           diff := Some (k, s);
           raise Exit)
       done
     done
   with Exit -> ());
  if Bigarray.Array2.dim1 a <> Bigarray.Array2.dim1 b && !diff = None then
    Some (steps, 0)
  else !diff
