(* Growable probe storage: two parallel float arrays, doubling growth.
   Replaces the original [(float * float) list ref] accumulation — no
   per-sample boxing/consing on the hot path, and [trace] no longer
   needs a List.rev. *)
type probe_buf = {
  mutable pb_t : float array;
  mutable pb_v : float array;
  mutable pb_len : int;
  pb_name : string;  (* block name, so the flight recorder can label
                        probed-signal events without a lookup per step *)
}

let probe_buf_create name =
  { pb_t = Array.make 64 0.0; pb_v = Array.make 64 0.0; pb_len = 0; pb_name = name }

let probe_buf_push pb t v =
  let cap = Array.length pb.pb_t in
  if pb.pb_len = cap then begin
    let nt = Array.make (2 * cap) 0.0 and nv = Array.make (2 * cap) 0.0 in
    Array.blit pb.pb_t 0 nt 0 cap;
    Array.blit pb.pb_v 0 nv 0 cap;
    pb.pb_t <- nt;
    pb.pb_v <- nv
  end;
  pb.pb_t.(pb.pb_len) <- t;
  pb.pb_v.(pb.pb_len) <- v;
  pb.pb_len <- pb.pb_len + 1

(* What stands between a block's output and the signal it drives: the
   value passes, a held value replaces it ([override_output]), or a
   function of time and value perturbs it ([perturb_output]). *)
type interpose =
  | Pass
  | Hold of Value.t
  | Perturb of (float -> Value.t -> Value.t)

type t = {
  comp : Compile.t;
  behs : Block.beh array;
  signals : Value.t array array;
  interpose : interpose array array;
  srcs : (Model.blk * int) array array;
  mutable now : float;
  mutable nstep : int;
  probes : (int * int, probe_buf) Hashtbl.t;
  mutable events_this_step : int;
  cstate_blocks : Model.blk array;  (* owners of continuous states, in order *)
  solver : Ode.method_;
  solver_substeps : int;
  group_exec : Model.blk array array;
      (* execution order per function-call group, indexed by
         [Model.group_index] — replaces the List.assoc_opt lookup that
         used to sit on every event dispatch *)
  group_counters : Obs.counter array;  (* same indexing *)
}

(* process-wide engine metrics *)
let c_steps = Obs.counter "sim.steps"
let c_events = Obs.counter "sim.events"
let h_substep = Obs.hist "sim.ode.substep_s"

let bi = Model.blk_index

let gather t b = Array.map (fun (sb, sp) -> t.signals.(bi sb).(sp)) t.srcs.(bi b)

let write_outputs t b outs =
  let spec = Model.spec_of t.comp.Compile.model b in
  if Array.length outs <> spec.Block.n_out then
    failwith
      (Printf.sprintf "block %s returned %d outputs, expected %d"
         (Model.block_name t.comp.Compile.model b)
         (Array.length outs) spec.Block.n_out);
  let cells = t.interpose.(bi b) and sigs = t.signals.(bi b) in
  for p = 0 to spec.Block.n_out - 1 do
    sigs.(p) <-
      (match cells.(p) with
      | Pass -> outs.(p)
      | Hold v -> v
      | Perturb f -> f t.now outs.(p))
  done

let rec exec_group t g =
  let gi = Model.group_index g in
  let order =
    if gi < Array.length t.group_exec then t.group_exec.(gi) else [||]
  in
  if gi < Array.length t.group_counters then Obs.add t.group_counters.(gi) 1;
  Array.iter
    (fun b ->
      let outs = t.behs.(bi b).Block.out ~minor:false ~time:t.now (gather t b) in
      write_outputs t b outs)
    order;
  Array.iter (fun b -> t.behs.(bi b).Block.update ~time:t.now (gather t b)) order

and fire_event t b k =
  t.events_this_step <- t.events_this_step + 1;
  Obs.add c_events 1;
  match Model.event_target t.comp.Compile.model (b, k) with
  | Some g -> exec_group t g
  | None -> ()

let create ?(solver = Ode.Rk4) ?(solver_substeps = 1) comp =
  if solver_substeps < 1 then invalid_arg "Sim.create: solver_substeps";
  let m = comp.Compile.model in
  let n = Model.n_blocks m in
  let signals = Array.make n [||] in
  let interpose = Array.make n [||] in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      signals.(bi b) <-
        Array.init spec.Block.n_out (fun p ->
            Value.zero comp.Compile.out_types.(bi b).(p));
      interpose.(bi b) <- Array.make spec.Block.n_out Pass)
    (Model.blocks m);
  let t_ref = ref None in
  let behs = Array.make n Block.no_beh_state in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      let block_dt =
        match comp.Compile.sample.(bi b) with
        | Sample_time.R_discrete { period; _ } -> period
        | Sample_time.R_continuous -> 0.0
        | Sample_time.R_triggered | Sample_time.R_const -> comp.Compile.base_dt
      in
      let ctx =
        {
          Block.base_dt = comp.Compile.base_dt;
          block_dt;
          fire =
            (fun k ->
              match !t_ref with
              | Some t -> fire_event t b k
              | None -> ());
          in_dtypes = comp.Compile.in_types.(bi b);
          out_dtypes = comp.Compile.out_types.(bi b);
        }
      in
      behs.(bi b) <- spec.Block.make ctx)
    (Model.blocks m);
  let cstate_blocks =
    Array.of_list
      (List.filter (fun b -> behs.(bi b).Block.ncstates > 0)
         (Array.to_list comp.Compile.order))
  in
  let n_groups =
    List.fold_left
      (fun acc g -> max acc (Model.group_index g + 1))
      0 (Model.groups m)
  in
  let group_exec = Array.make n_groups [||] in
  List.iter
    (fun (g, order) -> group_exec.(Model.group_index g) <- order)
    comp.Compile.group_order;
  let group_counters =
    Array.init n_groups (fun _ -> Obs.counter "sim.group.unused")
  in
  List.iter
    (fun g ->
      group_counters.(Model.group_index g) <-
        Obs.counter ("sim.group." ^ Model.group_name m g))
    (Model.groups m);
  let t =
    {
      comp;
      behs;
      signals;
      interpose;
      srcs = Compile.signal_sources comp;
      now = 0.0;
      nstep = 0;
      probes = Hashtbl.create 8;
      events_this_step = 0;
      cstate_blocks;
      solver;
      solver_substeps;
      group_exec;
      group_counters;
    }
  in
  t_ref := Some t;
  t

let reset t =
  Array.iter (fun beh -> beh.Block.reset ()) t.behs;
  List.iter
    (fun b ->
      let spec = Model.spec_of t.comp.Compile.model b in
      for p = 0 to spec.Block.n_out - 1 do
        t.signals.(bi b).(p) <- Value.zero t.comp.Compile.out_types.(bi b).(p)
      done)
    (Model.blocks t.comp.Compile.model);
  Hashtbl.iter (fun _ pb -> pb.pb_len <- 0) t.probes;
  t.now <- 0.0;
  t.nstep <- 0

let time t = t.now
let base_dt t = t.comp.Compile.base_dt
let compiled t = t.comp

let probe t (b, p) =
  let key = (bi b, p) in
  if not (Hashtbl.mem t.probes key) then
    Hashtbl.replace t.probes key
      (probe_buf_create (Model.block_name t.comp.Compile.model b))

let probe_named t name p = probe t (Model.find t.comp.Compile.model name, p)

let hit t b =
  match t.comp.Compile.sample.(bi b) with
  | Sample_time.R_const -> t.nstep = 0
  | r -> Sample_time.hit r ~time:t.now ~base_dt:t.comp.Compile.base_dt

(* Continuous-state integration over one base step: the derivative
   function re-evaluates the outputs of continuous-rate blocks (minor
   pass) at the stage state, discrete outputs being held. *)
let integrate t =
  if Array.length t.cstate_blocks > 0 then begin
    let sizes =
      Array.map (fun b -> t.behs.(bi b).Block.ncstates) t.cstate_blocks
    in
    let total = Array.fold_left ( + ) 0 sizes in
    let pack () =
      let x = Array.make total 0.0 in
      let off = ref 0 in
      Array.iter
        (fun b ->
          let s = t.behs.(bi b).Block.get_cstate () in
          Array.blit s 0 x !off (Array.length s);
          off := !off + Array.length s)
        t.cstate_blocks;
      x
    in
    let unpack x =
      let off = ref 0 in
      Array.iteri
        (fun i b ->
          t.behs.(bi b).Block.set_cstate (Array.sub x !off sizes.(i));
          off := !off + sizes.(i))
        t.cstate_blocks
    in
    let minor_pass time =
      Array.iter
        (fun b ->
          if t.comp.Compile.sample.(bi b) = Sample_time.R_continuous then
            write_outputs t b
              (t.behs.(bi b).Block.out ~minor:true ~time (gather t b)))
        t.comp.Compile.order
    in
    let f time x =
      unpack x;
      minor_pass time;
      let d = Array.make total 0.0 in
      let off = ref 0 in
      Array.iteri
        (fun i b ->
          let db = t.behs.(bi b).Block.deriv ~time (gather t b) in
          Array.blit db 0 d !off sizes.(i);
          off := !off + sizes.(i))
        t.cstate_blocks;
      d
    in
    (* sub-stepping keeps stiff continuous dynamics (e.g. the motor's
       electrical pole) stable when the discrete base rate is slow *)
    let n = t.solver_substeps in
    let h = t.comp.Compile.base_dt /. float_of_int n in
    let x = ref (pack ()) in
    if Obs.enabled () then
      for i = 0 to n - 1 do
        let t0 = Obs.now_ns () in
        x := Ode.step t.solver f (t.now +. (float_of_int i *. h)) !x h;
        Obs.record h_substep ((Obs.now_ns () -. t0) *. 1e-9)
      done
    else
      for i = 0 to n - 1 do
        x := Ode.step t.solver f (t.now +. (float_of_int i *. h)) !x h
      done;
    unpack !x;
    (* leave the continuous signals consistent with the final state, not
       with the solver's last stage evaluation *)
    minor_pass (t.now +. t.comp.Compile.base_dt)
  end

let record_probes t fr =
  match fr with
  | Some r ->
      Hashtbl.iter
        (fun (b, p) pb ->
          let v = Value.to_float t.signals.(b).(p) in
          probe_buf_push pb t.now v;
          Flight.signal_r r ~step:t.nstep ~time:t.now ~port:p ~value:v
            pb.pb_name)
        t.probes
  | None ->
      Hashtbl.iter
        (fun (b, p) pb ->
          probe_buf_push pb t.now (Value.to_float t.signals.(b).(p)))
        t.probes

let step t =
  (* supervision fuel point: a deadline or kill on the ambient token
     abandons the run between steps, where all state is reset-able *)
  Cancel.poll ();
  Obs.span_begin "sim.step";
  (* one ring fetch per step, shared with the probe burst below *)
  let fr = if Flight.enabled () then Some (Flight.recorder ()) else None in
  (match fr with
  | Some r ->
      Flight.step_mark_r r ~step:t.nstep ~time:t.now
        (Model.name t.comp.Compile.model)
  | None -> ());
  t.events_this_step <- 0;
  Array.iter
    (fun b ->
      if hit t b then
        write_outputs t b (t.behs.(bi b).Block.out ~minor:false ~time:t.now (gather t b)))
    t.comp.Compile.order;
  Array.iter
    (fun b -> if hit t b then t.behs.(bi b).Block.update ~time:t.now (gather t b))
    t.comp.Compile.order;
  record_probes t fr;
  integrate t;
  t.now <- t.now +. t.comp.Compile.base_dt;
  t.nstep <- t.nstep + 1;
  Obs.add c_steps 1;
  Obs.bump t.events_this_step;
  Obs.span_end ()

let run t ?(steps = max_int) ~until () =
  let n = ref 0 in
  while t.now < until -. 1e-12 && !n < steps do
    step t;
    incr n
  done

let value t (b, p) = t.signals.(bi b).(p)
let value_named t name p = value t (Model.find t.comp.Compile.model name, p)

let trace t (b, p) =
  match Hashtbl.find_opt t.probes (bi b, p) with
  | Some pb -> List.init pb.pb_len (fun i -> (pb.pb_t.(i), pb.pb_v.(i)))
  | None -> raise Not_found

let trace_named t name p = trace t (Model.find t.comp.Compile.model name, p)

let override_output t (b, p) v =
  match v with
  | Some v ->
      t.interpose.(bi b).(p) <- Hold v;
      t.signals.(bi b).(p) <- v
  | None -> t.interpose.(bi b).(p) <- Pass

let perturb_output t (b, p) f =
  t.interpose.(bi b).(p) <- (match f with Some f -> Perturb f | None -> Pass)

let step_events t = t.events_this_step
