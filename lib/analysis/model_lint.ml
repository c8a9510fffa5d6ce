let structural m =
  List.map
    (fun d ->
      let rule =
        match d.Compile.d_kind with
        | Compile.Unconnected_input _ -> "MDL001"
        | Compile.Triggered_without_group -> "MDL002"
        | Compile.Algebraic_loop _ -> "MDL003"
        | Compile.Empty_model -> "MDL004"
      in
      let subject = Option.value d.Compile.d_block ~default:"" in
      Diag.make ~rule ~subject d.Compile.d_msg)
    (Compile.diagnose m)

(* Backward reachability from the model's sinks: a block is live when
   one of its outputs (transitively) reaches a sink, an actuator
   (n_out = 0), an Outport, or fires a function-call group. *)
let liveness m =
  let n = Model.n_blocks m in
  let live = Array.make n false in
  let blocks = Model.blocks m in
  let is_seed b =
    let spec = Model.spec_of m b in
    spec.Block.n_out = 0
    || spec.Block.kind = "Outport"
    || Target.is_actuator_kind spec.Block.kind
    || Array.exists
         (fun e -> e)
         (Array.mapi
            (fun e _ -> Model.event_target m (b, e) <> None)
            spec.Block.event_outs)
  in
  let rec mark b =
    let bi = Model.blk_index b in
    if not live.(bi) then begin
      live.(bi) <- true;
      let spec = Model.spec_of m b in
      for p = 0 to spec.Block.n_in - 1 do
        match Model.driver m (b, p) with
        | Some (sb, _) -> mark sb
        | None -> ()
      done
    end
  in
  List.iter (fun b -> if is_seed b then mark b) blocks;
  live

let advisory m =
  let live = liveness m in
  let blocks = Model.blocks m in
  (* which output ports have at least one consumer *)
  let consumed = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      for p = 0 to spec.Block.n_in - 1 do
        match Model.driver m (b, p) with
        | Some (sb, sp) -> Hashtbl.replace consumed (Model.blk_index sb, sp) ()
        | None -> ()
      done)
    blocks;
  List.concat_map
    (fun b ->
      let spec = Model.spec_of m b in
      let bi = Model.blk_index b in
      let name = Model.block_name m b in
      if not live.(bi) then
        [
          Diag.make ~rule:"MDL005" ~subject:name
            (Printf.sprintf
               "%s (%s): no output reaches a sink, actuator or Outport; the \
                block is dead code"
               name spec.Block.kind);
        ]
      else if
        spec.Block.n_out > 0
        && spec.Block.kind <> "Outport"
        && not (Target.is_actuator_kind spec.Block.kind)
      then
        List.filter_map
          (fun p ->
            if Hashtbl.mem consumed (bi, p) then None
            else
              Some
                (Diag.make ~rule:"MDL006" ~subject:name
                   (Printf.sprintf "%s: output port %d drives nothing" name p)))
          (List.init spec.Block.n_out Fun.id)
      else [])
    blocks

let bean_subject msg =
  match String.index_opt msg ':' with
  | Some i when i > 0 && i <= 12 && not (String.contains (String.sub msg 0 i) ' ')
    ->
      String.sub msg 0 i
  | _ -> ""

let project_findings project m =
  let missing =
    List.filter_map
      (fun b ->
        let spec = Model.spec_of m b in
        match Param.string_opt spec.Block.params "bean" with
        | Some bn -> (
            match Bean_project.find project bn with
            | _ -> None
            | exception Not_found ->
                Some
                  (Diag.make ~rule:"MDL008" ~subject:(Model.block_name m b)
                     (Printf.sprintf
                        "%s (%s) references bean %S, absent from the project \
                         (MCU %s)"
                        (Model.block_name m b) spec.Block.kind bn
                        (Bean_project.mcu project).Mcu_db.name)))
        | None -> None)
      (Model.blocks m)
  in
  let verify =
    match Bean_project.status project with
    | Ok () -> []
    | Error msgs ->
        List.map
          (fun msg -> Diag.make ~rule:"MDL007" ~subject:(bean_subject msg) msg)
          msgs
  in
  missing @ verify

let rate_findings comp =
  let m = comp.Compile.model in
  List.filter_map
    (fun b ->
      match Compile.resolved_of comp b with
      | Sample_time.R_discrete { period; _ } ->
          let ratio = period /. comp.Compile.base_dt in
          if Float.abs (ratio -. Float.round ratio) > 1e-6 *. ratio then
            Some
              (Diag.make ~rule:"MDL009" ~subject:(Model.block_name m b)
                 (Printf.sprintf
                    "%s: period %g s is not an integer multiple of the base \
                     step %g s; the generated schedule rounds it"
                    (Model.block_name m b) period comp.Compile.base_dt))
          else None
      | _ -> None)
    (Model.blocks m)

let findings ?project ?comp m =
  structural m @ advisory m
  @ (match project with Some p -> project_findings p m | None -> [])
  @ match comp with Some c -> rate_findings c | None -> []
