type t = {
  mcu : Mcu_db.t;
  resources : Resources.t;
  mutable bean_list : Bean.t list;  (* insertion order, reversed *)
}

let create mcu = { mcu; resources = Resources.create mcu; bean_list = [] }
let mcu t = t.mcu
let resources t = t.resources
let beans t = List.rev t.bean_list

let find t name =
  match List.find_opt (fun b -> b.Bean.bname = name) t.bean_list with
  | Some b -> b
  | None -> raise Not_found

let add t bean =
  if List.exists (fun b -> b.Bean.bname = bean.Bean.bname) t.bean_list then
    invalid_arg
      (Printf.sprintf "Bean_project.add: duplicate bean name %s" bean.Bean.bname);
  Bean.resolve bean t.resources;
  t.bean_list <- bean :: t.bean_list;
  bean

let remove t name =
  (match List.find_opt (fun b -> b.Bean.bname = name) t.bean_list with
  | Some _ -> Resources.release_owner t.resources name
  | None -> ());
  t.bean_list <- List.filter (fun b -> b.Bean.bname <> name) t.bean_list

(* Read-only: code generation may run on several domains over one
   shared project, so it must not re-resolve (which releases and
   re-claims every bean's resources in place). Beans resolve when they
   are added, so their recorded state is current. *)
let status t =
  let msgs =
    List.concat_map
      (fun b ->
        match b.Bean.errors with
        | [] when b.Bean.resolved = None ->
            [ Printf.sprintf "%s: not resolved" b.Bean.bname ]
        | errs -> List.map (fun e -> Printf.sprintf "%s: %s" b.Bean.bname e) errs)
      (beans t)
  in
  if msgs = [] then Ok () else Error msgs

let verify t =
  (* Re-resolve in insertion order so resource allocation is stable. *)
  List.iter (fun b -> Bean.resolve b t.resources) (beans t);
  status t

let retarget t mcu' =
  let t' = create mcu' in
  List.iter
    (fun b ->
      let copy = Bean.make ~name:b.Bean.bname b.Bean.config in
      ignore (add t' copy))
    (beans t);
  t'

let hal_units t =
  (match status t with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg
        ("Bean_project.hal_units: unresolved beans:\n" ^ String.concat "\n" msgs));
  Bean_code.types_header t.mcu
  :: Bean_code.isr_vector_table t.mcu (beans t)
  :: List.map (Bean_code.unit_of_bean t.mcu) (beans t)

let hal_loc t =
  List.fold_left (fun acc u -> acc + C_print.loc (C_print.print_unit u)) 0
    (hal_units t)
