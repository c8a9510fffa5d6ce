(* Content-hashed compile cache.

   Parallel campaigns build the same (model, config) once per job —
   [ecsd diff --seeds 32] constructs 32 structurally identical servo
   models and would compile (rate resolution, type fixpoint, execution
   ordering) each of them. The cache keys on a digest of everything
   [Compile.compile] can observe — block kinds, parameters, port and
   event wiring, sample-time specs, group membership, base dt — so
   structurally identical models share one [Compile.t]. The compiled
   artifact is immutable after construction and is only ever read by
   [Sim.create] and the code generators, so sharing one across domains
   is safe.

   Behaviour closures ([Block.spec.make]) are not hashed: a block's
   behaviour is a function of its kind and parameters, which are. *)

let cache : Compile.t Content_cache.t =
  Content_cache.create ~metrics:"exec" ~trace:"mil"

let digest m =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "model=%s\n" (Model.name m);
  List.iter
    (fun blk ->
      let spec = Model.spec_of m blk in
      addf "blk %d %s kind=%s in=%d out=%d params=[%s]" (Model.blk_index blk)
        (Model.block_name m blk) spec.Block.kind spec.Block.n_in
        spec.Block.n_out
        (Param.to_string spec.Block.params);
      addf " sample=%s"
        (Format.asprintf "%a" Sample_time.pp_spec spec.Block.sample);
      addf " ft=%s"
        (String.concat ""
           (Array.to_list
              (Array.map (fun f -> if f then "1" else "0") spec.Block.feedthrough)));
      Array.iteri
        (fun p ot ->
          match ot with
          | Block.Fixed_type d -> addf " o%d=%s" p (Dtype.to_string d)
          | Block.Same_as i -> addf " o%d=in%d" p i
          | Block.Type_fn _ -> addf " o%d=fn" p)
        spec.Block.out_types;
      (match Model.group_of m blk with
      | Some g -> addf " grp=%s" (Model.group_name m g)
      | None -> ());
      for p = 0 to spec.Block.n_in - 1 do
        match Model.driver m (blk, p) with
        | Some (src, sp) ->
            addf " i%d<-%d.%d" p (Model.blk_index src) sp
        | None -> addf " i%d<-_" p
      done;
      Array.iteri
        (fun k name ->
          match Model.event_target m (blk, k) with
          | Some g -> addf " ev%d(%s)->%s" k name (Model.group_name m g)
          | None -> addf " ev%d(%s)->_" k name)
        spec.Block.event_outs;
      addf "\n")
    (Model.blocks m);
  Digest.to_hex (Digest.string (Buffer.contents b))

let compile ?default_dt m =
  let key =
    Printf.sprintf "%s@dt=%s" (digest m)
      (match default_dt with None -> "-" | Some dt -> Printf.sprintf "%h" dt)
  in
  Content_cache.find_or_add cache key (fun () -> Compile.compile ?default_dt m)

let stats () = Content_cache.stats cache

let set_max_entries n = Content_cache.set_max_entries cache n

let clear () = Content_cache.clear cache
