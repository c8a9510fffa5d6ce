(* Clock, seeded draws, order statistics and the host record. *)

let now () = Obs.now_ns () *. 1e-9

(* A deck deals every item once, in a seeded order, before reshuffling:
   a run's job mix then stays close to the catalogue's mix whatever the
   seed, which keeps throughput comparable across seeds. *)
type 'a deck = {
  items : 'a array;
  rng : Random.State.t;
  mutable order : int array;
  mutable pos : int;
}

let deck rng items =
  { items = Array.of_list items; rng; order = [||]; pos = 0 }

let draw d =
  if d.pos >= Array.length d.order then begin
    let n = Array.length d.items in
    let o = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int d.rng (i + 1) in
      let t = o.(i) in
      o.(i) <- o.(j);
      o.(j) <- t
    done;
    d.order <- o;
    d.pos <- 0
  end;
  let x = d.items.(d.order.(d.pos)) in
  d.pos <- d.pos + 1;
  x

(* nearest-rank quantile of an unsorted sample *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = quantile xs 0.5

(* samples strictly beyond the q-quantile: a p90 needs ten beyond it
   to be worth reporting *)
let beyond xs q =
  let v = quantile xs q in
  List.length (List.filter (fun x -> x > v) xs)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let status_field name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* peak resident set, from the kernel's high-water mark *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> nan)
  | None -> nan

(* CPUs this process may run on ("0-1,4" style list) *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] when a <> "" -> ignore (int_of_string a); 1
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 0
  in
  match status_field "Cpus_allowed_list" with
  | Some l -> (
      try
        List.fold_left
          (fun n r -> n + count_range (String.trim r))
          0 (String.split_on_char ',' l)
      with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* The checkout the benchmark runs in need not be a git repository, and
   spawning git per report would time a process start: read the rev
   from .git directly, once. *)
let git_rev () =
  let first path = match read_lines path with l :: _ -> Some (String.trim l) | [] -> None in
  let short r = if String.length r > 12 then String.sub r 0 12 else r in
  match first ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> (
          match first (Filename.concat ".git" ref_) with
          | Some r -> short r
          | None -> (
              let packed =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ sha; r ] when r = ref_ -> Some sha
                    | _ -> None)
                  (read_lines ".git/packed-refs")
              in
              match packed with Some r -> short r | None -> "unknown"))
      | _ -> short head)

(* Per-layer accounting for the traced run. Every layer call the
   benchmark makes goes through [layer]: while Obs is on it records an
   Obs span (the Chrome trace) and adds the same interval to a
   process-wide table the per-layer metrics are read from, since the
   span ring is bounded and the table is not. *)
let layer_table : (string, int * float) Hashtbl.t = Hashtbl.create 32
let layer_lock = Mutex.create ()

let add_layer_time name ns =
  Mutex.protect layer_lock (fun () ->
      let n, t =
        Option.value (Hashtbl.find_opt layer_table name) ~default:(0, 0.0)
      in
      Hashtbl.replace layer_table name (n + 1, t +. ns))

let layer name f =
  if not (Obs.enabled ()) then f ()
  else begin
    Obs.span_begin name;
    let t0 = Obs.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Obs.now_ns () -. t0 in
        Obs.span_end ();
        add_layer_time name dt)
      f
  end

(* (calls, mean milliseconds) of a layer so far *)
let layer_ms name =
  Mutex.protect layer_lock (fun () ->
      match Hashtbl.find_opt layer_table name with
      | Some (n, t) when n > 0 -> (n, t /. float_of_int n *. 1e-6)
      | _ -> (0, nan))

let clear_layers () = Mutex.protect layer_lock (fun () -> Hashtbl.reset layer_table)

(* Host-speed reference. The hosts this runs on change speed by up to a
   quarter over a few seconds (co-tenants, clock scaling), and averaging
   inside one run does not remove it. So every timed interval is paired
   with a fixed reference kernel timed just before it, and reported as
   [interval *. reference_s /. kernel time]: what the interval would
   take on a host where the kernel takes [reference_s]. The kernel
   allocates, sorts and hashes, like the pipelines it stands beside (a
   pure integer loop tracked the slowdowns of the jobs far less well),
   and it belongs to the benchmark, so no change to the program under
   test can move it. *)
let reference_s = 100e-6

let kernel () =
  let t0 = now () in
  let a =
    Array.of_list (List.init 150 (fun i -> ((i * 7919) land 4095, string_of_int i)))
  in
  Array.sort compare a;
  let h = Hashtbl.create 16 in
  Array.iter (fun (k, s) -> Hashtbl.replace h s k) a;
  now () -. t0

(* Seconds of CPU the hypervisor gave to other guests, summed over this
   guest's CPUs (the steal column of /proc/stat, in USER_HZ = 100 ticks).
   A job's wall time minus its share of the steal is the time it would
   have taken had its CPUs not been taken away. *)
let steal_s () =
  match read_lines "/proc/stat" with
  | l :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> (
          match int_of_string_opt steal with
          | Some t -> float_of_int t /. 100.0
          | None -> 0.0)
      | _ -> 0.0)
  | [] -> 0.0

(* factor that turns wall seconds measured now into reference seconds *)
let host_scale () = reference_s /. kernel ()

(* Pooled jobs run on every worker and wait for the slowest, so with a
   pool the kernel runs once per worker and the slowest run counts: a
   co-tenant on either core shows. *)
let pool_scale pool () =
  let times = Exec_pool.run_map pool (Exec_pool.size pool) (fun _ -> kernel ()) in
  reference_s /. Array.fold_left Float.max 0.0 times
