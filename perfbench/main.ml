(* Benchmark runner: one workload, one seed, one closed-loop client.

     main.exe --workload campaign|lockstep|build --seed N --seconds S
              --trace 0|1 [--pool N]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that derives the per-layer metrics and
   writes one Chrome trace to perfbench/_out/. Human-readable lines go first; the last
   line of stdout is the JSON result. A wrong output exits 1. *)

open Perfbench
open Util

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  pool : int option;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--pool" :: v :: rest -> go { a with pool = Some (int_of_string v) } rest
    | x :: _ -> die "bad argument %S" x
  in
  try
    go
      { workload = ""; seed = 1; seconds = 10.0; trace = false; pool = None }
      (List.tl (Array.to_list argv))
  with Failure _ -> die "bad number in arguments"

(* ---- the closed loop ---- *)

type window = {
  latencies : float list;
      (** reference seconds (see [normalise]), one per
          attempted job, newest first *)
  raw : float list;  (** the same jobs' wall seconds *)
  failures : (string * string) list;  (** label, reason *)
}

(* A wall interval in reference seconds: less the share of the steal
   that fell on the [busy_cpus] CPUs it ran on, times the host-speed
   factor. Steal is counted in 10 ms ticks, so a job shorter than a tick
   may be charged a whole one; clamping at 0 keeps that rare case from
   going negative, and over a window the sum stays right. *)
let normalise ~busy_cpus ~scale ~stolen dt =
  Float.max 0.0 (dt -. (stolen /. float_of_int busy_cpus)) *. scale

let run_job (j : Jobs.job) =
  let t0 = now () in
  match j.Jobs.exec () with
  | check ->
      let dt = now () -. t0 in
      (dt, check ())
  | exception e -> (now () -. t0, Some (Printexc.to_string e))

(* One client submits the next job only when the previous one returned.
   The window runs for [seconds], and on until [min_jobs] jobs have
   completed so p90 has ten samples beyond it. *)
let measure ~scale ~busy_cpus ~stream ~seconds ~min_jobs =
  let lat = ref [] and raw = ref [] and fails = ref [] and n = ref 0 in
  let t_start = now () in
  let elapsed () = now () -. t_start in
  while !n < min_jobs || elapsed () < seconds do
    let j = stream () in
    let k = scale () in
    let s0 = steal_s () in
    let dt, bad = run_job j in
    lat := (normalise ~busy_cpus ~scale:k ~stolen:(steal_s () -. s0) dt) :: !lat;
    raw := dt :: !raw;
    incr n;
    Option.iter (fun e -> fails := (j.Jobs.label, e) :: !fails) bad
  done;
  { latencies = !lat; raw = !raw; failures = List.rev !fails }

(* jobs per second of client time inside jobs *)
let rate times = float_of_int (List.length times) /. List.fold_left ( +. ) 0.0 times
let throughput w = rate w.latencies

(* ---- set-up ---- *)

(* Cold set-up as a long-lived process pays it: caches empty, spawn the
   pool, warm every config the stream draws. It starts from a compacted
   heap: a set-up takes milliseconds, and without that, where the major
   GC happens to be moves it by a third. *)
let setup (w : Jobs.t) ~pool_size =
  Compile_cache.clear ();
  Silvm_compile.cache_clear ();
  Gc.compact ();
  let scale = host_scale () in
  let s0 = steal_s () in
  let t0 = now () in
  let pool =
    if w.Jobs.pooled then Some (Exec_pool.create ~workers:pool_size ()) else None
  in
  w.Jobs.warm ();
  let dt = now () -. t0 in
  (normalise ~busy_cpus:1 ~scale ~stolen:(steal_s () -. s0) dt, dt, pool)

(* ---- output ---- *)

let metric_json (name, v, unit_) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
    unit_

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

let print_metric (name, v, unit_) = Printf.printf "  %-32s %14.6g %s\n" name v unit_

let () =
  let a = parse Sys.argv in
  let w =
    match Jobs.find a.workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (choose %s)" a.workload
          (String.concat ", " (List.map (fun w -> w.Jobs.name) Jobs.all))
  in
  if not (a.seconds > 0.0) then die "--seconds must be positive";
  let nproc = nproc () in
  let pool_size = Option.value a.pool ~default:(min 2 nproc) in
  if pool_size < 1 then die "--pool must be at least 1";
  if pool_size > nproc then
    die "refusing a pool of %d workers on %d CPUs: it would oversubscribe"
      pool_size nproc;
  let rev = git_rev () in
  (* reports embed the rev: resolve it once instead of a git process per
     report *)
  Unix.putenv "ECSD_GIT_REV" rev;
  (* the CLI defaults: flight recorder armed, Obs registry off *)
  Flight.set_enabled true;
  Obs.set_enabled false;
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" w.Jobs.name a.seed
    a.seconds (if a.trace then 1 else 0);
  Printf.printf
    "host: nproc %d  recommended_domains %d  ocaml %s  git %s  pool %d\n%!" nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rev
    (if w.Jobs.pooled then pool_size else 1);
  let n_setups = if a.trace then 1 else 15 in
  let setups =
    List.init n_setups (fun i ->
        let s, raw, pool = setup w ~pool_size in
        if i < n_setups - 1 then Option.iter Exec_pool.shutdown pool;
        (s, raw, pool))
  in
  let setup_s = median (List.map (fun (s, _, _) -> s) setups) in
  let setup_raw = median (List.map (fun (_, r, _) -> r) setups) in
  let _, _, pool = List.nth setups (n_setups - 1) in
  let finish () = Option.iter Exec_pool.shutdown pool in
  let measure =
    match pool with
    | Some p -> measure ~scale:(pool_scale p) ~busy_cpus:(Exec_pool.size p)
    | None -> measure ~scale:host_scale ~busy_cpus:1
  in
  (* untimed warm-up: first-job effects stay out of the window *)
  let warm =
    measure ~stream:(w.Jobs.stream ~seed:(a.seed + 1_000_003) ~pool) ~seconds:0.0
      ~min_jobs:2
  in
  let min_jobs = 100 in
  let windows, metrics =
    if not a.trace then begin
      let win = measure ~stream:(w.Jobs.stream ~seed:a.seed ~pool) ~seconds:a.seconds ~min_jobs in
      let ms q = quantile win.latencies q *. 1e3 in
      Printf.printf "jobs %d, %d beyond p90\n" (List.length win.latencies)
        (beyond win.latencies 0.9);
      Printf.printf
        "wall clock: %.6g jobs/s, p50 %.6g ms, p90 %.6g ms, setup %.6g s; \
         reference kernel median %.4g us\n"
        (rate win.raw) (quantile win.raw 0.5 *. 1e3) (quantile win.raw 0.9 *. 1e3)
        setup_raw
        (1e6 *. median (List.map2 (fun r l -> reference_s *. r /. l) win.raw win.latencies));
      ( [ warm; win ],
        [
          ("throughput", throughput win, "jobs/s");
          ("job_ms_p50", ms 0.5, "ms");
          ("job_ms_p90", ms 0.9, "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ] )
    end
    else begin
      Obs.set_ring_capacity 65536;
      Obs.reset ();
      clear_layers ();
      (* Paired slices over the same job sequence: untraced (flight on,
         the CLI default), traced (Obs on too) and flight off. The
         order alternates between pairs so drift hits every side. *)
      let pairs = 2 in
      let slice_s = a.seconds /. float_of_int (3 * pairs) in
      (* the first slice sets the job count every other slice repeats *)
      let n_jobs = ref 0 in
      let slice seed (obs, flight) =
        Obs.set_enabled obs;
        Flight.set_enabled flight;
        let stream = w.Jobs.stream ~seed ~pool in
        let win =
          if !n_jobs = 0 then measure ~stream ~seconds:slice_s ~min_jobs:3
          else measure ~stream ~seconds:0.0 ~min_jobs:!n_jobs
        in
        n_jobs := List.length win.latencies;
        Obs.set_enabled false;
        Flight.set_enabled true;
        win
      in
      let results =
        List.init pairs (fun i ->
            let modes = [ (false, true); (true, true); (false, false) ] in
            let ordered = if i mod 2 = 0 then modes else List.rev modes in
            let wins = List.map (slice (a.seed + i)) ordered in
            match if i mod 2 = 0 then wins else List.rev wins with
            | [ u; t; f ] -> (u, t, f)
            | _ -> assert false)
      in
      let trace_overhead =
        median (List.map (fun (u, t, _) -> 1.0 -. (throughput t /. throughput u)) results)
      in
      let flight_overhead =
        median (List.map (fun (u, _, f) -> 1.0 -. (throughput u /. throughput f)) results)
      in
      Obs.set_enabled true;
      let per_layer =
        Layers.collect w ~seed:a.seed ~pool ~pool_size ~trace_overhead
          ~flight_overhead
      in
      Obs.set_enabled false;
      let dir = "perfbench/_out" in
      let path = Printf.sprintf "%s/trace-%s-%d.json" dir w.Jobs.name a.seed in
      (try
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         Obs.write_chrome_trace ~path;
         Printf.printf "chrome trace: %s\n" path
       with Sys_error e -> Printf.printf "chrome trace not written: %s\n" e);
      (warm :: List.concat_map (fun (u, t, f) -> [ u; t; f ]) results, per_layer)
    end
  in
  let final = w.Jobs.final_check ~seed:a.seed in
  finish ();
  let attempted = List.fold_left (fun n win -> n + List.length win.latencies) 0 windows in
  let failures =
    List.concat_map (fun win -> win.failures) windows
    @ List.map (fun e -> ("final check", e)) final
  in
  let failed = List.length failures in
  List.iteri
    (fun i (label, e) -> if i < 10 then Printf.printf "FAILED %s: %s\n" label e)
    failures;
  Printf.printf "failed_frac %g (%d of %d jobs)\n" (float_of_int failed /. float_of_int attempted) failed attempted;
  List.iter print_metric metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
