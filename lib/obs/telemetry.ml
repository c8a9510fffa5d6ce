(* Exports of the Obs registry: the BENCH_<name>.json document,
   Prometheus-style text exposition and the JSONL heartbeat lines
   `ecsd serve` emits.

   Named [Telemetry] rather than [Metrics]: every library here is built
   with (wrapped false) and lib/control already owns the [Metrics] module
   (control-quality metrics). *)

let wall s =
  match Sys.getenv_opt "ECSD_WALL_ZERO" with
  | None | Some "" -> s
  | Some _ -> 0.0

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the registry uses
   dotted names, so map everything else to '_' *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let summary_json (hs : Obs.hist_summary) =
  Bench_json.Obj
    [
      ("count", Bench_json.Int hs.Obs.hs_count);
      ("min", Bench_json.Float hs.Obs.hs_min);
      ("max", Bench_json.Float hs.Obs.hs_max);
      ("mean", Bench_json.Float hs.Obs.hs_mean);
      ("p50", Bench_json.Float hs.Obs.hs_p50);
      ("p95", Bench_json.Float hs.Obs.hs_p95);
      ("p99", Bench_json.Float hs.Obs.hs_p99);
    ]

let of_snapshot (snap : Obs.snapshot) =
  let open Bench_json in
  [
    ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) snap.Obs.counters));
    ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) snap.Obs.gauges));
    ( "histograms",
      Obj (List.map (fun (k, hs) -> (k, summary_json hs)) snap.Obs.hists) );
  ]

let bench ~name ~steps ~wall_s ?(extra = []) snap =
  let open Bench_json in
  Obj
    ([
       ("name", Str name);
       ("git_rev", Str (git_rev ()));
       ("steps", Int steps);
       ("wall_s", Float wall_s);
       ( "steps_per_s",
         Float (if wall_s > 0.0 then float_of_int steps /. wall_s else 0.0) );
     ]
    @ extra
    @ of_snapshot snap)

let prometheus () =
  let snap = Obs.snapshot () in
  let b = Buffer.create 1024 in
  let metric ty name value_lines =
    let n = "ecsd_" ^ sanitize name in
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n ty);
    List.iter
      (fun (suffix, labels, v) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s%s %s\n" n suffix labels (Bench_json.float_str v)))
      value_lines
  in
  List.iter
    (fun (name, v) -> metric "counter" name [ ("", "", float_of_int v) ])
    snap.Obs.counters;
  List.iter (fun (name, v) -> metric "gauge" name [ ("", "", v) ]) snap.Obs.gauges;
  List.iter
    (fun (name, (hs : Obs.hist_summary)) ->
      metric "summary" name
        [
          ("", "{quantile=\"0.5\"}", hs.Obs.hs_p50);
          ("", "{quantile=\"0.95\"}", hs.Obs.hs_p95);
          ("", "{quantile=\"0.99\"}", hs.Obs.hs_p99);
          ("_sum", "", hs.Obs.hs_mean *. float_of_int hs.Obs.hs_count);
          ("_count", "", float_of_int hs.Obs.hs_count);
        ])
    snap.Obs.hists;
  Buffer.contents b

let write_prometheus ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (prometheus ()))

(* Heartbeat line for serve's stdout. All wall-derived fields go through
   {!wall} so ECSD_WALL_ZERO keeps the stream byte-comparable. *)
let heartbeat ~jobs_done ~inflight ~wall_s =
  let js =
    match
      List.assoc_opt "serve.job_s" (Obs.snapshot ()).Obs.hists
    with
    | Some hs -> hs
    | None ->
        {
          Obs.hs_count = 0;
          hs_min = 0.0;
          hs_max = 0.0;
          hs_mean = 0.0;
          hs_p50 = 0.0;
          hs_p95 = 0.0;
          hs_p99 = 0.0;
        }
  in
  let w = wall wall_s in
  Bench_json.Obj
    [
      ("heartbeat", Bench_json.Bool true);
      ("jobs_done", Bench_json.Int jobs_done);
      ("inflight", Bench_json.Int inflight);
      ("wall_s", Bench_json.Float w);
      ( "jobs_per_s",
        Bench_json.Float
          (if w > 0.0 then float_of_int jobs_done /. w else 0.0) );
      ("job_p50_s", Bench_json.Float (wall js.Obs.hs_p50));
      ("job_p95_s", Bench_json.Float (wall js.Obs.hs_p95));
      ("job_max_s", Bench_json.Float (wall js.Obs.hs_max));
    ]

let heartbeat_line ~jobs_done ~inflight ~wall_s =
  Bench_json.to_string (heartbeat ~jobs_done ~inflight ~wall_s)
