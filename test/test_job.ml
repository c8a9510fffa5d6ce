(* The job model shared by the CLI and `ecsd serve`: serve's line
   grammar, the range checks, the CLI-flag/serve-line correspondence,
   and one job run and encoded at library level. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let ok_or_fail = function Ok job -> job | Error e -> Alcotest.fail e

(* ---- range checks ---- *)

let test_out_of_range_lines () =
  List.iter
    (fun (line, frag) ->
      match Job.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e ->
          check_bool (Printf.sprintf "%S: %S mentions %S" line e frag) true
            (contains frag e);
          check_bool "error ends with the grammar" true (contains Job.usage e))
    [
      ("faultsim encoder-dropout -3", "seed count must be >= 1");
      ("faultsim encoder-dropout 0", "seed count must be >= 1");
      ("faultsim encoder-dropout 1 nan", "t_end must be finite");
      ("faultsim encoder-dropout 1 inf", "t_end must be finite");
      ("faultsim encoder-dropout 1 -1", "t_end must be finite and > 0");
      ("faultsim encoder-dropout 1 0", "t_end must be finite and > 0");
      ("diff servo 0", "step count must be >= 1");
      ("diff servo -5", "step count must be >= 1");
      ("diff nosuch 100", "unknown model");
      ("diff servo 100 - 1 turbo", "bad engine");
      ("faultsim encoder-dropout 4 notafloat", "bad t_end");
      ("faultsim", "bad job line");
      ("stats now", "bad job line");
      ("diff servo 1 - 1 compiled extra", "bad job line");
    ]

let test_cli_range_checks () =
  let rejects what r =
    check_bool what true (match r with Error _ -> true | Ok _ -> false)
  in
  rejects "--seeds 0" (Job.faultsim_job ~seeds:0 ());
  rejects "--t-end nan" (Job.faultsim_job ~t_end:Float.nan ());
  rejects "--steps 0" (Job.diff_job ~steps:0 ());
  rejects "diff --seeds 0" (Job.diff_job ~scenario:"noise-burst" ~seeds:0 ());
  rejects "sweep without a scenario" (Job.diff_job ~seeds:4 ())

(* ---- the same job from either front door ---- *)

let test_cli_equals_serve () =
  let same line cli =
    Alcotest.(check bool) line true (ok_or_fail (Job.of_line line) = ok_or_fail cli)
  in
  same "stats" (Ok Job.Stats);
  same "faultsim sensor-stuck" (Job.faultsim_job ~scenario:"sensor-stuck" ());
  same "faultsim sensor-stuck 7" (Job.faultsim_job ~scenario:"sensor-stuck" ~seeds:7 ());
  same "faultsim sensor-stuck 7 1.5"
    (Job.faultsim_job ~scenario:"sensor-stuck" ~seeds:7 ~t_end:1.5 ());
  same "diff isr-demo" (Job.diff_job ~model:"isr-demo" ());
  same "diff servo 200" (Job.diff_job ~model:"servo" ~steps:200 ());
  same "diff servo 200 -" (Job.diff_job ~steps:200 ());
  same "diff servo 200 noise-burst"
    (Job.diff_job ~steps:200 ~scenario:"noise-burst" ());
  same "diff servo 200 noise-burst 3"
    (Job.diff_job ~steps:200 ~scenario:"noise-burst" ~fault_seed:3 ());
  same "diff isr-demo 200 - 3 both"
    (Job.diff_job ~model:"isr-demo" ~steps:200 ~fault_seed:3
       ~engine:Silvm_diff.Both ());
  (* the defaults live in one place *)
  same "diff servo" (Ok (Job.Diff Job.default_diff));
  same "faultsim encoder-dropout" (Ok (Job.Faultsim Job.default_faultsim))

(* ---- parser robustness ---- *)

let words =
  [ "faultsim"; "diff"; "stats"; "servo"; "isr-demo"; "encoder-dropout";
    "noise-burst"; "-"; "compiled"; "interp"; "both"; "0"; "1"; "-3"; "5";
    "1000"; "nan"; "inf"; "-inf"; "2.0"; "-1"; "1e308"; "0x10"; "1_0";
    "bogus"; "\t"; "" ]

let prop_of_line_total =
  let open QCheck2 in
  let bytes = Gen.string_size ~gen:Gen.char (Gen.int_bound 48) in
  let tokens =
    Gen.map (String.concat " ") (Gen.list_size (Gen.int_bound 7) (Gen.oneofl words))
  in
  Test.make ~count:2000 ~name:"of_line: bad_request or a valid job, never raises"
    ~print:(Printf.sprintf "%S")
    (Gen.frequency [ (1, bytes); (3, tokens) ])
    (fun line ->
      match Job.of_line line with
      | Error _ -> true
      | Ok job -> Job.validate job = Ok job)

(* ---- one job at library level ---- *)

let test_run_and_encode () =
  let job = ok_or_fail (Job.of_line "diff isr-demo 60 noise-burst 2") in
  let outcome = Job.run Servo_system.default_config job in
  let encode fields = Bench_json.to_string (Bench_json.Obj fields) in
  let fields = Job.fields ~jobs_done:0 ~uptime_s:0.0 outcome in
  let record =
    "{\"job\":\"diff\",\"model\":\"isr_demo\",\"engine\":\"compiled\",\"steps_run\":60,\"scenario\":\"noise-burst\",\"divergence\":null,\"exit\":0"
  in
  check_string "serve record" (record ^ "}") (encode fields);
  Alcotest.(check int) "exit" 0 (Job.exit_code outcome);
  (* serve's envelope: a retried job carries its attempts, a failed one
     is an error record *)
  let supervised result attempts =
    encode (Job.supervised_fields { Supervise.result; attempts })
  in
  check_string "first attempt" (record ^ "}") (supervised (Ok fields) 1);
  check_string "retried" (record ^ ",\"attempts\":3}") (supervised (Ok fields) 3);
  check_string "timed out"
    "{\"job\":\"error\",\"class\":\"timeout\",\"error\":\"deadline of 0.05s exceeded\",\"attempts\":2,\"exit\":3}"
    (supervised (Error (Supervise.Timeout 0.05)) 2);
  List.iter
    (fun (err, job, exit) ->
      match Job.error_fields ~attempts:0 err with
      | [ ("job", Bench_json.Str j); _; _; _; ("exit", Bench_json.Int e) ] ->
          check_string "job field" job j;
          Alcotest.(check int) "exit field" exit e;
          Alcotest.(check int) "supervised_exit" exit (Job.supervised_exit err)
      | fields -> Alcotest.failf "unexpected record %s" (encode fields))
    [
      (Supervise.Crashed (Supervise.Bad_request "x"), "error", 2);
      (Supervise.Crashed Not_found, "error", 4);
      (Supervise.Transient "x", "error", 4);
      (Supervise.Poisoned { attempts = 3; last = "x" }, "error", 5);
      (Supervise.Shed, "shed", 6);
    ];
  (* an unknown scenario is a bad request when the job runs *)
  match Job.run Servo_system.default_config (ok_or_fail (Job.of_line "faultsim nosuch")) with
  | _ -> Alcotest.fail "unknown scenario ran"
  | exception Supervise.Bad_request e ->
      check_bool "names the scenario" true (contains "nosuch" e)

let test_partial_report () =
  let progress = Job.progress () in
  check_bool "nothing before the job starts" true (Job.partial_json progress = None);
  let job = ok_or_fail (Job.diff_job ~model:"isr-demo" ~steps:40 ~scenario:"noise-burst" ~seeds:3 ()) in
  ignore (Job.run ~progress Servo_system.default_config job);
  match Job.partial_json progress with
  | None -> Alcotest.fail "sweep has a partial report"
  | Some doc ->
      Alcotest.(check (option int)) "every seed recorded" (Some 3)
        (match Bench_json.member "seeds_done" doc with
        | Some (Bench_json.Int n) -> Some n
        | _ -> None)

(* ---- the README shows the grammar serve parses ---- *)

let test_readme_usage () =
  (* dune runs the suite from _build/default/test *)
  let path = if Sys.file_exists "../README.md" then "../README.md" else "README.md" in
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_bool "README carries Job.usage verbatim" true (contains Job.usage text)

let suite =
  [
    Alcotest.test_case "serve lines out of range are bad requests" `Quick
      test_out_of_range_lines;
    Alcotest.test_case "CLI flags out of range are rejected" `Quick
      test_cli_range_checks;
    Alcotest.test_case "CLI flags and serve lines build the same job" `Quick
      test_cli_equals_serve;
    QCheck_alcotest.to_alcotest prop_of_line_total;
    Alcotest.test_case "run and encode a serve job" `Quick test_run_and_encode;
    Alcotest.test_case "sweep progress feeds the partial report" `Quick
      test_partial_report;
    Alcotest.test_case "README serve grammar is Job.usage" `Quick test_readme_usage;
  ]
