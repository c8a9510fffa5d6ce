(* The campaign job engine: Chase-Lev deque laws (sequential and under
   4 domains), fork-join pool semantics, the compile cache, and the
   deterministic observability-sink merge. *)

let () = Random.self_init ()

(* ---- wsdeque, owner-only: push/pop is LIFO, steal is FIFO ---- *)

let test_deque_lifo () =
  let q = Wsdeque.create ~capacity:2 () in
  for i = 1 to 100 do
    Wsdeque.push q i
  done;
  Alcotest.(check int) "size" 100 (Wsdeque.size q);
  for i = 100 downto 1 do
    Alcotest.(check (option int)) "pop order" (Some i) (Wsdeque.pop q)
  done;
  Alcotest.(check (option int)) "empty pop" None (Wsdeque.pop q);
  Alcotest.(check (option int)) "empty steal" None (Wsdeque.steal q)

let test_deque_steal_fifo () =
  let q = Wsdeque.create () in
  for i = 1 to 50 do
    Wsdeque.push q i
  done;
  for i = 1 to 20 do
    Alcotest.(check (option int)) "steal order" (Some i) (Wsdeque.steal q)
  done;
  (* owner pops the newest of what remains *)
  Alcotest.(check (option int)) "pop after steals" (Some 50) (Wsdeque.pop q)

(* qcheck: any interleaving of owner pushes and pops behaves like a
   stack over the not-yet-stolen suffix; we model with a list *)
let test_deque_model =
  QCheck.Test.make ~count:500 ~name:"wsdeque sequential model"
    QCheck.(list (int_bound 2))
    (fun ops ->
      let q = Wsdeque.create ~capacity:1 () in
      let stack = ref [] and fifo = ref [] and next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              incr next;
              Wsdeque.push q !next;
              stack := !next :: !stack
          | 1 -> (
              let expect =
                match !stack with
                | [] -> None
                | x :: rest ->
                    stack := rest;
                    Some x
              in
              match (Wsdeque.pop q, expect) with
              | Some a, Some b when a = b -> ()
              | None, None -> ()
              | _ -> QCheck.Test.fail_report "pop mismatch")
          | _ -> (
              (* steal takes the oldest unstolen = last of !stack *)
              let expect =
                match List.rev !stack with
                | [] -> None
                | x :: rest_rev ->
                    stack := List.rev rest_rev;
                    fifo := x :: !fifo;
                    Some x
              in
              match (Wsdeque.steal q, expect) with
              | Some a, Some b when a = b -> ()
              | None, None -> ()
              | _ -> QCheck.Test.fail_report "steal mismatch"))
        ops;
      true)

(* ---- wsdeque under 4 domains: one owner pushing/popping, three
   thieves stealing; every pushed element is consumed exactly once ---- *)

let test_deque_domains () =
  let n = 20_000 in
  let q = Wsdeque.create () in
  let seen = Array.make (n + 1) 0 in
  let seen_mutex = Mutex.create () in
  let done_ = Atomic.make false in
  let stolen = Atomic.make 0 in
  let thief () =
    let local = ref [] in
    let rec go () =
      match Wsdeque.steal q with
      | Some v ->
          local := v :: !local;
          Atomic.incr stolen;
          go ()
      | None -> if not (Atomic.get done_) then go ()
    in
    go ();
    Mutex.lock seen_mutex;
    List.iter (fun v -> seen.(v) <- seen.(v) + 1) !local;
    Mutex.unlock seen_mutex
  in
  let thieves = Array.init 3 (fun _ -> Domain.spawn thief) in
  let popped = ref [] in
  for i = 1 to n do
    Wsdeque.push q i;
    if i mod 3 = 0 then
      match Wsdeque.pop q with
      | Some v -> popped := v :: !popped
      | None -> ()
  done;
  (* drain what the thieves left behind *)
  let rec drain () =
    match Wsdeque.pop q with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_ true;
  Array.iter Domain.join thieves;
  Mutex.lock seen_mutex;
  List.iter (fun v -> seen.(v) <- seen.(v) + 1) !popped;
  Mutex.unlock seen_mutex;
  for i = 1 to n do
    if seen.(i) <> 1 then
      Alcotest.failf "element %d consumed %d times" i seen.(i)
  done;
  Alcotest.(check bool) "thieves participated" true (Atomic.get stolen > 0)

(* ---- pool: run_map determinism, ordering, nesting, errors ---- *)

let test_pool_map () =
  Exec_pool.with_pool ~workers:4 @@ fun pool ->
  let r = Exec_pool.run_map pool 1000 (fun i -> i * i) in
  Alcotest.(check int) "length" 1000 (Array.length r);
  Array.iteri
    (fun i v -> if v <> i * i then Alcotest.failf "slot %d: %d" i v)
    r;
  (* a second batch on the same pool *)
  let r2 = Exec_pool.run_map pool 10 (fun i -> i + 1) in
  Alcotest.(check (array int)) "second batch" [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] r2;
  Alcotest.(check (array int)) "empty" [||] (Exec_pool.run_map pool 0 (fun i -> i))

(* ---- sweep: per-domain contexts, caller first, index order ---- *)

let test_sweep_contexts () =
  Exec_pool.with_pool ~workers:3 @@ fun pool ->
  let built = ref [] and lock = Mutex.create () in
  let mk () =
    Mutex.protect lock (fun () -> built := Domain.self () :: !built);
    Domain.self ()
  in
  let r = Exec_pool.sweep ~pool ~mk 40 (fun owner i -> (owner, Domain.self (), i * i)) in
  Array.iteri
    (fun i (owner, dom, v) ->
      Alcotest.(check int) "index order" (i * i) v;
      Alcotest.(check bool) "context never crosses domains" true (owner = dom))
    r;
  let order = List.rev !built in
  Alcotest.(check bool) "calling domain builds first" true
    (List.hd order = Domain.self ());
  Alcotest.(check bool) "at most one context per domain" true
    (List.length order <= Exec_pool.size pool + 1)

let test_sweep_single () =
  let n = ref 0 in
  let mk () = incr n; !n in
  let seq = Exec_pool.sweep ~mk 5 (fun c i -> (c, i)) in
  Alcotest.(check (array (pair int int))) "one context, index order"
    [| (1, 0); (1, 1); (1, 2); (1, 3); (1, 4) |] seq;
  Exec_pool.with_pool ~workers:2 @@ fun pool ->
  Alcotest.(check (array (pair int int))) "n = 1 stays on the caller" [| (2, 0) |]
    (Exec_pool.sweep ~pool ~mk 1 (fun c i -> (c, i)));
  (* a failing build raises on the calling domain before any item runs *)
  let ran = Atomic.make 0 in
  match
    Exec_pool.sweep ~pool ~mk:(fun () -> failwith "bad config") 8 (fun () _ ->
        Atomic.incr ran)
  with
  | _ -> Alcotest.fail "expected the build error"
  | exception Failure msg ->
      Alcotest.(check string) "caller's error" "bad config" msg;
      Alcotest.(check int) "no item ran" 0 (Atomic.get ran)

let test_pool_error () =
  Exec_pool.with_pool ~workers:3 @@ fun pool ->
  match
    Exec_pool.run_map pool 50 (fun i ->
        if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i)
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      (* lowest failing index wins, deterministically *)
      Alcotest.(check string) "first failure" "boom 3" msg

let test_pool_submit () =
  Exec_pool.with_pool ~workers:2 @@ fun pool ->
  let hits = Atomic.make 0 in
  let total = 200 in
  let m = Mutex.create () and c = Condition.create () in
  for _ = 1 to total do
    Exec_pool.submit pool (fun () ->
        if Atomic.fetch_and_add hits 1 = total - 1 then begin
          Mutex.lock m;
          Condition.signal c;
          Mutex.unlock m
        end)
  done;
  Mutex.lock m;
  while Atomic.get hits < total do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Alcotest.(check int) "all ran" total (Atomic.get hits)

(* ---- compile cache ---- *)

let servo_controller () =
  let built = Servo_system.build () in
  built.Servo_system.controller

let test_compile_cache () =
  Compile_cache.clear ();
  let m1 = servo_controller () in
  let m2 = servo_controller () in
  Alcotest.(check string)
    "independent builds digest equal" (Compile_cache.digest m1)
    (Compile_cache.digest m2);
  let c1 = Compile_cache.compile m1 in
  let c2 = Compile_cache.compile m2 in
  Alcotest.(check bool) "shared artifact" true (c1 == c2);
  let h, m, _ = Compile_cache.stats () in
  Alcotest.(check int) "one miss" 1 m;
  Alcotest.(check int) "one hit" 1 h;
  (* different config => different digest *)
  let fixed =
    Servo_system.build
      ~config:
        {
          Servo_system.default_config with
          Servo_system.variant = Servo_system.Fixed_pid;
        }
      ()
  in
  if
    Compile_cache.digest fixed.Servo_system.controller
    = Compile_cache.digest m1
  then Alcotest.fail "distinct configs must not collide";
  (* dt is part of the key *)
  let c3 = Compile_cache.compile ~default_dt:1e-4 m1 in
  Alcotest.(check bool) "dt keyed" true (c3 != c1);
  Compile_cache.clear ()

(* the cache must hand out simulable artifacts: same trajectory as a
   fresh compile *)
let test_compile_cache_simulates () =
  Compile_cache.clear ();
  let built = Servo_system.build () in
  let closed = built.Servo_system.closed_loop in
  let fresh = Compile.compile closed in
  let cached = Compile_cache.compile closed in
  let run comp =
    let sim = Sim.create ~solver_substeps:3 comp in
    Sim.run sim ~until:0.2 ();
    Value.to_float (Sim.value_named sim built.Servo_system.speed_block 0)
  in
  Alcotest.(check (float 0.0)) "identical trajectory" (run fresh) (run cached);
  Compile_cache.clear ()

(* bounded cache: FIFO eviction keeps at most max_entries artifacts and
   counts the victims *)
let test_compile_cache_eviction () =
  Compile_cache.clear ();
  Compile_cache.set_max_entries 1;
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_max_entries 64;
      Compile_cache.clear ())
  @@ fun () ->
  let built = Servo_system.build () in
  let m1 = built.Servo_system.controller in
  let c1 = Compile_cache.compile m1 in
  (* same model under a different dt: a second key, evicting the first *)
  let _c2 = Compile_cache.compile ~default_dt:1e-4 m1 in
  let c1' = Compile_cache.compile m1 in
  Alcotest.(check bool) "evicted entry recompiled" true (c1 != c1');
  let hits, misses, evictions = Compile_cache.stats () in
  Alcotest.(check int) "no hits" 0 hits;
  Alcotest.(check int) "three misses" 3 misses;
  Alcotest.(check int) "two evictions" 2 evictions;
  (match Compile_cache.set_max_entries 0 with
  | () -> Alcotest.fail "set_max_entries 0 must be rejected"
  | exception Invalid_argument _ -> ())

(* the table behind both compile caches: a build racing another build
   of the same key loses to the first insert, and the bound evicts *)
let test_content_cache () =
  let t = Content_cache.create ~metrics:"test" ~trace:"test" in
  let racer = ref 0 in
  let v =
    Content_cache.find_or_add t "key-a" (fun () ->
        (* a second domain's build of the same key lands first *)
        ignore (Content_cache.find_or_add t "key-a" (fun () -> 2));
        incr racer;
        1)
  in
  Alcotest.(check int) "first insert wins" 2 v;
  Alcotest.(check int) "both builds ran" 1 !racer;
  Alcotest.(check int) "cached winner" 2 (Content_cache.find_or_add t "key-a" (fun () -> 3));
  Alcotest.(check (triple int int int)) "loser counts as a hit" (2, 1, 0)
    (Content_cache.stats t);
  Content_cache.set_max_entries t 1;
  ignore (Content_cache.find_or_add t "key-b" (fun () -> 4));
  Alcotest.(check int) "evicted entry rebuilt" 5
    (Content_cache.find_or_add t "key-a" (fun () -> 5));
  Alcotest.(check (triple int int int)) "two evictions" (2, 3, 2) (Content_cache.stats t);
  Content_cache.clear t;
  Alcotest.(check (triple int int int)) "cleared" (0, 0, 0) (Content_cache.stats t)

(* ---- obs export merge: associativity + determinism ---- *)

let export_with f =
  Obs.reset ();
  Obs.set_enabled true;
  f ();
  let e = Obs.Export.of_local () in
  Obs.set_enabled false;
  Obs.reset ();
  e

let test_export_merge () =
  let ea =
    export_with (fun () ->
        Obs.incr_counter ~by:3 "m.a";
        Obs.incr_counter ~by:1 "m.b";
        Obs.record_named "m.h" 1.0;
        Obs.record_named "m.h" 2.0)
  in
  let eb =
    export_with (fun () ->
        Obs.incr_counter ~by:4 "m.b";
        Obs.incr_counter ~by:5 "m.c";
        Obs.record_named "m.h" 4.0)
  in
  let ec =
    export_with (fun () ->
        Obs.incr_counter ~by:10 "m.a";
        Obs.record_named "m.h2" 8.0)
  in
  let open Obs.Export in
  let l = merge (merge ea eb) ec and r = merge ea (merge eb ec) in
  Alcotest.(check (list (pair string int)))
    "associative counters" (counters l) (counters r);
  Alcotest.(check (list (pair string int)))
    "commutative counters" (counters (merge ea eb)) (counters (merge eb ea));
  Alcotest.(check (list (pair string int)))
    "totals"
    [ ("m.a", 13); ("m.b", 5); ("m.c", 5) ]
    (counters l);
  let hist_counts e = List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists e) in
  Alcotest.(check (list (pair string int)))
    "associative hists" (hist_counts l) (hist_counts r);
  Alcotest.(check (list (pair string int)))
    "hist totals"
    [ ("m.h", 3); ("m.h2", 1) ]
    (hist_counts l);
  (match List.assoc_opt "m.h" (hists l) with
  | Some s ->
      Alcotest.(check (float 1e-9)) "hist sum exact mean" (7.0 /. 3.0) s.Obs.hs_mean;
      Alcotest.(check (float 1e-9)) "hist min" 1.0 s.Obs.hs_min;
      Alcotest.(check (float 1e-9)) "hist max" 4.0 s.Obs.hs_max
  | None -> Alcotest.fail "m.h missing");
  (* neutral element *)
  Alcotest.(check (list (pair string int)))
    "empty neutral" (counters l)
    (counters (merge empty l))

(* any permutation of exports merges to the same totals *)
let test_export_merge_deterministic =
  QCheck.Test.make ~count:100 ~name:"export merge order-independent"
    QCheck.(list (pair (int_bound 3) (int_range 1 5)))
    (fun entries ->
      let exports =
        List.map
          (fun (k, v) ->
            export_with (fun () ->
                Obs.incr_counter ~by:v (Printf.sprintf "perm.c%d" k);
                Obs.record_named "perm.h" (float_of_int v)))
          entries
      in
      let open Obs.Export in
      let fwd = List.fold_left merge empty exports in
      let rev = List.fold_left merge empty (List.rev exports) in
      counters fwd = counters rev
      && List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists fwd)
         = List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists rev))

(* workers' published counts reach the spawning domain's snapshot *)
let test_publish_across_domains () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let c = Obs.counter "pub.xdomain" in
      Exec_pool.with_pool ~workers:4 (fun pool ->
          ignore
            (Exec_pool.run_map pool 100 (fun i ->
                 Obs.add c 1;
                 i)));
      Alcotest.(check int) "all increments visible" 100 (Obs.counter_value c))

let qt t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "wsdeque LIFO pop" `Quick test_deque_lifo;
    Alcotest.test_case "wsdeque FIFO steal" `Quick test_deque_steal_fifo;
    qt test_deque_model;
    Alcotest.test_case "wsdeque 4-domain consume-once" `Quick test_deque_domains;
    Alcotest.test_case "pool run_map" `Quick test_pool_map;
    Alcotest.test_case "sweep contexts per domain" `Quick test_sweep_contexts;
    Alcotest.test_case "sweep on the calling domain" `Quick test_sweep_single;
    Alcotest.test_case "pool lowest-index error" `Quick test_pool_error;
    Alcotest.test_case "pool submit" `Quick test_pool_submit;
    Alcotest.test_case "compile cache dedup" `Quick test_compile_cache;
    Alcotest.test_case "compile cache simulates" `Quick
      test_compile_cache_simulates;
    Alcotest.test_case "compile cache eviction" `Quick
      test_compile_cache_eviction;
    Alcotest.test_case "content cache first insert wins" `Quick test_content_cache;
    Alcotest.test_case "export merge associative" `Quick test_export_merge;
    qt test_export_merge_deterministic;
    Alcotest.test_case "publish across domains" `Quick
      test_publish_across_domains;
  ]
