(* Work-stealing domain pool.

   One deque per worker domain (Chase-Lev: owner LIFO, thieves FIFO)
   plus a mutex-guarded injector queue for work submitted from outside
   the pool. Fork-join work ([run_map]) divides its index range
   recursively: each split pushes one half to the executing worker's
   own deque and recurses on the other, so parallelism materialises
   exactly as fast as idle workers steal — the classic Cilk shape.

   Sleeping is conservative: a worker that finds nothing spins through
   a few scavenging rounds, publishes its observability sink, then
   blocks on a condition variable. Producers broadcast only when a
   sleeper is registered, so the steady-state hot path (busy workers
   trading tasks through deques) takes no lock. *)

type task = unit -> unit

type t = {
  workers : int;
  deques : task Wsdeque.t array;
  injector : task Queue.t; (* guarded by [lock] *)
  lock : Mutex.t;
  work_cond : Condition.t;
  mutable live : bool;
  mutable domains : unit Domain.t array;
  sleepers : int Atomic.t;
  outstanding : int Atomic.t;  (* queued or running tasks, error hook included *)
  quiet : Condition.t;  (* signalled, under [lock], when [outstanding] hits 0 *)
  mutable on_task_error : (exn -> unit) option;
  c_tasks : Obs.counter;
  c_task_errors : Obs.counter;
  c_steals : Obs.counter;
  h_task : Obs.hist;  (* per-task latency, seconds *)
}

(* which pool + worker slot the current domain belongs to, if any *)
let self_key : (t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let wake_all pool =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.work_cond;
    Mutex.unlock pool.lock
  end

let submit pool task =
  Atomic.incr pool.outstanding;
  Mutex.lock pool.lock;
  Queue.push task pool.injector;
  if Obs.enabled () then
    Obs.set_gauge "exec.injector_depth" (float_of_int (Queue.length pool.injector));
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.lock

(* push from inside a task: to the executing worker's own deque when we
   are on a pool worker, through the injector otherwise *)
let push_task pool task =
  match !(Domain.DLS.get self_key) with
  | Some (p, w) when p == pool ->
      Atomic.incr pool.outstanding;
      Wsdeque.push pool.deques.(w) task;
      wake_all pool
  | _ -> submit pool task

let take_injector pool =
  if Queue.is_empty pool.injector then None
  else begin
    Mutex.lock pool.lock;
    let r = Queue.take_opt pool.injector in
    Mutex.unlock pool.lock;
    r
  end

let steal_round pool w =
  let n = pool.workers in
  let rec go i =
    if i >= n then None
    else
      match Wsdeque.steal pool.deques.((w + i) mod n) with
      | Some _ as r ->
          Obs.add pool.c_steals 1;
          r
      | None -> go (i + 1)
  in
  go 1

let find_task pool w =
  match Wsdeque.pop pool.deques.(w) with
  | Some _ as r -> r
  | None -> (
      match take_injector pool with
      | Some _ as r -> r
      | None -> steal_round pool w)

let run_task pool task =
  Obs.add pool.c_tasks 1;
  (* a task must not kill its worker; fork-join wrappers catch and
     re-raise on the joining domain, so anything arriving here escaped
     a fire-and-forget submission — count it, route it through the
     error hook (or stderr), keep serving. Submitted jobs can no
     longer vanish silently. *)
  (try task ()
   with e -> (
     Obs.add pool.c_task_errors 1;
     match pool.on_task_error with
     | Some hook -> ( try hook e with _ -> ())
     | None ->
         prerr_endline
           ("exec_pool: uncaught exception in task: " ^ Printexc.to_string e)));
  (* the task is finished only now, after its error hook: [quiesce]
     waits for this point, not for the task body's own [finally] *)
  if Atomic.fetch_and_add pool.outstanding (-1) = 1 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.quiet;
    Mutex.unlock pool.lock
  end

let run_task_timed pool task =
  if Obs.enabled () then begin
    let t0 = Obs.now_ns () in
    run_task pool task;
    let d = (Obs.now_ns () -. t0) *. 1e-9 in
    Obs.record pool.h_task d;
    d
  end
  else begin
    run_task pool task;
    0.0
  end

let has_visible_work pool w =
  (not (Queue.is_empty pool.injector))
  || Array.exists (fun d -> Wsdeque.size d > 0) pool.deques
  || Wsdeque.size pool.deques.(w) > 0

let worker_loop pool w () =
  Domain.DLS.get self_key := Some (pool, w);
  let spin_budget = 64 in
  (* utilization = task time / wall time since the worker started; the
     gauge is refreshed whenever the worker goes idle *)
  let t_start = Obs.now_ns () in
  let busy = ref 0.0 in
  let rec loop spins =
    if pool.live then begin
      match find_task pool w with
      | Some task ->
          busy := !busy +. run_task_timed pool task;
          loop spin_budget
      | None ->
          if spins > 0 then begin
            Domain.cpu_relax ();
            loop (spins - 1)
          end
          else begin
            (* going idle: hand our sink to the spawning domain *)
            if Obs.enabled () then begin
              let total = (Obs.now_ns () -. t_start) *. 1e-9 in
              if total > 0.0 then
                Obs.set_gauge
                  (Printf.sprintf "exec.util.w%d" w)
                  (!busy /. total)
            end;
            Obs.publish ();
            Mutex.lock pool.lock;
            Atomic.incr pool.sleepers;
            (* rescan under the lock: a producer that saw sleepers = 0
               before our increment must have completed its push, which
               this scan observes; one that sees > 0 will broadcast and
               the broadcast serialises behind this critical section *)
            if pool.live && not (has_visible_work pool w) then
              Condition.wait pool.work_cond pool.lock;
            Atomic.decr pool.sleepers;
            Mutex.unlock pool.lock;
            loop spin_budget
          end
    end
  in
  loop spin_budget;
  Obs.publish ()

let create ?workers () =
  let workers =
    match workers with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Exec_pool.create: workers must be >= 1"
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      workers;
      deques = Array.init workers (fun _ -> Wsdeque.create ());
      injector = Queue.create ();
      lock = Mutex.create ();
      work_cond = Condition.create ();
      live = true;
      domains = [||];
      sleepers = Atomic.make 0;
      outstanding = Atomic.make 0;
      quiet = Condition.create ();
      on_task_error = None;
      c_tasks = Obs.counter "exec.tasks";
      c_task_errors = Obs.counter "exec.task_errors";
      c_steals = Obs.counter "exec.steals";
      h_task = Obs.hist "exec.task_s";
    }
  in
  pool.domains <-
    Array.init workers (fun w -> Domain.spawn (worker_loop pool w));
  pool

let shutdown pool =
  if pool.live then begin
    Mutex.lock pool.lock;
    pool.live <- false;
    Condition.broadcast pool.work_cond;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.domains
  end

let quiesce pool =
  Mutex.lock pool.lock;
  while Atomic.get pool.outstanding > 0 do
    Condition.wait pool.quiet pool.lock
  done;
  Mutex.unlock pool.lock

let size pool = pool.workers
let set_error_hook pool hook = pool.on_task_error <- Some hook

let queue_depth pool =
  Mutex.lock pool.lock;
  let n = Queue.length pool.injector in
  Mutex.unlock pool.lock;
  n

let with_pool ?workers f =
  let pool = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ---- fork-join map ---- *)

let record_failure failed i e bt =
  (* keep the lowest-index failure: deterministic regardless of which
     leaf's exception lost the race *)
  let rec go () =
    let cur = Atomic.get failed in
    let better = match cur with None -> true | Some (j, _, _) -> i < j in
    if better && not (Atomic.compare_and_set failed cur (Some (i, e, bt)))
    then go ()
  in
  go ()

let run_map pool n f =
  if n < 0 then invalid_arg "Exec_pool.run_map";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let failed = Atomic.make None in
    let bm = Mutex.create () and bc = Condition.create () in
    let rec range lo hi () =
      if hi - lo = 1 then begin
        (match f lo with
        | v -> results.(lo) <- Some v
        | exception e -> record_failure failed lo e (Printexc.get_raw_backtrace ()));
        (* publish before the barrier releases so the joining domain's
           snapshot includes this leaf's counts *)
        if Obs.enabled () then Obs.publish ();
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock bm;
          Condition.signal bc;
          Mutex.unlock bm
        end
      end
      else begin
        let mid = lo + ((hi - lo) / 2) in
        push_task pool (range mid hi);
        range lo mid ()
      end
    in
    submit pool (range 0 n);
    Mutex.lock bm;
    while Atomic.get remaining > 0 do
      Condition.wait bc bm
    done;
    Mutex.unlock bm;
    (match Atomic.get failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* ---- seeded sweep over per-domain contexts ---- *)

let sweep ?pool ~mk n f =
  match pool with
  | Some pool when n > 1 ->
      (* one context slot per worker, plus the last for the calling
         domain; each slot is only ever touched by the domain it
         belongs to *)
      let slots = Array.make (pool.workers + 1) None in
      let ctx () =
        let k =
          match !(Domain.DLS.get self_key) with
          | Some (p, w) when p == pool -> w
          | _ -> pool.workers
        in
        match slots.(k) with
        | Some c -> c
        | None ->
            let c = mk () in
            slots.(k) <- Some c;
            c
      in
      (* a stolen task stays in its deque slot until a later push
         overwrites it, so [ctx] can outlive the call: empty the slots
         explicitly *)
      Fun.protect
        ~finally:(fun () -> Array.fill slots 0 (Array.length slots) None)
        (fun () ->
          (* the calling domain builds first, so a configuration error
             surfaces here rather than on a worker *)
          ignore (ctx ());
          run_map pool n (fun i -> f (ctx ()) i))
  | _ -> Array.init n (f (mk ()))
