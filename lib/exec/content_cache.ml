(* Bounded content-keyed memo table.

   One mutex per table, the build outside the lock and the first insert
   winning a race, so campaign throughput never blocks behind one long
   compile. The FIFO bound is a fine eviction policy here: campaign
   reuse is bursty, not LRU-shaped. *)

type 'a t = {
  lock : Mutex.t;
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for the bound *)
  mutable max_entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  trace : string;
  c_hits : Obs.counter;
  c_misses : Obs.counter;
  c_evictions : Obs.counter;
}

let create ~metrics ~trace =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 16;
    order = Queue.create ();
    max_entries = 64;
    hits = 0;
    misses = 0;
    evictions = 0;
    trace;
    c_hits = Obs.counter (metrics ^ ".cache.hits");
    c_misses = Obs.counter (metrics ^ ".cache.misses");
    c_evictions = Obs.counter (metrics ^ ".cache.evictions");
  }

let find_or_add t key build =
  let tag = String.sub key 0 (min 8 (String.length key)) in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Obs.add t.c_hits 1;
      Flight.engine (t.trace ^ ".cache.hit " ^ tag);
      v
  | None -> (
      Mutex.unlock t.lock;
      Obs.add t.c_misses 1;
      Flight.engine (t.trace ^ ".compile " ^ tag);
      let v = build () in
      Mutex.lock t.lock;
      match Hashtbl.find_opt t.table key with
      | Some existing ->
          t.hits <- t.hits + 1;
          Mutex.unlock t.lock;
          existing
      | None ->
          t.misses <- t.misses + 1;
          Hashtbl.replace t.table key v;
          Queue.push key t.order;
          (* a key is queued exactly while it is in the table *)
          let evicted = max 0 (Queue.length t.order - t.max_entries) in
          for _ = 1 to evicted do
            Hashtbl.remove t.table (Queue.pop t.order)
          done;
          t.evictions <- t.evictions + evicted;
          Mutex.unlock t.lock;
          if evicted > 0 then Obs.add t.c_evictions evicted;
          v)

let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses, t.evictions))

let set_max_entries t n =
  if n < 1 then invalid_arg "Content_cache.set_max_entries";
  Mutex.protect t.lock (fun () -> t.max_entries <- n)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
