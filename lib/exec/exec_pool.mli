(** Work-stealing domain pool: the campaign job engine.

    A fixed set of worker domains, one {!Wsdeque} each, plus an
    injector queue for outside submissions. Three front doors:

    - {!sweep} — the seeded sweep every campaign command runs on
      ([faultsim], [diff --seeds], [check]): evaluate [f ctx i] for
      [i = 0 .. n-1] over per-domain contexts and return the results in
      index order, on the pool or on the calling domain alone.
    - {!run_map} — the fork-join map under {!sweep}: the range splits
      recursively through the deques, so load balances by stealing;
      results land in their slots regardless of which domain computed
      them, making the output deterministic under any schedule.
    - {!submit} — fire-and-forget: queue a task for whichever worker
      picks it up first ([ecsd serve]'s entry point; ordering is the
      caller's business).

    Workers publish their observability sinks ({!Obs.publish}) when a
    fork-join leaf completes and when they go idle, so campaign
    counters and histograms survive the pool. *)

type t

val create : ?workers:int -> unit -> t
(** Spawn [workers] domains (default
    [Domain.recommended_domain_count ()]). *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** [create], run, always {!shutdown}. *)

val shutdown : t -> unit
(** Stop accepting scheduled work, wake every worker and join their
    domains. Idempotent. Pending injector tasks are dropped; in-flight
    tasks complete. *)

val size : t -> int
(** Number of worker domains. *)

val run_map : t -> int -> (int -> 'a) -> 'a array
(** [run_map pool n f] evaluates [f] at [0..n-1] on the pool, one index
    per leaf, and returns [[| f 0; ...; f (n-1) |]]. Blocks the calling
    domain until all leaves finish. A raising [f i] aborts the map: the
    exception of the {e lowest} failing index is re-raised here after
    all leaves have finished — deterministic under any schedule.
    Per-item failure records come from {!Supervise}, not from here. *)

val sweep : ?pool:t -> mk:(unit -> 'c) -> int -> ('c -> int -> 'a) -> 'a array
(** [sweep ?pool ~mk n f] returns [[| f c 0; ...; f c (n-1) |]], where
    [c] is the context of the domain that evaluated the item. Use it
    for per-seed work over mutable per-job state (a simulation subject,
    a diff context) that domains must not share.

    With a [pool] and [n > 1] the items are sharded by {!run_map}: each
    domain builds its own context with [mk] on first use, the calling
    domain first — so a configuration error surfaces on the caller —
    and every context is dropped when the call returns or raises, so a
    long-lived pool keeps none of them. Without a pool, or with
    [n <= 1], the calling domain builds one context and runs every item
    on it in index order. Either way the result is the same array when
    [f] depends only on the context's configuration and the index. *)

val submit : t -> (unit -> unit) -> unit
(** Queue one task. An exception escaping it is counted
    ([exec.task_errors]) and routed to the pool's error hook — or
    stderr when none is set — and the worker keeps serving. *)

val quiesce : t -> unit
(** Block until every task submitted so far — and every task those
    spawned — has finished, including the error-hook call of a task
    that raised. Call it from outside the pool (a worker waiting on its
    own pool deadlocks) and before {!shutdown}, which drops queued
    tasks. *)

val set_error_hook : t -> (exn -> unit) -> unit
(** Route exceptions escaping {!submit}ted tasks to [hook] instead of
    stderr. The hook runs on the worker domain that ran the task and
    must synchronize its own state; exceptions it raises are dropped. *)

val queue_depth : t -> int
(** Tasks sitting in the injector queue (submitted, not yet picked up)
    — the backpressure signal for bounded-queue admission. *)
