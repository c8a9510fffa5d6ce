(** Work-stealing domain pool: the campaign job engine.

    A fixed set of worker domains, one {!Wsdeque} each, plus an
    injector queue for outside submissions. Two front doors:

    - {!run_map} — fork-join: evaluate [f 0 .. f (n-1)] across the
      pool and return the results in index order. The range splits
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

val run_map :
  t ->
  ?chunk:int ->
  ?on_error:[ `Abort | `Record of int -> exn -> 'a ] ->
  int ->
  (int -> 'a) ->
  'a array
(** [run_map pool n f] evaluates [f] at [0..n-1] on the pool and
    returns [[| f 0; ...; f (n-1) |]]. Blocks the calling domain until
    all leaves finish. [chunk] (default 1) is the largest index range
    one leaf executes serially.

    [on_error] decides what a raising [f i] does to the campaign:
    - [`Abort] (default): the exception of the {e lowest} failing index
      is re-raised here after all leaves have finished — deterministic
      under any schedule.
    - [`Record handler]: slot [i] gets [handler i e] instead, so the
      campaign completes with per-item error records; the merged array
      stays deterministic because the record depends only on [(i, e)].
      An exception escaping the handler itself aborts as above. *)

val with_contexts : t -> (unit -> 'c) -> ((unit -> 'c) -> 'a) -> 'a
(** [with_contexts pool mk body] runs [body get]. [get ()] returns the
    calling domain's own context, built by [mk] on that domain's first
    [get]: one per worker of [pool], plus one for the domain that called
    [with_contexts]. Use it for mutable per-job state (a simulation
    subject, a diff context) that {!run_map} leaves inside [body] must
    not share across domains. The contexts are dropped when [body]
    returns or raises, so a long-lived pool keeps none of them. *)

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
