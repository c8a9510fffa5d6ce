(** Bounded content-keyed memo table shared across domains: the one
    implementation behind the model compile cache ({!Compile_cache})
    and the SIL closure cache ([Silvm_compile.compile_cached]).

    Keys are content digests, so structurally identical inputs share
    one value, which must be immutable (it is read from any domain).
    The table holds at most a bounded number of entries (default 64)
    and evicts the oldest insertion first: a long [ecsd serve] session
    cycling through many configurations does not grow it without
    limit. *)

type 'a t

val create : metrics:string -> trace:string -> 'a t
(** A table counting into the [<metrics>.cache.hits], [.misses] and
    [.evictions] counters, and marking lookups on the flight
    recorder's engine track as [<trace>.cache.hit <key>] or
    [<trace>.compile <key>] (first 8 characters of the key). *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add t key build] returns the value cached under [key], or
    runs [build] outside the lock and caches its result. Concurrent
    first builds of one key may both run; the first insert wins and
    every caller gets the winner, the loser's build counting as a hit. *)

val stats : 'a t -> int * int * int
(** [(hits, misses, evictions)] since creation or {!clear}; every
    {!find_or_add} counts exactly one hit or one miss. *)

val set_max_entries : 'a t -> int -> unit
(** FIFO capacity bound; takes effect at the next insertion.
    @raise Invalid_argument when below 1. *)

val clear : 'a t -> unit
(** Drop every entry and zero the statistics. *)
