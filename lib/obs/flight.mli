(** Flight recorder: per-domain, fixed-capacity ring of binary trace events.

    Always-on-grade instrumentation for campaigns: recording an event is a
    handful of unboxed array stores on the owning domain (no lock, no
    allocation), and a disabled recorder costs one ref read.

    Events belong to a logical {e track} — the campaign seed or serve job
    id — not to the domain that executed them. A run calls {!begin_track}
    before stepping; on failure it calls {!capture}, which snapshots the
    last [capacity] events {e of that track} from the executing domain's
    ring. Because each track's events and its capture point are functions
    of the run alone, the resulting forensics bundles are byte-identical
    whatever [--jobs] is. Engine-level events (compile cache, closure
    compilation) are scheduling-dependent and live on the pseudo-track
    {!engine_track}, which is never captured into bundles.

    Bundles carry only virtual time (step index, simulated seconds).

    The same ring type is the process's one trace substrate: {!Obs}
    tracing spans are events of kind [Span], stored without allocation
    by {!span_r} into a separate wall-clock ring each Obs sink owns, on
    the recording domain's {!wall_track}. Those rings never share slots
    with the virtual-time ring above, so a run's capture window stays a
    function of the run alone. One writer, {!chrome_trace}, renders
    both [--trace] files and flight bundles.

    A span event is laid out as follows:
    {v
    ev_time   start, in monotonic seconds
    ev_value  duration, seconds
    ev_step   nesting depth (outermost = 0)
    ev_arg    the per-span count (Obs.bump)
    ev_label  the span name
    ev_track  wall_track of the recording domain (< engine_track)
    ev_seq    position in the recording ring's span sequence
    v} *)

type kind = Step | Signal | Fault | Engine | Mark | Span

val kind_name : kind -> string

type event = {
  ev_kind : kind;
  ev_track : int;
  ev_seq : int;  (** per-track sequence number, 0-based *)
  ev_step : int;  (** simulation step index, [-1] if not applicable *)
  ev_time : float;
      (** simulated seconds; a [Span]'s monotonic start (never in a bundle) *)
  ev_value : float;
  ev_arg : int;  (** kind-specific: port index, fired flag *)
  ev_label : string;
}

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enable recording process-wide. Flip before spawning worker domains. *)

val set_capacity : int -> unit
(** Ring slots per domain (default 4096). Takes effect for rings created
    after the call; also replaces the calling domain's ring. Set it before
    any worker domain records. *)

val capacity : unit -> int

val engine_track : int
(** Pseudo-track ([-1]) for compile/cache events; excluded from bundles. *)

val wall_track : int -> int
(** [wall_track dom] = [engine_track - 1 - dom]: the wall-clock track of
    domain [dom]'s spans; below {!engine_track}, so never captured. *)

val begin_track : id:int -> name:string -> unit
(** Start (or resume) logical track [id] on the calling domain and reset
    its per-track sequence counter. *)

val current_track : unit -> int

(** Hot-path recorders; no-ops when disabled. *)

val step_mark : step:int -> time:float -> string -> unit
val signal : step:int -> time:float -> port:int -> value:float -> string -> unit
val fault : ?step:int -> time:float -> fired:bool -> string -> unit
val engine : string -> unit
val mark : ?step:int -> ?time:float -> ?value:float -> string -> unit

(** {2 Rings and the batched hot path}

    [recorder ()] is the calling domain's ring, fetched once (one DLS
    lookup) and then used for a burst of events — e.g. one simulation
    step's marker plus every probed output. The [_r] recorders skip the
    {!enabled} check: only use them after [enabled ()] returned true,
    never share a ring across writing domains, and never hold the
    domain's ring beyond the current burst. *)

type ring

val recorder : unit -> ring
val step_mark_r : ring -> step:int -> time:float -> string -> unit

val signal_r :
  ring -> step:int -> time:float -> port:int -> value:float -> string -> unit

val create : int -> ring
(** A fresh, empty ring of [n >= 1] slots, owned by the caller (the Obs
    sinks' span rings). *)

val span_r :
  ring -> start_ns:int -> end_ns:int -> depth:int -> count:int -> string -> unit
(** Store a completed span on the calling domain's {!wall_track}, from
    two monotonic clock readings in nanoseconds. Allocates nothing. *)

val store_event : ring -> event -> unit
(** Store an event verbatim (track and sequence number included). *)

val events : ring -> event array
(** The ring's events, oldest first. *)

val clear : ring -> unit
(** Empty the ring (its capacity stays). *)

(** {2 Forensics capture} *)

type bundle = {
  b_track : int;
  b_name : string;
  b_reason : string;
  b_dropped : int;  (** events of this track evicted before capture *)
  b_events : event list;  (** ascending [ev_seq] *)
}

val capture : reason:string -> unit
(** Snapshot the calling domain's ring filtered to the current track into
    the global capture store. First capture per track wins. *)

val captures : unit -> bundle list
(** All captured bundles, sorted by track id. *)

val clear_captures : unit -> unit

val reset : unit -> unit
(** Clear captures and replace the calling domain's ring. *)

(** {2 Export} *)

val captures_jsonl : unit -> string
(** One JSONL document for all bundles: a header line per bundle followed
    by its events. Byte-identical however tracks were scheduled. *)

val chrome_trace :
  process:(string * Bench_json.t) list ->
  origin:float ->
  (string * event list) list ->
  string
(** The one Chrome-trace writer, in the JSON Array form
    (chrome://tracing, Perfetto): a [process_name] record whose args are
    [process], then per lane [(name, events)] a [thread_name] record and
    its events on tid = the lane's rank + 1. [Span] events become
    complete ["X"] events (wall clock: [ts] and [dur] rounded to the
    nanosecond), every other kind an instant ["i"] event; timestamps
    are microseconds since [origin] seconds. *)

val write_captures : prefix:string -> (string * string) option
(** Write [<prefix>.jsonl] and [<prefix>_trace.json] (the bundles through
    {!chrome_trace}, one lane per track, at simulated-microsecond
    timestamps) if any bundles were captured; [None] when there is
    nothing to write. *)

val event_json : event -> Bench_json.t
