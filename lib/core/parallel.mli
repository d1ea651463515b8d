(** Fork-based worker pool for per-workload fan-out.

    One mechanism serves both uses: a pool of forked lanes.  A batch is
    split round-robin over the lanes, each lane computes its slice and
    marshals the results back over a pipe, and the parent reassembles
    them in input order — observably [List.map f xs].  {!create_pool}
    forks the lanes once and {!pool_map} feeds them many batches (the
    [xenergy serve] daemon); {!map} is a pool that lives for one call:
    it forks [min jobs n] lanes, each born with its slice of indices in
    memory, joins them and kills them.  [map] runs serially, without a
    fork, when [jobs <= 1] or the list has fewer than two elements.

    Every lane that fails — its batch could not be sent, it died, it
    wedged past [read_timeout_s], its computation raised or its results
    would not marshal — has its slice recomputed serially in the parent,
    so exceptions propagate with their real backtrace.  The pool is
    hang-proof and leak-free by construction, which is what lets it sit
    inside a long-lived daemon:

    - every child is reaped with an [EINTR]-retrying [waitpid]
      ({!reap}) — a signal landing mid-join can no longer leak a zombie;
    - parent-side payload reads can carry a deadline ([read_timeout_s]):
      each read is guarded by [select], and a lane that wedges past the
      deadline is killed, counted in
      [parallel_trace_dropped_lanes_total], logged as a
      [parallel:worker-timeout] record and its slice recomputed — the
      parent never blocks forever on a dead-but-silent pipe;
    - every pipe end is closed when its lane ends, on every path;
    - an invalid [XENERGY_JOBS] value is rejected with a
      [parallel:bad-jobs-env] {!Obs.Log} warning naming the value,
      instead of being silently replaced by the core count.

    Every degraded path is observable: counted in the [Obs.Metrics]
    registry ([parallel_serial_fallbacks_total],
    [parallel_failed_forks_total], [parallel_recomputed_slices_total],
    [parallel_recomputed_items_total],
    [parallel_trace_dropped_lanes_total],
    [parallel_pool_respawns_total]) and, for {!map_with_stats}, returned
    in {!run_stats}.  A lost lane also leaves a [parallel:lane-dropped]
    or [parallel:worker-timeout] trace instant.  With [Obs.Trace]
    enabled, lane [w] records its [item:i] spans on trace lane [w + 1]
    and ships them back with its results; the parent frames each slice
    with a [worker:w] span on that lane, from hand-off to payload, and
    times the marshalled read as a [join:w] span on lane 0.  The
    calling thread's trace context travels with every batch, so item
    spans and lane log lines carry the requester's [trace_id].

    A lane whose computation raises — or whose results cannot be
    marshalled — still ships its partial trace lane and metric
    increments back (the parent keeps them before recomputing the
    slice); only a lane that dies outright loses its trace lane, and
    that loss is counted and logged instead of disappearing silently. *)

val default_jobs : unit -> int
(** The [XENERGY_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()] (the available
    cores).  An unset or empty variable falls back silently; a present
    but invalid value (["0"], ["abc"]) additionally emits a
    [parallel:bad-jobs-env] {!Obs.Log} warning naming the rejected
    value, so a misconfigured deployment is visible in its logs. *)

val reap : int -> unit
(** [reap pid] — [Unix.waitpid] retried until it is not interrupted by a
    signal ([EINTR]).  Swallowing the interrupt (as a blanket exception
    handler would) leaks the child as a zombie; any other wait error
    means there is genuinely nothing to reap.  Used by every join in
    this module and exported for embedders that fork their own helpers
    (e.g. test harnesses spawning a daemon). *)

type run_stats = {
  jobs : int;                 (** planned workers: [min jobs n], 1 if serial *)
  workers_spawned : int;      (** forked workers that started *)
  failed_forks : int;         (** pipe/fork attempts that failed *)
  serial_fallback : bool;     (** parallelism requested, ran serially *)
  recomputed_slices : int;    (** workers whose slice was recomputed *)
  recomputed_items : int;     (** items computed in the parent *)
}

val no_stats : run_stats
(** The deliberate serial paths' statistics: one planned worker, all
    counts zero. *)

val map : ?jobs:int -> ?read_timeout_s:float -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] — [jobs] defaults to {!default_jobs}.  [f] must not
    rely on mutating shared state visible to the caller: it runs in a
    forked child whose writes are not seen by the parent (only the
    returned, marshalled value is).  The items themselves never cross a
    pipe, so they need not be marshal-safe; the SIGPIPE disposition is
    left alone.  [read_timeout_s] bounds how long
    the parent waits for any single worker's results (default: no
    bound); a worker that exceeds it is killed and its slice recomputed
    in the parent. *)

val map_with_stats :
  ?jobs:int -> ?read_timeout_s:float -> ('a -> 'b) -> 'a list ->
  'b list * run_stats
(** Like {!map}, also reporting how the pool degraded (if it did). *)

type ('a, 'b) pool
(** A persistent pool of forked workers computing ['a -> 'b], created
    once and reused across many {!pool_map} calls. *)

val create_pool :
  ?jobs:int -> ?read_timeout_s:float -> ('a -> 'b) -> ('a, 'b) pool
(** Fork [jobs] (default {!default_jobs}) persistent workers running the
    given function.  The function is fixed at creation (the fork
    captures it); the ['a] items sent later must be marshal-safe.
    [read_timeout_s] is the per-batch read deadline applied by every
    {!pool_map} (default: block).  [SIGPIPE] is set to ignore so a
    write to a just-died lane surfaces as a respawnable error rather
    than killing the embedding process. *)

val pool_map : ('a, 'b) pool -> 'a list -> 'b list
(** Observably [List.map f xs] over the pool's workers: items are
    partitioned round-robin over the live lanes, dead lanes are
    respawned first, and any lane that fails (send error, death, read
    timeout, in-worker exception) has its slice recomputed in the
    parent.  With no live lane at all the whole batch runs serially
    (counted as a serial fallback).

    The calling thread's [Obs.Trace] context (if any) is shipped with
    each batch and adopted by the lane for its duration, so worker item
    spans — which come back with the payload and are re-emitted by the
    parent — carry the requesting connection's [trace_id].
    @raise Invalid_argument if the pool has been shut down. *)

val pool_live : ('a, 'b) pool -> int
(** Number of currently live lanes (between 0 and [jobs]). *)

val shutdown_pool : ('a, 'b) pool -> unit
(** Kill every lane (idle between batches), close its pipes and reap it
    ({!reap} — no zombies).  Idempotent; {!pool_map} afterwards raises. *)
