(** Request dispatch for the [xenergy serve] daemon.

    A request is one JSON object with an ["op"] field; the router
    decodes it, runs the matching {!Service} op (the one [xenergy]'s
    commands run) and encodes the result, answering with one JSON object
    that always carries ["ok"] (and, on failure, ["error"], the
    {!Service.message} text the CLI prints).  The ops that need a model
    also answer ["model_key"] and ["registry_hit"] (was it already
    resident?).  Supported ops:

    - [ping] — liveness; echoes the daemon pid.
    - [estimate] — [{"op": "estimate", "workloads": ["gcd", ...],
      "config": {...}?}]: {!Service.estimate}, one row per name
      (energy_pj, energy_uj, cycles, instructions of its
      {!Core.Estimate.result}, and ["cached"]).  Misses simulate on a
      persistent {!Core.Parallel} pool; a warm request runs zero
      simulations, and a workload named twice simulates once.
    - [attribute] — [{"op": "attribute", "workload": NAME,
      "bucket_cycles": N?, "config": {...}?}]: {!Service.attribute}, its
      {!Core.Attribution.to_json} under ["attribution"] (what [xenergy
      attribute --json] prints under the same key).
    - [profile] — [{"op": "profile", "workload": NAME, "top": N?,
      "config": {...}?}]: {!Service.profile}, its
      {!Core.Profiler.to_json} under ["profile"] (what [xenergy profile
      --json] prints).  [top] truncates the block list; omit it to get
      every executed block (what conservation checks need).
    - [audit] — [{"op": "audit", "workloads": [...]?, "config":
      {...}?}]: {!Service.audit}, its {!Core.Audit.to_json} under
      ["audit"] (default workloads: the Table II applications).
    - [explore] — [{"op": "explore", "space": NAME}]: {!Service.explore}
      over a named space (["rs"], ["rs-cache"], ["mac-widths"]) against
      the live registry.  One row per candidate in space order (energy,
      cycles, ["cached"], ["frontier"] membership), the Pareto
      ["frontier"] names and the sweep counters ([candidates],
      [configs], [registry_hits], [simulations]).
    - [metrics] — the live registry as an OpenMetrics text exposition
      ({!Obs.Export.to_openmetrics}) in the ["exposition"] field; this
      is the daemon's [/metrics] endpoint.
    - [stats] — registry/cache/pool counters as JSON, for tests and
      quick inspection.
    - [status] — live introspection for dashboards ([xenergy top]):
      per-op request/error counts and rates, p50/p90/p99 estimated from
      the [serve_request_seconds{op}] histogram buckets
      ({!Obs.Export.quantile}) over the window and cumulatively, inflight
      counts, registry, eval-cache, pool and connection gauges.  The
      window (the last 60s) is poller-driven: each
      call pushes a metrics snapshot into a ring pruned to the window and
      diffs against the oldest survivor, so the first call reports
      whole-uptime values.
    - [shutdown] — acknowledge, then flag the server loop to stop.

    {b One scope, one id.}  {!handle} runs each request under its
    {!Obs.Trace.context} and its ["backend"]: dispatch, pool batches and
    the [serve:error], [serve:slow-request] and [serve:request] log
    lines.  The optional fields ["trace_id"] and ["parent_span_id"]
    adopt the client's ids; otherwise fresh ids are minted.  The response
    always echoes ["trace_id"].

    {b Tracing and timings.}  With tracing enabled the router records a
    [serve:<op>] span plus the {!Service.phase} child spans, and the
    context rides into forked pool workers so item spans share the
    request's trace_id.  A request carrying ["timings": true] gets a
    ["timings"] object back: [total_us] (wall time from frame receipt to
    response construction) and [phases] (queue/parse/registry/cache/
    simulate/serialize/other, microseconds, from {!Service.timed}) that
    sums to [total_us] exactly, unattributed time being [other].
    Requests slower than [create]'s [slow_ms] emit a
    [serve:slow-request] warn log line with the op, total, trace_id and
    the same breakdown, and count in [serve_slow_requests_total{op}].

    [config] objects override {!Sim.Config.default} field-wise; the keys
    are [icache_size_bytes], [icache_ways], [icache_line_bytes],
    [icache_miss_penalty] (same four with [dcache_]),
    [branch_taken_penalty], [window_penalty], [freq_mhz] and
    [max_cycles].  Integer fields ([bucket_cycles], [top] and every
    [config] key but [freq_mhz]) must be integral numbers in the [int]
    range.  Any per-request failure (an unknown key, an invalid
    geometry, a bad field) is answered as [{"ok": false, "error": ...}]
    naming the op and the field, never a crash.

    Any request may carry a ["backend"] ({!Sim.Backend.of_string}); it
    defaults to the daemon's [--backend] / [XENERGY_BACKEND] selection
    and is part of the request's scope, so a registry miss
    characterizes on it too and pool workers receive it with each
    batch.  The simulating ops echo it back; cache entries are keyed by
    it.

    The router is safe under the concurrent {!Server}: the registry and
    the evaluation cache lock themselves (characterization is
    single-flight per config hash), pool batches are serialized, and the
    backend override is scoped to the handling thread.  No request holds
    a lock across a whole audit or sweep. *)

type t

val create :
  ?jobs:int ->
  ?read_timeout_s:float ->
  ?cache_dir:string ->
  ?characterize:(Sim.Config.t -> Core.Template.model) ->
  ?model:string ->
  ?slow_ms:float ->
  unit ->
  t
(** The router's {!Service}: [jobs], [characterize] and [model] are
    {!Service.create}'s, its cache an {!Core.Eval_cache} over
    [cache_dir] (a miss characterizes over it, so a refit after a restart, or on a
    directory [xenergy explore --cache-dir] filled, simulates nothing;
    [model] preloads a coefficients file for the default
    configuration).  Estimate misses
    simulate on a persistent {!Core.Parallel} pool of [jobs] lanes
    with [read_timeout_s] as its hung-worker deadline.  [slow_ms]
    (default: off) is the slow-request log threshold in milliseconds.
    @raise Failure ["cannot load model: ..."] when [model] cannot be
    loaded (the pool is shut down first). *)

val handle : ?received:float -> ?parse_s:float -> t -> Obs.Json.t -> Obs.Json.t
(** Dispatch one parsed request.  [received] ([Unix.gettimeofday]
    seconds) is when the server finished reading the request frame —
    the phase breakdown's clock start; [parse_s] is the pre-measured
    JSON parse time, charged to the ["parse"] phase.  Omitting both
    (tests, embedding) starts the clock at dispatch. *)

val handle_text : ?received:float -> t -> string -> string
(** Parse, dispatch and print: what the server calls per frame.  It
    never raises: every reply is an object with a boolean ["ok"] and a
    string ["trace_id"], and a JSON parse failure is answered as an
    error response under a freshly minted trace id. *)

val stopped : t -> bool
(** Has a [shutdown] request been handled? *)

val shutdown : t -> unit
(** Flush the evaluation cache's hits and shut the worker pool down
    (reaping every lane).  Idempotent. *)
