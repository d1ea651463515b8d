(** Request dispatch for the [xenergy serve] daemon.

    A request is one JSON object with an ["op"] field; the router maps
    it to the estimation pipeline and answers with one JSON object that
    always carries ["ok"] (and, on failure, ["error"]).  Supported ops:

    - [ping] — liveness; echoes the daemon pid.
    - [estimate] — [{"op": "estimate", "workloads": ["gcd", ...],
      "config": {...}?, "backend": NAME?}]: energy of each named
      workload under the (optionally overridden) processor
      configuration.  The model comes
      from the {!Registry} (characterize once per configuration), the
      per-workload profiles from {!Core.Eval_cache.collect} over the shared
      {!Core.Eval_cache} (simulate once per (workload, configuration));
      cache misses are fanned out over a persistent {!Core.Parallel}
      pool.  The response marks each row ["cached"] and the whole
      request ["registry_hit"], so a client can see that a warm request
      ran zero simulations.  A workload named twice simulates once; its
      second row reads ["cached": true].
    - [attribute] — [{"op": "attribute", "workload": NAME,
      "bucket_cycles": N?, "config": {...}?}]: the per-variable energy
      breakdown and power-over-time waveform under ["attribution"]:
      the {!Core.Attribution.to_json} value itself, the document
      [xenergy attribute --json] prints under the same key.
    - [profile] — [{"op": "profile", "workload": NAME, "top": N?,
      "config": {...}?}]: per-basic-block hotspot profile under
      ["profile"] — the {!Core.Profiler.to_json} value itself, what
      [xenergy profile --json] prints — against the warm registry model:
      block table, per-opcode histogram, folded flame-graph stacks and
      the conservation gaps.  [top] truncates the block list; omit it
      to get every executed block (what conservation checks need).
    - [audit] — [{"op": "audit", "workloads": [...]?, "config":
      {...}?}]: macro-model vs reference accuracy report under
      ["audit"] (the {!Core.Audit.to_json} value) over the named
      workloads (default: the Table II applications), memoized through
      the shared cache — the same {!Core.Audit.run} [xenergy audit]
      calls.
    - [explore] — [{"op": "explore", "space": NAME, "backend": NAME?}]:
      sweep a named candidate space ({!Workloads.Spaces.find}: ["rs"],
      ["rs-cache"], ["mac-widths"]) against the live registry.  Each
      distinct base-core configuration's model is looked up once in the
      {!Registry} (characterized at most once, shared with every other
      op); then one {!Core.Explore.evaluate} call runs the sweep
      [xenergy explore] runs, each candidate's variable vector coming
      from the shared {!Core.Eval_cache} — a warm sweep answers without
      a single simulation.  The response carries one row per candidate
      in space order (energy, cycles, ["cached"], ["frontier"]
      membership) plus the Pareto ["frontier"] names over the whole
      space and the sweep counters ([configs], [registry_hits],
      [simulations]).
    - [metrics] — the live registry as an OpenMetrics text exposition
      ({!Obs.Export.to_openmetrics}) in the ["exposition"] field; this
      is the daemon's [/metrics] endpoint.
    - [stats] — registry/cache/pool counters as JSON, for tests and
      quick inspection.
    - [status] — live introspection for dashboards ([xenergy top]):
      rolling-window RED stats per op (request/error counts and rates,
      p50/p90/p99 estimated from the cumulative
      [serve_request_seconds{op}] histogram buckets via
      {!Obs.Export.quantile}, both over the window and cumulatively),
      per-op inflight counts, registry residency, eval-cache counters,
      pool lane health and connection gauges.  The window (default 60s,
      [create]'s [window_s]) is poller-driven: each [status] request
      pushes a metrics snapshot into a ring pruned to the window and
      diffs against the oldest survivor, so the first call reports
      whole-uptime values and a polling client (e.g. [xenergy top])
      sharpens the window to its own cadence.
    - [shutdown] — acknowledge, then flag the server loop to stop.

    {b One scope, one id.}  {!handle} resolves each request's scope
    once — its {!Obs.Trace.context} and its ["backend"] — and runs the
    whole handler under both: dispatch, pool batches, and the
    [serve:error], [serve:slow-request] and [serve:request] log lines.
    The optional request fields ["trace_id"] and ["parent_span_id"]
    adopt the client's ids (spans recorded here become children of the
    client's call span); otherwise fresh ids are minted.  The response
    always echoes ["trace_id"], and it is the id on every log line and
    span the request caused.

    {b Tracing and timings.}  With tracing enabled the router records a
    [serve:<op>] span plus [phase:*] child spans, and the context rides
    into forked pool workers so item spans share the request's
    trace_id.  A request carrying
    ["timings": true] gets a ["timings"] object back: [total_us] (wall
    time from frame receipt to response construction) and a [phases]
    object (queue/parse/registry/cache/simulate/serialize/other,
    microseconds) that sums to [total_us] exactly — unattributed time
    is reported as [other], never hidden, and a phase nested in another
    (an estimate's pool wait and batch inside its cache lookup) is
    charged only to itself.  Requests slower than
    [create]'s [slow_ms] threshold emit a [serve:slow-request] warn log
    line carrying the op, total, trace_id and the same per-phase
    breakdown, and count in [serve_slow_requests_total{op}].

    [config] objects override {!Sim.Config.default} field-wise; the
    accepted keys are [icache_size_bytes], [icache_ways],
    [icache_line_bytes], [icache_miss_penalty] (same four with
    [dcache_]), [branch_taken_penalty], [window_penalty], [freq_mhz]
    and [max_cycles].  Unknown keys and invalid geometries are request
    errors, never crashes: any per-request failure is caught and
    answered as [{"ok": false, "error": ...}].  Integer fields
    ([bucket_cycles], [top] and every [config] key but [freq_mhz]) must
    be integral numbers in the [int] range; anything else is refused
    with an error naming the op and the field.

    Any request may carry an optional ["backend"] field naming the
    execution substrate ({!Sim.Backend.of_string}: ["interp"],
    ["threaded"] or ["check"]); it defaults to the daemon's process-wide
    selection (the [--backend] flag / [XENERGY_BACKEND]).  It is part of
    the request's scope ({!Sim.Backend.with_current} on the handling
    thread; pool workers receive it with each batch), so a cold
    registry miss characterizes on it too, and the simulating ops echo
    it back.  An unknown name is refused with an error naming the op.
    Cache entries are keyed by backend, so answers always record what
    the named substrate actually computed.

    The router is safe under the concurrent {!Server}: the registry
    locks itself (characterization single-flight per config hash), so
    does the shared evaluation cache (each find, store and flush), the
    persistent pool's batches are serialized internally, and the
    per-request backend override is scoped to the handling thread.  No
    request holds a lock across a whole audit or sweep: requests
    against different configurations — and any number of warm
    requests — proceed in parallel. *)

type t

val create :
  ?max_models:int ->
  ?jobs:int ->
  ?read_timeout_s:float ->
  ?cache_dir:string ->
  ?characterize:(Sim.Config.t -> Core.Template.model) ->
  ?slow_ms:float ->
  ?window_s:float ->
  unit ->
  t
(** [max_models] bounds the {!Registry}, whose misses run
    [characterize] (default: {!Core.Characterize.run} over the router's
    evaluation cache, so a refit after a restart, an eviction, or on a
    directory [xenergy explore --cache-dir] filled simulates nothing).
    [jobs] sizes that fan-out, the persistent worker pool and the audit
    and explore fan-out; [read_timeout_s] is the pool's hung-worker
    deadline.  [cache_dir] backs the evaluation cache on disk so
    profiles and samples survive
    daemon restarts.  [slow_ms] (default: off) is the slow-request log
    threshold in milliseconds; [window_s] (default 60) the [status]
    op's rolling-window width. *)

val registry : t -> Registry.t
(** The router's model registry (e.g. to {!Registry.preload} a model
    loaded from a coefficients file). *)

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
(** Flush the evaluation cache's index and shut the worker pool down
    (reaping every lane).  Idempotent. *)
