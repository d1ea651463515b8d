(** The estimation service: the typed ops behind both [xenergy]'s
    model-driven commands ([characterize] and [explore] among them) and
    the daemon's {!Router}.

    A {!t} owns the model {!Registry}, the {!Core.Eval_cache}, the
    worker count and, in the daemon, the pool that simulates cache
    misses.  Each op looks its workloads (or its space's candidates) up,
    checks its arguments (before resolving the model, so a bad request
    never characterizes), resolves the model and runs one Core step; the
    caller renders the result as a table or through the Core [to_json]
    both surfaces share.  Workloads and candidates are
    {!Workloads.Suite}'s and {!Workloads.Spaces}' cases, built once per
    process: no request rebuilds a program or its digest.

    Ops fail with [Failure] (an unknown workload or space, a
    non-positive [top] or bucket width, an empty workload list, an
    unloadable model file), with [Sim.Cpu.Sim_error] when the program
    faults in the simulator, or, under the [check] backend, with
    [Sim.Backend.Mismatch].  {!message} gives the text both surfaces
    report: the CLI prints it after ["xenergy: "] and exits 123, the
    router answers [{"ok": false, "error": ...}].

    Ops charge their wall time to named phases ([registry], [cache],
    [simulate], [fit]; the router adds [queue], [parse] and [serialize])
    through {!phase}: a [phase:<name>] trace span, also charged to the
    calling thread's clock under {!timed}, which is how the daemon
    answers ["timings": true]. *)

type t

val create :
  ?jobs:int ->
  ?cache:Core.Eval_cache.t ->
  ?characterize:(Sim.Config.t -> Core.Template.model) ->
  ?on_characterize:(unit -> unit) ->
  ?simulate:Core.Eval_cache.simulate ->
  ?model:string ->
  unit ->
  t
(** [cache] (default: a fresh memory-only one) memoizes every op's
    simulations and fitted models.  [model] is a coefficients file
    ({!Core.Template.load}) preloaded as the default configuration's
    model.  A registry miss calls [on_characterize], then
    [characterize] (default: {!Core.Characterize.model} over
    {!Workloads.Suite.characterization}'s cases, built once per process)
    through [cache], so a daemon restarted on a populated directory
    reads the stored model: no simulation, no fit; a given
    [characterize] counts no simulations).
    The registry keeps every model it resolves, so the preloaded one
    answers for the default configuration for the service's lifetime.
    [jobs] sizes characterization, audit and explore fan-out and, when
    [simulate] is absent, the estimate op's misses.
    @raise Failure ["cannot load model: ..."] when [model] cannot be
    read or parsed. *)

val registry : t -> Registry.t
val cache : t -> Core.Eval_cache.t

val model : t -> Core.Template.model
(** The default configuration's model, for programs outside the
    workload suite. *)

(** {1 Ops}

    Each returns its result and the registry lookup behind its model. *)

val estimate :
  t ->
  ?config:Sim.Config.t ->
  string list ->
  (Core.Estimate.result * bool) list * Registry.lookup
(** One row per name, in order, through {!Core.Eval_cache.collect}:
    [true] when the row ran no simulation of its own (a name repeated
    in one call simulates once). *)

val profile :
  t ->
  ?config:Sim.Config.t ->
  ?top:int ->
  string ->
  Core.Profiler.report * Registry.lookup
(** {!Core.Profiler.run}; [top] is checked here, applied by the renderer. *)

val attribute :
  t ->
  ?config:Sim.Config.t ->
  ?bucket_cycles:int ->
  ?hook:(Core.Extract.case -> Sim.Cpu.hook) ->
  string ->
  Core.Attribution.breakdown * Registry.lookup
(** {!Core.Attribution.run} (default bucket width 64 cycles).  [hook],
    given the resolved case, rides the same simulation: the CLI attaches
    its reference estimator. *)

val audit :
  t ->
  ?config:Sim.Config.t ->
  ?workloads:string list ->
  unit ->
  Core.Audit.report * Registry.lookup
(** {!Core.Audit.run} over the named workloads (default: the Table II
    applications). *)

val explore :
  t ->
  ?progress:(Core.Explore.progress -> unit) ->
  ?explain:bool ->
  ?profile_top:int ->
  string ->
  Core.Explore.outcome * Registry.lookup list
(** A sweep of a named space: one {!Core.Explore.evaluate} through the
    service's cache, each distinct configuration's model resolved in
    the registry before the candidates are simulated.  The outcome's
    [simulations] include those of the registry's characterizations.
    The lookups come back once per configuration, in first-use order.
    [progress], [explain] and [profile_top] are {!Core.Explore.evaluate}'s:
    [xenergy explore] sets them, the daemon does not. *)

val characterize :
  t -> Core.Characterize.fit * float option array * Core.Run_report.t
(** Fit the macro-model for the default configuration over the
    characterization cases, collected through the service's cache:
    the fit, its leave-one-out values ({!Core.Characterize.cross_validate})
    and the collection's run report.  The registry is left as it was. *)

(** {1 Lookups, failures and phases} *)

val find_case : string -> Core.Extract.case
(** {!Workloads.Suite.find}.
    @raise Failure naming the workload when it is unknown. *)

val message : exn -> string option
(** The message of a failed op: [Failure] and [Invalid_argument] carry
    theirs, a JSON parse error reads ["invalid JSON: ..."], a simulator
    fault ([Sim.Cpu.Sim_error], such as a custom instruction run without
    its extension) ["simulation failed: ..."], and a
    [Sim.Backend.Mismatch] names its divergence (and is also written as
    an error-level [backend:mismatch] log record).  [None] for any other
    exception: a fault in the program, not in the request. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] as a [phase:<name>] span and, under
    {!timed}, charges its self time (its wall time minus the phases
    nested in it) to [name]. *)

val timed :
  ?preset:(string * float) list -> (unit -> 'a) -> 'a * (string * float) list
(** Run [f] under a fresh clock on the calling thread; return its result
    and the phases it charged (seconds), merged by name, in the order
    queue, parse, registry, cache, simulate, serialize, then any
    others.  [preset] phases are charged first. *)
