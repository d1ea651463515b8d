(** The estimation service: the typed ops behind both [xenergy]'s
    model-driven commands and the daemon's {!Router}.

    A {!t} owns the model {!Registry}, the {!Core.Eval_cache}, the
    worker count and, in the daemon, the pool that simulates cache
    misses.  Each op looks its workloads up, checks its arguments (before
    resolving the model, so a bad request never characterizes), resolves
    the model and runs one Core step; the caller renders the result as a
    table or through the Core [to_json] both surfaces share.

    Ops fail with [Failure] (an unknown workload or space, a
    non-positive [top] or bucket width, an empty workload list, an
    unloadable model file), with [Sim.Cpu.Sim_error] when the program
    faults in the simulator, or, under the [check] backend, with
    [Sim.Backend.Mismatch].  {!message} gives the text both surfaces
    report: the CLI prints it after ["xenergy: "] and exits 123, the
    router answers [{"ok": false, "error": ...}].

    Ops charge their wall time to named phases ([registry], [cache],
    [simulate]; the router adds [queue], [parse] and [serialize])
    through {!phase}: a [phase:<name>] trace span, also charged to the
    calling thread's clock under {!timed}, which is how the daemon
    answers ["timings": true]. *)

type t

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?characterize:(Sim.Config.t -> Core.Template.model) ->
  ?on_characterize:(unit -> unit) ->
  ?simulate:Core.Eval_cache.simulate ->
  ?model:string ->
  unit ->
  t
(** [model] is a coefficients file ({!Core.Template.load}) preloaded as
    the default configuration's model.  A registry miss calls
    [on_characterize], then [characterize] (default:
    {!Core.Characterize.model} over the name index's characterization
    cases ({!Workloads.Suite.shared_characterization}, built once per
    process) through the service's cache, so a daemon restarted on a populated
    [cache_dir] reads the stored model: no simulation, no fit).
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

val explore : t -> string -> Core.Explore.outcome * Registry.lookup list
(** The daemon's sweep of a named space: one {!Core.Explore.evaluate}
    through the service's cache, resolving each distinct configuration's
    model in the registry as the sweep reaches it.  The lookups come
    back once per configuration, in first-use order.  [xenergy
    explore] fits every configuration afresh with {!Core.Explore.run}
    instead; the two share only {!space}. *)

(** {1 Lookups, failures and phases} *)

val find_case : string -> Core.Extract.case
(** {!Workloads.Suite.find}.
    @raise Failure naming the workload when it is unknown. *)

val space : string -> unit -> Core.Explore.candidate list
(** {!Workloads.Spaces.find}.
    @raise Failure listing the valid spaces when it is unknown. *)

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
