(** Design-space exploration over custom-instruction candidates.

    The paper's purpose is to make energy estimation cheap enough to
    drive design-space exploration of instruction-set extensions without
    synthesizing each candidate (Section I).  This engine closes that
    loop: it takes a list of {!type-candidate}s — each a workload (program +
    TIE extension) paired with a processor configuration — evaluates
    every candidate's energy and cycle count through the macro-model,
    and extracts the energy/performance Pareto frontier.

    Cost model: each distinct processor configuration is characterized
    once ({!Characterize.model} over the sweep's cache: the 25-program
    suite, simulated with the reference estimator attached, then
    fitted), then each candidate needs only one instruction-set
    simulation.  Samples, fitted models and candidate vectors are all
    memoized in the cache, so candidates sharing a base-core simulation
    reuse its extracted variable vector, and a warm sweep reads one
    model per configuration and one vector per candidate: no simulation
    and no fit.  A directory a sweep filled also serves the daemon's
    characterizations.  Simulations for cache misses are fanned out
    over the {!Parallel} worker pool. *)

type candidate = {
  cand_name : string;          (** unique within a sweep; names output rows *)
  case : Extract.case;         (** program + extension *)
  config : Sim.Config.t;       (** base-core configuration *)
}

val candidate : ?name:string -> ?config:Sim.Config.t -> Extract.case -> candidate
(** Wrap a workload; [name] defaults to the case name, [config] to
    {!Sim.Config.default}. *)

type point = {
  pt_name : string;
  pt_energy_pj : float;        (** macro-model energy, picojoules *)
  pt_energy_uj : float;        (** the same, microjoules *)
  pt_cycles : int;
  pt_instructions : int;
  pt_cached : bool;
  (** the variable vector was reused (memo or disk) rather than freshly
      simulated for this candidate *)
}

type progress = {
  pr_phase : string;           (** ["characterize"] or ["evaluate"] *)
  pr_done : int;               (** configs fitted, or candidates evaluated *)
  pr_total : int;
  pr_hits : int;               (** cache hits so far this sweep *)
  pr_misses : int;
  pr_frontier : int;           (** Pareto frontier size so far *)
  pr_elapsed_s : float;
  pr_eta_s : float option;     (** simple linear extrapolation; [None]
                                   before the first chunk lands *)
}
(** A heartbeat, delivered to the [progress] callback between evaluation
    chunks (and after each configuration's characterization) and logged
    as an [explore:heartbeat] {!Obs.Log} record. *)

type outcome = {
  points : point list;         (** one per candidate, in input order *)
  frontier : point list;
  (** the Pareto-optimal points (minimal cycles and energy), sorted by
      ascending cycle count; no point in it is dominated *)
  explained : (string * Attribution.row list) list;
  (** with [explain:true]: each frontier point's exact per-variable
      energy decomposition ({!Attribution.decompose} of its cached
      variable vector — zero extra simulations), in frontier order *)
  profiled : (string * Profiler.report) list;
  (** with [profile_top]: each frontier point's hotspot profile
      ({!Profiler.run} under that candidate's configuration and model —
      one extra observed simulation per frontier point), in frontier
      order *)
  profile_top : int;
  (** hottest blocks rendered per profiled point; 0 when profiling was
      not requested *)
  configs_characterized : int;
  (** distinct base configs this sweep modelled (fitted or read back) *)
  simulations : int;           (** simulator runs actually performed *)
  cache_stats : Eval_cache.stats;  (** cache counter delta for this sweep *)
  wall_seconds : float;
}

val pareto : point list -> point list
(** The non-dominated subset: a point survives unless some other point
    has cycles and energy both no worse and at least one strictly
    better.  Result is sorted by (cycles, energy, name), so it is
    deterministic regardless of input order. *)

val run :
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  ?progress:(progress -> unit) ->
  ?explain:bool ->
  ?profile_top:int ->
  characterization:Extract.case list ->
  candidate list ->
  outcome
(** Full sweep: read each distinct [config]'s model through the cache
    ({!Characterize.model} over the [characterization] suite, which
    fits and stores it on a miss), then evaluate every
    candidate with its configuration's model.  [jobs] bounds the worker
    pool (default {!Parallel.default_jobs}); [cache] defaults to a
    fresh memory-only cache.  [progress] receives a {!type-progress} heartbeat
    between evaluation chunks; [explain] (default [false]) fills
    {!type-outcome}[.explained] for the frontier; [profile_top] fills
    {!type-outcome}[.profiled] with each frontier point's hotspot
    profile (its [profile_top] hottest blocks are rendered).
    @raise Invalid_argument on an empty candidate list, duplicate
    candidate names, or a non-positive [profile_top]. *)

val evaluate :
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  ?progress:(progress -> unit) ->
  ?explain:bool ->
  ?profile_top:int ->
  (Sim.Config.t -> Template.model) ->
  candidate list ->
  outcome
(** Like {!run} with pre-fitted models: [evaluate model_for candidates]
    applies [model_for c.config] to each candidate (no
    re-characterization; the caller asserts each model matches its
    configuration, and [model_for] is called once per distinct
    configuration).  The sweep is the one {!run} performs after
    fitting: points in input order, one frontier across every
    configuration, memoized through [cache].  [configs_characterized]
    is 0. *)

val to_json : outcome -> Obs.Json.t
(** Machine-readable sweep record: per-point rows, frontier membership,
    simulation/cache counters, and (with [profile_top]) each frontier
    point's truncated hotspot profile under ["profiles"]; energies are
    picojoules (with a uJ convenience column), units stated in the
    document. *)

val to_csv : ?pareto_only:bool -> outcome -> string
(** One header line plus one row per point (or per frontier point). *)

val pp : ?pareto_only:bool -> Format.formatter -> outcome -> unit
(** Human-readable sweep table: one row per point, frontier points
    starred, followed by the frontier and the sharing counters. *)
