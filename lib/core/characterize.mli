(** Macro-model characterization (steps 1-8 of the paper's flow).

    For every test program: instruction-set simulation + resource-usage
    analysis yield the variable vector, the reference structural
    estimator yields the "measured" energy, and regression over all test
    programs produces the energy-coefficient vector. *)

type sample = {
  sname : string;
  variables : float array;
  measured_pj : float;     (** reference-estimator energy *)
  cycles : int;
}

type fit = {
  model : Template.model;
  samples : sample list;
  fitted_pj : float array;         (** model prediction per sample *)
  errors_percent : float array;    (** signed fitting error per sample *)
  rms_percent : float;
  max_abs_percent : float;
  r_squared : float;
}

val collect :
  ?config:Sim.Config.t ->
  ?complexity:Eval_cache.complexity ->
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  Extract.case list ->
  sample list
(** Single-pass collection through {!Eval_cache.collect}: each program
    missing from [cache] (default: a fresh memory cache) is simulated
    once, the reference estimator observing the same run that extracts
    the variables; a cached program is not simulated at all.  Misses
    are distributed over [jobs] forked workers (default
    {!Parallel.default_jobs}; serial on a single core). *)

val collect_with_report :
  ?config:Sim.Config.t ->
  ?complexity:Eval_cache.complexity ->
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  Extract.case list ->
  sample list * Run_report.t
(** Like {!collect}, also returning the per-workload run report (wall
    time, cycles, cache misses, energy, simulation count).  A program
    served from [cache] reports [simulations = 0] and zero wall time. *)

val fit_samples : sample list -> fit
(** Non-negative least-squares regression over collected samples; every
    call counts into the [characterize_fits_total] metric.
    @raise Invalid_argument with fewer samples than variables that are
    actually exercised. *)

val run :
  ?config:Sim.Config.t ->
  ?complexity:Eval_cache.complexity ->
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  Extract.case list ->
  fit
(** [collect] followed by [fit_samples]. *)

val model :
  ?jobs:int ->
  cache:Eval_cache.t ->
  config:Sim.Config.t ->
  Extract.case list ->
  Template.model * int
(** Read-through fitted model: the model {!fit_samples} fits over
    [cases] under [config], and the number of simulations spent on it.
    The model is itself a [cache] entry, keyed by
    {!Eval_cache.model_key} over the cases' sample keys: a hit reads
    that one entry and runs neither a simulation nor a fit; a miss
    runs {!collect_with_report} and {!fit_samples} and stores the
    model.  Its coefficients round-trip through the entry bit for
    bit. *)

val cross_validate :
  ?jobs:int -> sample list -> float option array
(** Leave-one-out cross-validation: for every sample, the signed percent
    error of predicting it with a model fitted on the other samples.
    Unlike the fitting residuals (which flatter a near-interpolating
    fit), this measures generalization; programs that alone exercise a
    variable (e.g. the only uncached-code program) show large LOOCV
    errors because their variable is unidentifiable without them.
    A fold whose training set is underdetermined (fewer samples than
    exercised variables once the held-out program is dropped) is
    reported as [None] rather than aborting the whole validation.
    Folds are distributed over [jobs] forked workers. *)

val pp_fit : Format.formatter -> fit -> unit
(** Fig. 3 style per-test-program fitting-error listing. *)
