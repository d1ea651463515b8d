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
  ?params:Power.Blocks.params ->
  ?complexity:(Tie.Component.t -> float) ->
  ?jobs:int ->
  Extract.case list ->
  sample list
(** Single-pass collection: one simulation per test program, with the
    reference estimator attached as an observer of the same event stream
    that drives variable extraction.  Workloads are distributed over
    [jobs] forked workers (default {!Parallel.default_jobs}; serial on a
    single core). *)

val collect_with_report :
  ?config:Sim.Config.t ->
  ?params:Power.Blocks.params ->
  ?complexity:(Tie.Component.t -> float) ->
  ?jobs:int ->
  Extract.case list ->
  sample list * Run_report.t
(** Like {!collect}, also returning the per-workload run report
    (wall time, cycles, cache misses, energy, simulation count). *)

val fit_samples : ?nonnegative:bool -> sample list -> fit
(** Regression over collected samples.
    @raise Invalid_argument with fewer samples than variables that are
    actually exercised. *)

val run :
  ?config:Sim.Config.t ->
  ?params:Power.Blocks.params ->
  ?complexity:(Tie.Component.t -> float) ->
  ?nonnegative:bool ->
  ?jobs:int ->
  Extract.case list ->
  fit
(** [collect] followed by [fit_samples]. *)

val cross_validate :
  ?nonnegative:bool -> ?jobs:int -> sample list -> float option array
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
