(** Model-accuracy auditing: the macro-model's error distribution
    against the reference structural estimator, as a first-class,
    regression-gateable artifact.

    An audit runs each program {e once} with the reference estimator
    riding the simulation — the same single-pass idiom as
    characterization — and memoizes through {!Eval_cache}, so a warm
    audit costs zero simulations.  It is the one accuracy path: the
    paper's Table II and Fig. 4 are rendered from its report by
    {!Evaluate}.  The result
    carries the full signed-error distribution (per-program rows,
    mean/max absolute and RMS error in percent), serializes to a stable
    JSON document ([xenergy-accuracy], committed as a baseline), and
    {!gate} compares a fresh audit against such a baseline with a
    multiplicative tolerance — the CI accuracy gate.

    Summary statistics are also published as {!Obs.Metrics} gauges
    ([audit_mean_abs_error_percent], [audit_max_abs_error_percent],
    [audit_rms_error_percent], [audit_programs]) so an OpenMetrics
    scrape of an audit run carries the accuracy figures, and each
    audited program emits an [audit:program] {!Obs.Log} record. *)

type row = {
  a_name : string;
  a_estimate_pj : float;    (** macro-model energy *)
  a_reference_pj : float;   (** reference structural estimator *)
  a_error_percent : float;  (** signed, relative to the reference *)
  a_cycles : int;
  a_cached : bool;          (** served from the evaluation cache *)
}

type report = {
  a_rows : row list;        (** input order *)
  a_mean_abs : float;       (** mean absolute error, percent *)
  a_max_abs : float;        (** worst absolute error, percent *)
  a_rms : float;            (** root-mean-square error, percent *)
  a_wall_seconds : float;
}

val run :
  ?jobs:int ->
  ?cache:Eval_cache.t ->
  ?config:Sim.Config.t ->
  Template.model ->
  Extract.case list ->
  report
(** Audit [model] over the cases through {!Eval_cache.collect}: one
    reference-observed simulation per distinct cache miss (fanned out
    over {!Parallel}), zero for hits; a program listed twice simulates
    once and its second row reads [a_cached].  [cache] defaults to a
    fresh memory-only cache; its hits are flushed before
    returning.
    @raise Invalid_argument on an empty case list. *)

val to_json : report -> Obs.Json.t
(** Stable machine-readable document (format ["xenergy-accuracy"],
    version 1, units stated): summary statistics plus one row per
    program.  This is what [BENCH_accuracy.json] holds. *)

val of_json : string -> report
(** Parse a printed {!to_json} document (e.g. a committed baseline).
    @raise Obs.Json.Parse_error or [Failure] on malformed input. *)

type gate_result = {
  g_pass : bool;
  g_mean_abs : float;          (** the fresh audit's mean |error| *)
  g_baseline_mean_abs : float; (** the baseline's mean |error| *)
  g_allowed : float;           (** the threshold that was applied *)
}

val gate : ?tolerance:float -> baseline:report -> report -> gate_result
(** [gate ~baseline current] passes iff [current]'s mean absolute
    error is within [tolerance] times the baseline's (default [2.0] —
    accuracy may drift with model changes, but a >2x regression fails
    the build).  The comparison is on mean |error| only: max error is
    reported but not gated, since a single adversarial program should
    not block an otherwise-faithful model. *)

val pp : Format.formatter -> report -> unit
(** Per-program table (estimate, reference, signed error) followed by
    the summary statistics. *)

val pp_gate : Format.formatter -> gate_result -> unit
(** One-line verdict: pass/fail, the means, and the threshold. *)
