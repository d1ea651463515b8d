(** Accuracy evaluation: macro-model vs reference estimator.

    Reproduces the measurements behind Table II (per-application estimate
    vs "WattWatcher" value and error), Fig. 4 (relative accuracy across
    custom-instruction alternatives) and the speedup experiment. *)

type row = {
  rname : string;
  estimate_uj : float;      (** macro-model *)
  reference_uj : float;     (** reference structural estimator *)
  error_percent : float;    (** signed, relative to the reference *)
}

type table = {
  rows : row list;
  mean_abs_error : float;
  max_abs_error : float;
}

val compare_cases :
  ?config:Sim.Config.t -> Template.model -> Extract.case list -> table
(** Estimate every case with both paths and tabulate the signed errors
    (Table II).  Each program is simulated once
    ({!Eval_cache.compute} with the reference attached): the
    macro-model energy comes from the entry's variable vector, the
    reference energy from the same run. *)

val correlation : table -> float
(** Pearson correlation between the two energy series (the Fig. 4
    relative-accuracy criterion). *)

val rank_agreement : table -> bool
(** Do both estimators order the alternatives identically? *)

type timing = {
  macro_seconds : float;     (** ISS + counters + dot product *)
  reference_seconds : float; (** ISS + structural power simulation *)
  speedup : float;
}

val time_case :
  ?config:Sim.Config.t ->
  ?repeats:int ->
  Template.model ->
  Extract.case ->
  timing
(** Wall-clock both estimation paths ([repeats] runs each, best time).
    Unlike {!compare_cases}, the reference runs in a simulation of its
    own, so each path is timed separately. *)

val pp_table : Format.formatter -> table -> unit
(** Table II style listing: estimate, reference and error per row, then
    the mean/max absolute error. *)
