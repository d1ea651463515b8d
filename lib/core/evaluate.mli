(** Accuracy evaluation: macro-model vs reference estimator.

    Renders the measurements behind Table II (per-application estimate
    vs "WattWatcher" value and error) and Fig. 4 (relative accuracy
    across custom-instruction alternatives) from an {!Audit.report},
    and times the speedup experiment. *)

val correlation : Audit.report -> float
(** Pearson correlation between the audit's two energy series, in uJ
    (the Fig. 4 relative-accuracy criterion). *)

val rank_agreement : Audit.report -> bool
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
    Unlike {!Audit.run}, the reference runs in a simulation of its own,
    so each path is timed separately. *)

val pp_table : Format.formatter -> Audit.report -> unit
(** Table II style listing: estimate and reference in uJ and the signed
    error per row, then the mean/max absolute error. *)
