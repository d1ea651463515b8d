(** Energy attribution: decompose a workload's macro-model energy across
    the 21 model variables, plus a cycle-bucketed power waveform.

    The macro-model is linear — [E = sum_i c_i * x_i] — so per-variable
    attribution is exact: each variable's contribution is its coefficient
    times its extracted count, and the contributions sum to the
    workload's total estimated energy to rounding error.  The engine is
    an {!Sim.Event} observer that reads the run's {!Sim.Tally} (the
    simulator has folded each retirement into it before the observer
    runs) and bins each instruction's marginal model energy by
    retirement cycle, which yields the power-over-time waveform
    per-component models cannot provide on their own. *)

type row = {
  variable : Variables.id;
  count : float;             (** extracted variable value *)
  coefficient_pj : float;    (** fitted energy coefficient, pJ *)
  energy_pj : float;         (** [count *. coefficient_pj] *)
  share : float;             (** fraction of the total (0 when total = 0) *)
}

type breakdown = {
  workload : string;
  total_pj : float;          (** macro-model energy of the workload *)
  rows : row list;           (** one per variable, descending energy *)
  waveform : Obs.Waveform.t; (** model energy binned by retirement cycle *)
  cycles : int;
  instructions : int;
}

val decompose : Template.model -> float array -> row list
(** [decompose model vars] — the per-variable rows (descending energy)
    for an already-extracted variable vector.  The model is linear, so
    this is exact and needs no simulation: [Explore] explains Pareto
    frontier candidates from cached vectors with this, at zero
    simulation cost. *)

type t
(** An attribution engine usable as a simulation observer. *)

val create :
  ?bucket_cycles:int ->
  ?complexity:(Tie.Component.t -> float) ->
  ?extension:Tie.Compile.compiled ->
  config:Sim.Config.t ->
  Template.model ->
  t
(** An engine for one workload.  [bucket_cycles] sets the waveform bin
    width (default 64); [complexity] and [extension] must match the ones
    the model's variables will be extracted with, or the decomposition
    will not match the estimate. *)

val tally : t -> Sim.Tally.t
(** The engine's tally.  Install it on the run being attributed
    ([Sim.Backend.run_program ~tally]) so that one fold runs per
    retirement: the engine then only reads it. *)

val observer : t -> Sim.Cpu.observer
(** The engine as a simulation observer; attach it to the run being
    attributed.  On a run installed with {!tally} it reads the tally the
    simulator keeps current; on any other run it folds each event into
    its tally itself, with the same result. *)

val observe : t -> Sim.Event.t -> unit
(** Fold one event directly (what {!observer} does per event). *)

val observe_marginal : t -> Sim.Event.t -> float
(** Like {!observe}, also returning the event's marginal model energy
    (pJ) — the telescoping increment the waveform bins.  Saves hot-path
    callers two {!energy_so_far} reads per event. *)

val energy_so_far : t -> float
(** Running model energy after the events observed so far.  The
    difference across one {!observe} is that instruction's marginal
    energy — the telescoping sum the waveform is built from, and what
    {!Profiler} folds into per-block energy. *)

val finish : t -> name:string -> cycles:int -> instructions:int -> breakdown
(** Close the books after the observed simulation: compute the rows from
    the folded state and return the breakdown.  [cycles] and
    [instructions] come from the simulator outcome. *)

val run :
  ?config:Sim.Config.t ->
  ?bucket_cycles:int ->
  ?complexity:(Tie.Component.t -> float) ->
  ?observers:Sim.Cpu.observer list ->
  Template.model ->
  Extract.case ->
  breakdown
(** Simulate the case once with the attribution engine's {!tally}
    installed and the engine (and any extra [observers], e.g. the
    reference estimator for a side-by-side comparison) attached. *)

val check_sum : breakdown -> float
(** Relative gap |sum rows - total| / max(|total|, 1): the attribution
    invariant tests assert this is below 1e-6. *)

val pp : Format.formatter -> breakdown -> unit
(** Per-variable table (uJ alongside pJ) followed by the waveform. *)

val to_json : breakdown -> string
(** Units are explicit: all energies are picojoules. *)
