(** Energy attribution: decompose a workload's macro-model energy across
    the 21 model variables, plus a cycle-bucketed power waveform.

    The macro-model is linear — [E = sum_i c_i * x_i] — so per-variable
    attribution is exact: each variable's contribution is its coefficient
    times its extracted count, and the contributions sum to the
    workload's total estimated energy to rounding error.  The engine is
    fed by the simulator's allocation-free retire hook on a run whose
    {!Sim.Tally} it installed, and bins each instruction's marginal
    model energy by retirement cycle, which yields the power-over-time
    waveform per-component models cannot provide on their own. *)

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
(** An attribution engine for one workload, fed by the simulator's
    retire hook ({!Sim.Cpu.hook}). *)

val create :
  ?bucket_cycles:int ->
  config:Sim.Config.t ->
  Template.model ->
  Extract.case ->
  t
(** An engine for one workload, with its per-slot marginal plan
    resolved from {!Sim.Cpu.slot_facts}.  [bucket_cycles] sets the
    waveform bin width (default 64).  Components are weighted by
    {!Tie.Component.complexity}, the weighting {!Extract.val-profile}
    extracts the model's variables with by default, so the
    decomposition matches the estimate. *)

val tally : t -> Sim.Tally.t
(** The engine's tally.  Install it on the run being attributed
    ([Sim.Backend.run_program ~tally]): the simulator folds each
    retirement into it, and {!fold} reads its structural accumulators. *)

val fold : t -> int -> int -> int -> unit
(** [fold t slot start flags] folds one retirement as the retire hook
    reports it (slot index, start cycle, flag word) on a run with
    {!tally} installed: computes its marginal model energy — the
    telescoping increment of the macro-model over the variables it
    moved, added in variable order, bit for bit what differencing the
    variable vector before and after it gives — into {!marginal} and
    bins it into the waveform.  Allocates nothing. *)

val marginal : t -> float array
(** A one-element array holding the marginal model energy (pJ) of the
    retirement last folded.  A cell rather than a float result, so that
    a caller reading it per retirement allocates nothing. *)

val finish : t -> name:string -> cycles:int -> instructions:int -> breakdown
(** Close the books after the simulation: close the last waveform
    bucket, compute the rows from the tally and return the breakdown.
    [cycles] and [instructions] come from the simulator outcome. *)

val run :
  ?config:Sim.Config.t ->
  ?bucket_cycles:int ->
  ?hook:Sim.Cpu.hook ->
  Template.model ->
  Extract.case ->
  breakdown
(** Simulate the case once with the engine's {!tally} installed and
    {!fold} as the retire hook, followed by [hook] if given (e.g. the
    reference estimator for a side-by-side comparison). *)

val check_sum : breakdown -> float
(** Relative gap |sum rows - total| / max(|total|, 1): the attribution
    invariant tests assert this is below 1e-6. *)

val pp : Format.formatter -> breakdown -> unit
(** Per-variable table (uJ alongside pJ) followed by the waveform. *)

val to_json : breakdown -> Obs.Json.t
(** Units are explicit: all energies are picojoules. *)
