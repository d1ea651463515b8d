(** Dynamic resource-usage analysis (step 10 of the paper's flow).

    Walks the execution trace and derives the structural macro-model
    variables: for every custom-hardware component category, the
    complexity-weighted number of cycles in which instances of that
    category are active.  Both activation paths are counted:

    - a custom instruction activates all of its own component instances
      for its full latency;
    - a base instruction that drives the shared operand buses activates
      the bus-facing custom components at a reduced, architecturally
      fixed duty factor ({!default_idle_weight}).

    The weighting is expressed once, as {!type:Sim.Tally.weights}: the
    simulator folds it per retirement into the tally of an estimate run
    (no events), and this module's observer folds the same weights from
    an event stream. *)

type t

val default_idle_weight : float
(** Duty factor of bus-facing custom hardware under base instructions;
    matches the bus-sharing activity of the reference architecture. *)

val weights :
  ?complexity:(Tie.Component.t -> float) ->
  Tie.Compile.compiled option ->
  Sim.Tally.weights
(** The structural weights of an extension: a custom instruction adds
    [complexity c *. float busy] to each of its components' categories,
    a register-reading base instruction
    [default_idle_weight *. complexity c] to
    each bus-facing component's.  {!Sim.Tally.no_weights} without an
    extension. *)

val create :
  ?complexity:(Tie.Component.t -> float) ->
  Tie.Compile.compiled option ->
  t
(** [complexity] overrides the C(W) weighting (default
    {!Tie.Component.complexity}); used by the ablation studies. *)

val observe : t -> Sim.Event.t -> unit
(** Add this event's weights ({!Sim.Tally.of_event}) into the
    per-category accumulators. *)

val observer : t -> Sim.Cpu.observer
(** {!observe} packaged for {!Sim.Cpu}'s observer list. *)

val totals : t -> float array
(** Complexity-weighted active cycles, indexed by
    [Tie.Component.category_index]. *)

val total_for : t -> Tie.Component.category -> float
(** One category's complexity-weighted active cycles. *)
