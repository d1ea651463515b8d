(** Reference structural energy estimator (the WattWatcher stand-in).

    A per-instruction, per-net observer: it evaluates the gate-level
    structure of every datapath unit touched by the executing
    instruction ({!Gates}), tracks bus states across cycles, models the
    cache arrays, the register file ports, the pipeline latches and the
    clock tree ({!Rtl}'s nets), and charges custom-hardware component
    instances with data-dependent active energy — including the idle
    (side-effect) toggling of bus-facing custom hardware during base
    instructions, as in the paper's Example 1.

    Its totals are the "measured" energies against which the macro-model
    is characterized and evaluated.  It is compiled, while every energy,
    breakdown entry and {!evaluations} count stays bit-identical to the
    event-by-event {!Oracle}:
    - the static facts of each instruction are resolved once into a
      plan;
    - each plan memoizes, against the plan that retired before it, the
      toggles of every net the two instructions' static facts alone
      drive (PC, incrementer carry, opcode and register-port wordlines,
      fetched word, word|pc pipeline latch) and the fetch and
      register-port charges they fix, so a retirement along the same
      control-flow edge as last time reads them back;
    - nets whose inputs repeat are skipped (a fetch from the line the
      previous fetch hit charges the access alone);
    - the data nets, the datapath units and the custom adders,
      multipliers, shifters and logic planes are evaluated in closed
      form.

    One core charges one retirement from the simulator's retire-hook
    integers and {!Sim.Cpu.channel}.  It has two callers: {!hook}, which
    the simulator calls directly on either backend without building an
    event and which keeps one plan per code slot, and {!observe}, which
    unpacks a recorded {!Sim.Event.t} with {!Sim.Cpu.load_channel} and
    keeps plans in a table keyed by fetch pc. *)

type t

val create :
  ?extension:Tie.Compile.compiled ->
  Sim.Config.t ->
  t

val hook : ?waveform:Obs.Waveform.t -> t -> Isa.Program.asm -> Sim.Cpu.hook
(** The retire hook for a run of [asm].  With [waveform], each
    retirement's incremental energy is also binned by start cycle — a
    software reproduction of cycle-resolved power estimation. *)

val observe : t -> Sim.Event.t -> unit
(** Process one event: the hook's charge for the same retirement
    (exposed for instrumentation and replay). *)

val observer : t -> Sim.Cpu.observer

val total_energy : t -> float
(** Accumulated energy in pJ. *)

val breakdown : t -> (string * float) list
(** Per-block energy, descending. *)

val evaluations : t -> int
(** Elementary net evaluations the modelled RTL performs for the events
    observed so far; equal to {!Oracle.evaluations} on the same stream. *)

val reset : t -> unit
(** Clear all accumulated energy and internal net state (including the
    shadow caches), so the estimator can observe a fresh simulation. *)

val check : t -> Oracle.t -> unit
(** @raise Sim.Backend.Mismatch unless the two breakdowns (names, order
    and energy bits) and evaluation counts agree. *)

val component_toggles : Tie.Component.t -> int -> int -> int
(** [component_toggles c] is a fresh instance of the unit the estimator
    evaluates for a custom component [c] (in closed form where it has
    one): each call [f a b] returns the net toggles of one evaluation,
    as {!Gates.component_eval} on a fresh {!Gates.component_create}
    [c] does. *)

val estimate_program :
  ?config:Sim.Config.t ->
  ?extension:Tie.Compile.compiled ->
  Isa.Program.asm ->
  float * Sim.Cpu.t
(** Run a program with the reference estimator as its retire hook and
    return total energy (pJ) plus the finished simulator (for cycle
    counts). *)
