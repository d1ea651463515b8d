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
    is characterized and evaluated.  It is compiled: the static facts of
    each instruction are resolved once into a plan, nets whose inputs
    repeat are skipped, and the data nets are evaluated in closed form,
    while every energy, breakdown entry and {!evaluations} count stays
    bit-identical to the event-by-event {!Oracle}. *)

type t

val create :
  ?params:Blocks.params ->
  ?extension:Tie.Compile.compiled ->
  Sim.Config.t ->
  t

val observe : t -> Sim.Event.t -> unit
(** Process one event (exposed for instrumentation). *)

val observer : t -> Sim.Cpu.observer

val observer_with_waveform : t -> Obs.Waveform.t -> Sim.Cpu.observer
(** Like {!observer}, additionally binning each event's incremental
    energy into the waveform by retirement cycle — a software
    reproduction of cycle-resolved power estimation. *)

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

val observer_checked : t -> Oracle.t -> Sim.Cpu.observer
(** Feed each event to both estimators.
    @raise Sim.Backend.Mismatch at the first event after which their
    total energies differ in any bit. *)

val check : t -> Oracle.t -> unit
(** @raise Sim.Backend.Mismatch unless the two breakdowns (names, order
    and energy bits) and evaluation counts agree. *)

val estimate_program :
  ?params:Blocks.params ->
  ?config:Sim.Config.t ->
  ?extension:Tie.Compile.compiled ->
  Isa.Program.asm ->
  float * Sim.Cpu.t
(** Run a program under the reference estimator and return total energy
    (pJ) plus the finished simulator (for cycle counts). *)
