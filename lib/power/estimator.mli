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
    bit-identical to the event-by-event {!Oracle}.

    One core charges one retirement from the simulator's retire-hook
    integers and {!Sim.Cpu.channel}.  It has two callers: {!hook}, which
    the simulator calls directly on either backend without building an
    event, and {!observe}, which unpacks a recorded {!Sim.Event.t} with
    {!Sim.Cpu.load_channel}. *)

type t

val create :
  ?params:Blocks.params ->
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

val estimate_program :
  ?params:Blocks.params ->
  ?config:Sim.Config.t ->
  ?extension:Tie.Compile.compiled ->
  Isa.Program.asm ->
  float * Sim.Cpu.t
(** Run a program with the reference estimator as its retire hook and
    return total energy (pJ) plus the finished simulator (for cycle
    counts). *)
