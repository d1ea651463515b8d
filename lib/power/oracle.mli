(** The event-by-event reference estimator.

    Every event walks the RTL model ({!Rtl}) cycle by cycle, re-derives
    its instruction's register ports and execution unit, and charges a
    string-keyed table of block energies.  {!Estimator} computes the same
    energies, bit for bit, from compiled per-instruction plans; this
    module is what it is checked against (the tests, and
    [Sim.Backend.Check] runs of [Core.Eval_cache]), and the WattWatcher
    stand-in the speedup experiment times. *)

type t

val create :
  ?extension:Tie.Compile.compiled ->
  Sim.Config.t ->
  t

val observe : t -> Sim.Event.t -> unit

val observer : t -> Sim.Cpu.observer

val total_energy : t -> float
(** Accumulated energy in pJ. *)

val breakdown : t -> (string * float) list
(** Per-block energy, descending. *)

val evaluations : t -> int
(** Elementary net evaluations so far ({!Rtl.evaluations}). *)

val reset : t -> unit
(** Clear all accumulated energy and internal net state (including the
    shadow caches), so the estimator can observe a fresh simulation. *)

val estimate_program :
  ?config:Sim.Config.t ->
  ?extension:Tie.Compile.compiled ->
  Isa.Program.asm ->
  float * Sim.Cpu.t
(** Run a program under the oracle and return total energy (pJ) plus the
    finished simulator. *)
