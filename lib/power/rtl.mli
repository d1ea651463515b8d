(** Compiled-RTL-style activity simulation of the base core.

    The reference estimator's fidelity (and its cost) comes from here: in
    the style of a compiled-code RTL simulator, every cycle re-evaluates
    the full structural datapath bit by bit — program-counter carry
    chain, opcode and register-port one-hot decoders, cache set decoders,
    per-way tag comparators against shadow cache state, data-array output
    latches, the five-stage pipeline register file and the (possibly
    idle) execution units — and counts net toggles.  Idle units are still
    evaluated (their nets simply do not toggle), exactly as a
    compiled-RTL simulator would.

    Energy is toggles times per-net coefficients; calibration constants
    live in {!Blocks}.

    Net vectors are packed into native integers (toggle counts are
    Hamming distances, one-hot decoders are represented by their selected
    index), which is bit-exact with a one-net-per-byte evaluation — the
    toggle counts and the {!evaluations} cost metric are unchanged — but
    keeps the per-cycle work to a handful of word operations.

    This module is the model {!Oracle} walks, cycle by cycle (~6 400
    evaluations per cycle).  {!Estimator} evaluates the same nets
    compiled and charges bit-identical energies.  It resolves once per
    static instruction the opcode and register-port decoder wordlines
    and the PC-incrementer carry.  It still evaluates per event the
    stage-0 pipeline fields, the PC bus and the cache nets.  Hold cycles
    follow in closed form from the distances between adjacent stages.
    An access to the line the previous access hit leaves the set decoder
    and comparators as they were.  The array latches toggle by the
    change of the line pattern.  {!Estimator.evaluations} still counts
    every evaluation this module would make.
    In perfbench's replay of the 25 characterization programs (2-core
    shared host) that takes the reference from ~1.4–2.1 µs to
    ~0.16–0.30 µs per event. *)

type t

type access_activity = {
  decode_toggles : int;   (** set decoder one-hot nets *)
  tag_toggles : int;      (** per-way tag comparator nets *)
  array_toggles : int;    (** data-array output latch nets *)
}

val create : Sim.Config.t -> t

val cycle_activity :
  t ->
  word:int ->
  pc:int ->
  op1:int ->
  op2:int ->
  result:int ->
  int
(** Evaluate one clock edge of the pipeline registers, the PC
    incrementer and the instruction decoder; returns latch-net toggle
    count.  Must be called once per simulated cycle (hold cycles repeat
    the previous values). *)

val regfile_activity : t -> reads:int list -> write:int option -> int
(** One-hot port-decoder toggles for the given physical register
    numbers. *)

val icache_activity : t -> int -> access_activity
(** Evaluate an instruction-cache access at an address.  Maintains a
    shadow cache in lockstep with the simulator's (same configuration,
    same access sequence, hence identical contents). *)

val dcache_activity : t -> int -> value:int -> access_activity

val idle_unit_evaluations : t -> unit
(** Evaluate the execution units that did not fire this cycle (ALU,
    shifter, multiplier see latched inputs; zero toggles but full
    evaluation cost, as in compiled-RTL simulation). *)

val evaluations : t -> int
(** Total elementary net evaluations performed so far (a cost metric
    exposed for the tests and the speedup experiment's sanity checks). *)

val regfile_cells : t -> write:(int * int) option -> unit
(** Clock the 64x32 register-file flop plane (optionally committing one
    write of (physical register, value)); evaluated every cycle. *)
