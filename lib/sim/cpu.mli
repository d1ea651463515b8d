(** Instruction-set simulator.

    A cycle-approximate model of the base five-stage pipeline: one
    instruction retires per step, with a register scoreboard for
    data-dependency interlocks, instruction/data caches, an uncached
    region, taken-branch penalties, windowed calls and multi-cycle custom
    instructions.  Each retired instruction is published to the installed
    observers as an {!Event.t}. *)

exception Sim_error of string

type outcome =
  | Halted        (** the program executed [break] *)
  | Watchdog      (** [Config.max_cycles] exceeded *)

type observer = Event.t -> unit

type t

val create :
  ?config:Config.t ->
  ?extension:Tie.Compile.compiled ->
  Isa.Program.asm ->
  t

val add_observer : t -> observer -> unit
(** Register an observer.  Ordering contract: observers must be
    registered before the first {!step} — every observer sees the full
    event stream from the first retired instruction, in registration
    order.  Registering after execution has begun (any instruction
    retired, or the run already finished) would silently miss events,
    so it raises {!Sim_error} instead.
    @raise Sim_error if any instruction has already retired. *)

val step : t -> [ `Step of Event.t | `Done of outcome ]
(** Execute one instruction.  After [`Done] further calls return the same
    outcome. *)

val run : t -> outcome
(** Step until completion: the reference interpreter. *)

val run_threaded : ?covered:(Isa.Instr.t -> bool) -> t -> outcome
(** Run to completion on the threaded-code backend, the default one
    (see {!Backend}): the program is pre-decoded once into one closure
    per slot (operands, branch targets, immediates, latencies and
    custom-instruction lookups resolved at load time, straight-line runs
    delimited by {!Decoder.analyze}'s basic-block partition) and
    dispatched block-at-a-time.  Semantics are those of repeated
    {!step}, which stays the reference [Backend.Check] compares against:
    same cycles, same architectural state, and — when observers are
    installed — a bit-identical event stream.  Observed or not, the same
    closures run; events are built around them only when an observer is
    installed or metrics are on.

    [covered] restricts which instructions are compiled; anything it
    rejects (and anything whose static resolution fails) executes via
    the interpreter adapter, so coverage is a performance property,
    never a semantic one.  Intended for tests. *)

(** Static compilation counters for the threaded backend (see
    {!decode_stats}). *)
type decode_stats = {
  d_blocks : int;    (** basic blocks in the {!Decoder} partition *)
  d_ops : int;       (** instruction slots decoded *)
  d_compiled : int;  (** slots compiled to specialised closures; the
                         remainder run on the interpreter adapter *)
}

val decode_stats : ?covered:(Isa.Instr.t -> bool) -> t -> decode_stats
(** Compile the program as {!run_threaded} would and report coverage
    without executing anything. *)

val clone : t -> t
(** Independent deep copy of the machine state (memory, caches,
    register file, scoreboard, TIE state, clocks) with an empty
    observer list; the backend equivalence checker uses it to run the
    same program twice from identical state.  The copy is a shadow: its
    retirements are not counted in the [sim_*] metrics, so a checked
    run counts each instruction once. *)

val cycles : t -> int

val instructions : t -> int

val reg : t -> Isa.Reg.t -> int
(** Value in the current window. *)

val set_reg : t -> Isa.Reg.t -> int -> unit
(** Pre-load an argument register (before running). *)

val regfile : t -> Regfile.t
(** The physical register file (all 64 registers and the window
    state), for comparing whole machine states. *)

val memory : t -> Memory.t

val icache : t -> Cache.t

val dcache : t -> Cache.t

val sar : t -> int

val tie_state : t -> Tie.Compile.state_store option

val config : t -> Config.t

val pc : t -> int
