(** Instruction-set simulator.

    A cycle-approximate model of the base five-stage pipeline: one
    instruction retires per step, with a register scoreboard for
    data-dependency interlocks, instruction/data caches, an uncached
    region, taken-branch penalties, windowed calls and multi-cycle custom
    instructions.  Every retirement is folded into the machine's
    {!Tally} (the macro-model's counters).  After the tally update it is
    reported to the machine's retire {!type:hook}, if one is installed,
    as plain integers and the machine's {!type:channel}; the hook path
    allocates nothing per retirement on either backend.  The interpreter
    ({!step}, {!run}) also publishes an {!Event.t} per retirement to its
    observers: observers are interpreter-only, and {!run_threaded}
    refuses a machine that has any. *)

exception Sim_error of string

type outcome =
  | Halted        (** the program executed [break] *)
  | Watchdog      (** [Config.max_cycles] exceeded *)

type observer = Event.t -> unit

type channel = {
  mutable bus1 : int;    (** first operand-bus value *)
  mutable bus2 : int;    (** second operand-bus value *)
  mutable result : int;  (** value driven on the result bus *)
  mutable addr : int;    (** data address *)
  mutable data : int;    (** value loaded or stored *)
  mutable cin1 : int;    (** a custom instruction's first component input *)
  mutable cin2 : int;    (** ... and its second *)
  mutable busy : int;    (** execute-stage cycles *)
}
(** The retire hook's data: one record per machine, overwritten before
    every hook call and valid only during it.  A value the retirement
    does not have reads 0: the operand buses past the instruction's
    register sources, [result] without {!flag_result}, [addr] and [data]
    without a data access, [cin1]/[cin2] outside custom instructions.  A
    custom instruction's component inputs are its register operands,
    then its result, then its custom states in declaration order (0 past
    the end), as {!Event.custom_info} lists them. *)

val new_channel : unit -> channel
(** A zeroed channel, for a caller that fills one with {!load_channel}. *)

type hook = int -> int -> int -> int -> int -> channel -> unit
(** [hook slot start cycles stall flags channel], called once per
    retirement after the tally update: the retired instruction's slot
    index in [asm.code], its start cycle, the cycles it consumed (stalls
    and penalties included), its operand-dependency stall cycles, a word
    of flag bits and the machine's channel.  The flags say that:
    - {!flag_taken}: a control transfer was taken;
    - {!flag_window}: a window overflow or underflow occurred;
    - {!flag_result}: a value was driven on the result bus;
    - {!flag_icache_miss}, {!flag_uncached_fetch}: the cached fetch
      missed, or the fetch was from the uncached region;
    - {!flag_dcache_hit}, {!flag_dcache_miss}, {!flag_uncached_data}: a
      data access hit or missed the cache, or went to the uncached region;
    - {!flag_interlock}: an operand interlock stalled the instruction or
      a window overflow or underflow occurred (the macro-model's
      interlock event).

    The threaded loop fills the channel only while a hook is installed;
    the interpreter fills it from its event ({!load_channel}). *)

val flag_taken : int
val flag_window : int
val flag_result : int
val flag_icache_miss : int
val flag_uncached_fetch : int
val flag_dcache_hit : int
val flag_dcache_miss : int
val flag_uncached_data : int
val flag_interlock : int

val chain : hook -> hook option -> hook
(** [chain h next] calls [h], then [next] if there is one. *)

val load_channel : channel -> Event.t -> int
(** Fill the channel from an interpreter event and return its flag word:
    exactly what the interpreter passes its hook for that retirement. *)

type t

val create :
  ?config:Config.t ->
  ?extension:Tie.Compile.compiled ->
  ?tally:Tally.t ->
  Isa.Program.asm ->
  t
(** A machine at the program's entry.  [tally] (default: a fresh one
    with {!Tally.no_weights}) receives every retirement, on either
    backend, before any observer; its structural weights are resolved
    per slot when {!run_threaded} decodes the program.
    @raise Invalid_argument if [tally] was created for a configuration
    with another taken-branch penalty. *)

val tally : t -> Tally.t
(** The tally this machine folds into. *)

val add_observer : t -> observer -> unit
(** Register an observer, which {!step} and {!run} notify after the hook.
    Ordering contract: observers must be registered before the first
    {!step} — every observer sees the full event stream from the first
    retired instruction, in registration order.  Registering after
    execution has begun (any instruction retired, or the run already
    finished) would silently miss events, so it raises {!Sim_error}
    instead.
    @raise Sim_error if any instruction has already retired. *)

val set_hook : t -> hook -> unit
(** Install the retire hook (replacing any previous one).  Same contract
    as {!add_observer}: it sees every retirement from the first one, and
    {!clone} does not carry it.
    @raise Sim_error if any instruction has already retired. *)

type slot_facts = {
  f_clazz : Isa.Instr.clazz;
  f_busy : int;                 (** execute-stage cycles *)
  f_regfile : bool;             (** custom instruction touching the
                                    generic register file *)
  f_weights : Tally.contribution;
      (** structural contribution per retirement *)
}
(** What one retirement of a slot adds to the tally besides its dynamic
    effects (cycles, cache misses, interlocks): the arguments of
    {!Stats.add_class} and the slot's {!Tally.contribution}. *)

val slot_facts :
  ?extension:Tie.Compile.compiled ->
  Tally.weights ->
  Isa.Program.asm ->
  slot_facts array
(** Per slot of [asm.code], the facts {!run_threaded}'s decode resolves
    for a machine created with [extension] and a tally of these weights.
    A custom instruction that does not resolve gets class cycles only,
    as it faults when it executes. *)

val step : t -> [ `Step of Event.t | `Done of outcome ]
(** Execute one instruction, fold its event into the tally
    ({!Tally.observe}), call the hook, then notify the observers.  After
    [`Done] further calls return the same outcome. *)

val run : t -> outcome
(** Step until completion: the reference interpreter. *)

val run_threaded : t -> outcome
(** Run to completion on the threaded-code backend, the default one
    (see {!Backend}): the program is pre-decoded once into one compiled
    closure per slot (operands, branch targets, immediates, latencies and
    custom-instruction lookups resolved at load time, straight-line runs
    delimited by {!Decoder.analyze}'s basic-block partition) and
    dispatched block-at-a-time.  A slot whose static resolution fails (a
    missing branch or [l32r] target, a custom instruction with no
    extension installed, an unknown one, a malformed call site) compiles
    to a closure that raises the interpreter's {!Sim_error}, with the
    same message, at the retirement where {!step} raises it; a branch
    without a target still falls through when not taken.  Semantics are
    those of repeated {!step}, which stays the reference
    [Backend.Check] compares against: same cycles, same architectural
    state, the same tally, and the same hook calls with the same channel
    contents.  The tally and the hook are fed from the decoded slot, its
    packed penalty word and register reads around its closure (see
    {!Tally}); nothing is allocated per retirement.  The [sim_*]
    retirement metrics are bumped once when the run ends (also on
    {!Sim_error}), from the tally's movement, with the same totals the
    interpreter's per-event recording gives.  (After a {!Sim_error}, the
    tally and so the metrics also count the faulting instruction's fetch
    miss: the loop counts fetches as they happen.)
    @raise Sim_error if an observer is installed: observed machines run
    on the interpreter ({!Backend.run_program} routes them there). *)

val clone : t -> t
(** Independent deep copy of the machine state (memory, caches,
    register file, scoreboard, TIE state, clocks, and a copy of the
    tally with the same weights) with no observer, no hook and a fresh
    channel; the backend equivalence checker uses it to run the same
    program twice from identical state.  The copy is a shadow: its
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
