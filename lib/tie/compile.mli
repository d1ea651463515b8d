(** The TIE compiler.

    Validates an extension specification, infers bit widths, extracts the
    hardware component instances each instruction activates, estimates
    instruction latency from the datapath critical path, and produces
    executable semantics for the instruction-set simulator.

    Compilation also identifies the {e bus-facing} components — those
    whose inputs connect directly to the shared operand buses of the base
    datapath.  As in the paper's Example 1, these components see spurious
    switching activity whenever a {e base} instruction drives the operand
    buses; the resource-usage analysis and the reference power model both
    account for this side effect. *)

exception Tie_error of string

type plan
(** Pre-resolved execution plan: operand slots, and the instruction's
    expressions compiled to closures ({!Expr.compile}) so {!execute}
    performs no name lookups or width inference.  A plan holds no
    mutable state — every execution runs over an argument array its
    caller owns — so a {!compiled} extension is immutable and may be
    shared by any number of threads, each simulating on its own
    {!state_store}. *)

type compiled_insn = {
  def : Spec.insn_def;
  components : Component.t list;
  (** one entry per hardware instance activated by the instruction *)
  latency : int;              (** cycles in the execute stage, >= 1 *)
  regfile_reads : int;        (** number of [In_reg] operands *)
  writes_regfile : bool;
  bus_facing : Component.t list;
  (** subset of [components] wired straight to the operand buses *)
  plan : plan;
}

type compiled

val compile : Spec.t -> compiled
(** @raise Tie_error on unknown operand/state/table names, multiple
    immediate operands, or width inference failures. *)

val spec : compiled -> Spec.t

val find : compiled -> string -> compiled_insn option

val instructions : compiled -> compiled_insn list

val all_components : compiled -> Component.t list
(** Every component instance in the extension (concatenated over
    instructions, custom registers deduplicated per state). *)

val bus_facing_components : compiled -> Component.t list
(** Union of the per-instruction bus-facing sets. *)

(** {1 Runtime state} *)

type state_store

val create_state : compiled -> state_store
(** Fresh store with every state at its declared initial value. *)

val state_value : state_store -> string -> int
(** @raise Not_found for undeclared states. *)

val state_at : state_store -> int -> int
(** The [k]th state's value in declaration order, 0 past the last: an
    allocation-free read for the simulator's retire channel. *)

val state_values : state_store -> int list
(** Every state's value, in declaration order. *)

val copy_state : state_store -> state_store
(** Independent snapshot of every state value; used by the simulator's
    backend equivalence checker. *)

val reset_state : compiled -> state_store -> unit

val execute :
  compiled ->
  state_store ->
  compiled_insn ->
  srcs:int list ->
  imm:int option ->
  int option
(** Run one instruction: returns the destination-register value (if the
    instruction has a result) and commits state updates.  Register
    operands are consumed positionally from [srcs].  This is the
    reference path: it allocates a fresh argument array per call.
    @raise Tie_error if [srcs] does not supply every register operand. *)

val no_result : int
(** Sentinel returned by a {!bind} closure when the instruction writes
    no register ([-1]; real results are masked to 32 bits, so never
    negative). *)

val bind :
  compiled ->
  state_store ->
  compiled_insn ->
  nsrcs:int ->
  imm:int option ->
  (int array -> int)
(** Pre-bind one call site of the instruction: the immediate value and
    the source-register-to-operand routing are resolved now, returning
    a closure that executes against the given state store with only a
    masked operand copy per call.  The closure owns a private argument
    array, so it belongs to whoever owns the state store.  It returns
    the destination-register value, or {!no_result} if the instruction
    has none; results, state updates, and masking are bit-identical to
    {!execute} fed the same sources.
    @raise Tie_error now (rather than at execution) if the call site
    supplies fewer than the required register operands or omits a
    required immediate. *)
