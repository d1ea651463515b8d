(** Instruction-level execution statistics.

    An observer accumulating exactly the instruction-level quantities the
    macro-model needs: cycles per base instruction class, dynamic-effect
    counts (cache misses, uncached fetches, interlocks) and the
    register-file side-effect cycles of custom instructions. *)

type t = {
  mutable arith_cycles : int;
  mutable load_cycles : int;
  mutable store_cycles : int;
  mutable jump_cycles : int;
  mutable branch_taken_cycles : int;
  mutable branch_untaken_cycles : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable uncached_fetches : int;
  mutable interlocks : int;
  mutable stall_cycles : int;
  (** total operand-dependency stall cycles across all interlocks *)
  mutable custom_regfile_cycles : int;
  (** cycles of custom instructions that access the generic register file
      (the paper's side-effect variable) *)
  mutable custom_cycles : int;     (** total custom-instruction busy cycles *)
  mutable instructions : int;
  mutable total_cycles : int;
  taken_penalty : int;  (** from the configuration, for cycle attribution *)
}

val create : Config.t -> t

val add_class :
  t ->
  Isa.Instr.clazz ->
  count:int ->
  taken:int ->
  busy:int ->
  regfile:bool ->
  unit
(** [add_class t clazz ~count ~taken ~busy ~regfile] adds the class
    cycles (and instruction count) of [count] retirements of one static
    instruction, [taken] of them taken branches; [busy] is its
    execute-stage occupancy and [regfile] whether it is a custom
    instruction touching the generic register file (see
    {!touches_regfile}).  The class part of the fold, shared by both
    backends: {!observe} adds one retirement at a time, the threaded
    backend settles per-slot counts (see {!Tally}).  The remaining
    counters (cycles, cache misses, uncached fetches, interlocks,
    stalls) are per-retirement effects each backend reads off its own
    representation. *)

val touches_regfile : Tie.Compile.compiled_insn -> bool
(** Does the custom instruction read or write the generic register file
    (the [regfile] argument of {!add_class})? *)

val observe : t -> Event.t -> unit
(** Fold one retirement event. *)

val observer : t -> Event.t -> unit
(** {!observe} packaged for {!Cpu}'s observer list. *)

val copy : t -> t
(** An independent copy of the counters. *)

val reset : t -> unit

val record_metrics : before:t -> t -> unit
(** Bump the [sim_*] retirement metrics (instructions, cycles, stall
    cycles, interlocks, cache misses and [sim_class_instructions_total]
    per class) by the counters' movement from [before] to the settled
    [after].  The simulator calls it once per run. *)
