(** Hotspot profiler: per-basic-block cycle and energy profiles of one
    simulated workload.

    The profiler takes the program's static basic-block partition from
    {!Sim.Decoder.analyze} (the same partition the threaded execution
    backend dispatches, so profiler and backend agree on block identity
    by construction; leaders are the entry point, every control-flow
    target, every fall-through past a control instruction, and every
    code symbol, so indirect jump/call destinations start blocks too)
    and is fed by the simulator's allocation-free retire hook
    ({!Sim.Cpu.hook}), not by events.  Per retirement it adds the
    instruction's cycles, stalls and cache misses to its slot's integer
    counters, and its {e exact marginal model energy} from
    {!Attribution.fold} to its block, slot, opcode and call-stack leaf;
    slot counters are resolved to blocks, lines and opcodes after the
    run.  Detached, nothing in the simulator changes.

    Conservation is the invariant throughout: per-block cycles sum to
    the simulator's cycle count exactly, and per-block energies sum to
    the macro-model estimate (the same total {!Run_report} carries) to
    rounding error.  {!check} exposes both gaps for tests and CI.

    Beyond the block table the profiler derives a call-stack profile
    (flame-graph "folded" lines via {!Obs.Profile.Stacks}, the stack
    moved only after call and return slots), a per-line profile for
    annotated disassembly, and a per-opcode histogram. *)

(** One basic block of the partition, with its accumulated profile.  Blocks
    partition the code section in program order. *)
type block = {
  b_index : int;
  b_addr : int;               (** address of the leader instruction *)
  b_last : int;               (** address of the final instruction *)
  b_label : string;           (** symbol, [sym+0xoff], or hex address *)
  b_slots : int;              (** static instruction count *)
  mutable b_entries : int;    (** times the leader retired *)
  mutable b_retired : int;    (** instructions retired in the block *)
  mutable b_cycles : int;
  mutable b_stall_cycles : int;
  mutable b_icache_misses : int;
  mutable b_dcache_misses : int;
  mutable b_energy_pj : float;
}

(** One instruction slot's profile, for annotation.  A slot that never
    retired has [s_hits = 0]. *)
type slot_row = {
  s_hits : int;               (** retirements *)
  s_cycles : int;
  s_energy_pj : float;
}

type opcode_row = {
  op_name : string;           (** mnemonic *)
  op_hits : int;
  op_cycles : int;
  op_energy_pj : float;
}

type report = {
  r_workload : string;
  r_asm : Isa.Program.asm;
  r_blocks : block array;     (** every block, program order *)
  r_hot : block array;        (** executed blocks, descending cycles *)
  r_slots : slot_row array;   (** one row per code slot, program order *)
  r_opcodes : opcode_row list;          (** descending cycles *)
  r_folded : (string * int * float) list;
      (** flame-graph rows: stack, cycles, energy_pj *)
  r_breakdown : Attribution.breakdown;  (** per-variable view of the
                                            same run *)
  r_cycles : int;
  r_instructions : int;
  r_total_pj : float;         (** macro-model energy of the run *)
  r_cycle_gap : int;          (** |sum block cycles - r_cycles| *)
  r_energy_gap : float;       (** relative gap of block energy sum *)
}

val run : ?config:Sim.Config.t -> Template.model -> Extract.case -> report
(** Simulate the case once with an {!Attribution} engine's tally
    installed (default 64-cycle waveform buckets) and the profiler as
    the retire hook, under a [profile:] trace span; bumps the
    [profile_*] metrics family when metrics are enabled.  The tracked
    call stack is capped at 128 frames. *)

val check : report -> float * float
(** [(cycle gap, energy gap)], both relative to the run totals: the
    conservation oracle.  Tests assert cycles at exactly 0 and energy
    below 1e-6. *)

val pp_table : ?top:int -> Format.formatter -> report -> unit
(** Hottest-blocks table (default top 10) with per-block and cumulative
    cycle shares, stalls, cache misses and energy. *)

val pp_annotate : Format.formatter -> report -> unit
(** Annotated disassembly: every instruction slot with its retirement
    count and cycle/energy shares, labels interleaved. *)

val pp_opcodes : Format.formatter -> report -> unit
(** Per-opcode histogram, descending cycles. *)

val folded_lines : ?energy:bool -> report -> string
(** Brendan-Gregg collapsed stacks, one [stack count] line each —
    counts are cycles, or rounded picojoules with [~energy:true].
    Feed to a flame-graph renderer. *)

val to_json : ?top:int -> report -> Obs.Json.t
(** Full report as JSON (all executed blocks unless [top] is given —
    conservation checks need the complete set); energies in picojoules,
    conservation gaps included. *)
