(** Static pre-decode of an assembled program.

    Partitions the code section into basic blocks once, at load time:
    leaders are slot 0, the entry point, every resolved target of a
    control instruction, the fall-through after every control
    instruction, and every code symbol (the only statically visible
    destinations of indirect [jx]/[callx*]).  The same partition backs
    the hotspot profiler's per-block accounting and the threaded-code
    execution backend's block-at-a-time dispatch, so both agree on
    block identity by construction. *)

(** One basic block of the static partition. *)
type block = {
  blk_index : int;   (** position in {!field-blocks}, dense from 0 *)
  blk_addr : int;    (** address of the leader (first instruction) *)
  blk_last : int;    (** address of the final instruction *)
  blk_first : int;   (** slot index of the leader in [asm.code] *)
  blk_slots : int;   (** number of instruction slots in the block *)
  blk_label : string;
      (** nearest code symbol at or before the leader, rendered as
          [sym], [sym+0xoff], or a bare [0xaddr] when no symbol
          precedes the block *)
}

type t = {
  asm : Isa.Program.asm;
  symbols : (int, string) Hashtbl.t;
      (** code address -> symbol name (see {!code_symbols}) *)
  blocks : block array;
      (** the partition, in address order; empty iff the code section
          is empty *)
  block_of_slot : int array;
      (** slot index -> index into {!field-blocks} *)
}

val code_symbols : Isa.Program.asm -> (int, string) Hashtbl.t
(** Code-section symbols keyed by address.  When several labels share
    one address the lexicographically smallest wins, for determinism. *)

val analyze : Isa.Program.asm -> t
(** Discover the basic-block partition of [asm]'s code section.  Pure
    (no simulation state involved); cost is linear in the code size. *)

