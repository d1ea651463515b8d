(** Macro-model variable extraction.

    Runs a program on the instruction-set simulator with a {!Sim.Tally}
    installed and assembles the 21-element variable vector consumed by
    the macro-model from it.  This is the cheap path of the paper's
    flow: no reference (RTL-level) power estimation is involved, and on
    the threaded backend no per-instruction event is built unless an
    extra observer asks for one. *)

(** The last [Eval_cache.key] made for a case and what it was made
    of: a warm daemon keys the same case under the same settings on
    every request. *)
type key_memo = {
  km_backend : string;
  km_with_reference : bool;
  km_config : Sim.Config.t;
  km_key : string;
}

(** A workload: a program plus the custom-instruction extension it
    needs (if any). *)
type case = private {
  case_name : string;
  asm : Isa.Program.asm;
  extension : Tie.Compile.compiled option;
  digest_slot : Digest.t option Atomic.t;  (** {!digest}, once computed *)
  key_slot : key_memo option Atomic.t;
  (** the last [Eval_cache.key], replaced whenever its inputs change *)
}

val case :
  ?extension:Tie.Compile.compiled -> string -> Isa.Program.asm -> case
(** [case name asm] — bundle a program (and the extension it needs, if
    any) under a workload name. *)

val digest : case -> Digest.t
(** Content hash (MD5) of what a simulation of the case reads: the
    assembled code words, entry point, initialised memory image and the
    full extension specification.  Computed at the first call and kept
    in the case, so later calls (from any thread) return the same
    physical string. *)

type profile = {
  variables : float array;   (** indexed per [Variables.all] *)
  cycles : int;
  instructions : int;
  stall_cycles : int;        (** operand-dependency stall cycles *)
  outcome : Sim.Cpu.outcome;
  cpu : Sim.Cpu.t;           (** the finished simulator *)
}

val variables_of_tally : Sim.Tally.t -> float array
(** Assemble the macro-model variable vector from a tally's counters. *)

val variables_of_stats : Sim.Stats.t -> Resource.t -> float array
(** The same vector from the two event-fold observers' state: the
    oracle the fused vector is compared against. *)

val profile :
  ?config:Sim.Config.t ->
  ?complexity:(Tie.Component.t -> float) ->
  ?hook:Sim.Cpu.hook ->
  case ->
  profile
(** Simulate once with a tally weighted by {!Resource.weights}
    installed, and read the vector from it.  No hook or observer of its
    own is attached: [hook] (none by default) is called on the same
    single simulation — this is how the characterization engine
    attaches the reference power estimator so that one run yields both
    the variable vector and the "measured" energy.
    @raise Sim.Cpu.Sim_error on simulator faults. *)

val variable : profile -> Variables.id -> float
(** One component of the extracted vector, by variable id. *)

val pp_profile : Format.formatter -> profile -> unit
(** Cycle/instruction summary followed by the non-zero variables. *)
