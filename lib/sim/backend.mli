(** Execution-backend selection for the simulator.

    Two substrates execute programs with identical semantics: the
    threaded-code backend ({!Cpu.run_threaded}, pre-decoded operation
    closures dispatched block-at-a-time; the default) and the reference
    interpreter ({!Cpu.run}, decode-per-retirement).  Only the
    interpreter builds {!Event.t}s, so a run with observers executes on
    the interpreter whatever the backend.  [Check] is the equivalence
    oracle: it runs both from identical initial state and raises
    {!Mismatch} unless the outcome, the cycle and instruction counts, a
    digest over every retire-hook call with its channel contents, the
    two machines' {!Tally} counters (integers exactly, accumulators by
    [Int64.bits_of_float]) and the final machine state (registers and
    window, memory, TIE state, SAR and pc) all agree.

    Selection is a process-wide default ({!set_current}, seeded from the
    [XENERGY_BACKEND] environment variable by {!init_from_env}, exposed
    on the CLI as [--backend]) with per-call overrides on
    {!run_program} and per-thread overrides by {!with_current} (an
    {!Obs.Scope} variable).  Worker pools ship the requester's
    {!current} backend with every batch, so a lane simulates on the
    backend its requester would have used. *)

type t =
  | Interp    (** the reference interpreter, one decode per retirement *)
  | Threaded  (** pre-decoded threaded code, one compiled closure per
                  slot; the default *)
  | Check     (** run both; raise {!Mismatch} on any divergence from
                  the interpreter *)

exception Mismatch of string
(** The two substrates disagreed under [Check] — always a simulator
    bug, never a property of the program being simulated. *)

val all : t list

val name : t -> string
(** ["interp"], ["threaded"] or ["check"]; inverse of {!of_string}. *)

val of_string : string -> t option
(** Case-insensitive; accepts ["interpreter"] for [Interp]. *)

val current : unit -> t
(** The calling thread's backend: its {!with_current} override if one
    is set, otherwise the process-wide default (initially
    [Threaded]). *)

val set_current : t -> unit
(** Replace the process-wide default. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run a thunk with the calling thread's backend temporarily replaced
    (restored on return or exception).  Other threads keep theirs: the
    serve daemon runs each request under the request's backend without
    disturbing concurrent requests or the process default. *)

val env_var : string
(** ["XENERGY_BACKEND"]. *)

val init_from_env : unit -> unit
(** Apply {!env_var} if set; unknown values warn (stderr and
    [Obs.Log]) and leave the default unchanged. *)

val run_program :
  ?backend:t ->
  ?config:Config.t ->
  ?extension:Tie.Compile.compiled ->
  ?tally:Tally.t ->
  ?hook:Cpu.hook ->
  ?observers:Cpu.observer list ->
  Isa.Program.asm ->
  Cpu.t * Cpu.outcome
(** Create (with [tally], see {!Cpu.create}), install the retire hook
    ({!Cpu.set_hook}) and the observers, and run on [backend] (default
    {!current}).  The one way to run a program from start to end.
    - [Interp] runs {!Cpu.run}.
    - [Threaded] runs {!Cpu.run_threaded}, or {!Cpu.run} when there are
      observers.
    - [Check] clones the fresh machine.  The clone runs the interpreter
      and carries the observers; the returned machine runs the threaded
      loop and carries the hook and [tally].  So the observers see one
      event stream, the interpreter's, the hook one series of calls, the
      threaded ones, and neither sees the other half.  The clone counts
      no [sim_*] metrics, so a checked run counts each retirement once.

    @raise Mismatch under [Check] on any divergence. *)

val checks_run : unit -> int
(** Number of dual-run equivalence checks performed by this process
    (each one a full interpreter run plus a full threaded run that
    agreed); lets the CLI report that [Check] actually checked. *)
