(** Execution-backend selection for the simulator.

    Two substrates execute programs with identical semantics: the
    threaded-code backend ({!Cpu.run_threaded}, pre-decoded operation
    closures dispatched block-at-a-time; the default) and the reference
    interpreter ({!Cpu.run}, decode-per-retirement).  [Check] is the
    equivalence oracle: it runs both from identical initial state and
    raises {!Mismatch} unless the outcome, the cycle and instruction
    counts, and a digest over the complete retirement event streams all
    agree bit-for-bit.

    Selection is a process-wide default ({!set_current}, seeded from the
    [XENERGY_BACKEND] environment variable by {!init_from_env}, exposed
    on the CLI as [--backend]) with per-call overrides on
    {!run_program} and {!with_current}.  Worker pools fork, so the
    parent's selection is inherited by children created afterwards;
    long-lived pools (the serve daemon) must carry the backend in each
    request instead. *)

type t =
  | Interp    (** the reference interpreter, one decode per retirement *)
  | Threaded  (** pre-decoded threaded code, interpreter adapter for
                  uncovered instructions; the default *)
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
(** The current scope's backend: an active {!with_current} override if
    one is set, otherwise the process-wide default (initially
    [Threaded]). *)

val set_current : t -> unit
(** Replace the process-wide default. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run a thunk with the current scope's backend temporarily replaced
    (restored on return or exception); the serve daemon uses it to
    honour a per-request backend without disturbing the process
    default. *)

val set_scope_key : (unit -> int) -> unit
(** Name the current override scope (default [fun () -> 0]: one
    process-wide scope).  A server handling connections on threads
    installs [fun () -> Thread.id (Thread.self ())] once at startup,
    after which each connection thread's {!with_current} override is
    private to it — two concurrent requests naming different backends
    simulate on different substrates, as each asked.  Forked workers
    inherit the key and the forking thread's override. *)

val env_var : string
(** ["XENERGY_BACKEND"]. *)

val init_from_env : unit -> unit
(** Apply {!env_var} if set; unknown values warn (stderr and
    [Obs.Log]) and leave the default unchanged. *)

val execute : Cpu.t -> Cpu.outcome
(** Run a prepared machine (observers installed, nothing retired) to
    completion on {!current}.  Under [Check] the machine is cloned
    first: the clone runs the interpreter, the original runs the
    threaded backend (so the caller's observers see exactly one event
    stream — the threaded one), and the two streams are compared.
    @raise Mismatch under [Check] on any divergence. *)

val run_program :
  ?backend:t ->
  ?config:Config.t ->
  ?extension:Tie.Compile.compiled ->
  ?observers:Cpu.observer list ->
  Isa.Program.asm ->
  Cpu.t * Cpu.outcome
(** Create, install observers, {!execute} on [backend] (default
    {!current}).  The one way to run a program from start to end. *)

val checks_run : unit -> int
(** Number of dual-run equivalence checks performed by this process
    (each one a full interpreter run plus a full threaded run that
    agreed); lets the CLI report that [Check] actually checked. *)
