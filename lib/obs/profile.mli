(** Location profiles: interned call-stack aggregation.

    The module is deliberately ISA-agnostic — stack frames are strings.
    [Core.Profiler] keeps its per-slot counters in flat arrays of its
    own and builds a simulated program's flame-graph stacks on top of
    {!Stacks}.  A hot caller keeps its own counters and folds them in
    once: it memoizes {!Stacks.leaf} per frame and {!Stacks.position}
    and adds totals with {!Stacks.record_at}. *)

(** Interned call-stack aggregation for flame-graph ("folded") output.

    Stacks are interned into a prefix tree: each distinct
    [(parent, frame)] pair becomes one node, so recording an event
    against the current stack is O(1) after an amortised child lookup.
    Producing Brendan-Gregg-style folded lines is then a walk over the
    touched nodes. *)
module Stacks : sig
  type stack

  val create : ?max_depth:int -> root:string -> unit -> stack
  (** [root] names the bottom frame (typically the program).  Frames
      pushed beyond [max_depth] (default 128) are counted but not
      interned; their events accumulate at the deepest retained node,
      and the matching pops unwind the overflow first. *)

  val push : stack -> string -> unit

  val pop : stack -> unit
  (** Popping at the root is a no-op (tolerates unmatched returns). *)

  val depth : stack -> int
  (** Current depth, root = 0, including capped frames. *)

  val record : stack -> cycles:int -> energy_pj:float -> unit
  (** Fold one event into the current stack. *)

  val record_leaf :
    stack -> frame:string -> cycles:int -> energy_pj:float -> unit
  (** Like {!record} but against a transient leaf [frame] (e.g. the
      basic block) below the current node, without changing the
      stack. *)

  val leaf : stack -> frame:string -> int
  (** The node {!record_leaf} would record into for [frame] on the
      current stack (interned on first sight).  Node ids stay valid for
      the life of the stack. *)

  val position : stack -> int
  (** Where leaves attach now: while it is unchanged, {!leaf} returns
      the same node for the same frame, so a caller may memoize leaves
      per frame and position and accumulate against them itself (see
      {!record_at}). *)

  val record_at : stack -> int -> cycles:int -> energy_pj:float -> unit
  (** Fold totals into a node returned by {!leaf}. *)

  val folded : stack -> (string * int * float) list
  (** [(";"-joined stack, cycles, energy_pj)] rows for every touched
      node, sorted by stack string — the flame-graph collapsed format.
      Cycle and energy totals over the rows equal the recorded totals. *)
end
