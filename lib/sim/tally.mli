(** The macro-model's instruction-level and structural counters, kept by
    the simulator itself.

    A tally holds a {!Stats.t} and one float accumulator per
    custom-hardware component category ([Tie.Component.category_index]
    order).  The machine it is installed on ({!Cpu.create}) folds every
    retirement into it before its hook or any observer sees the
    retirement, on both backends.  The interpreter folds its event with
    {!observe}.  The threaded backend builds no event: it resolves each
    slot's structural {!type:contribution} at decode, adds it per
    retirement with {!add}, reads cache misses, interlocks and stalls
    off its packed penalty word, and settles per-slot retirement counts
    into class cycles with {!Stats.add_class} when the run ends (so a
    hook reading the tally sees current structural accumulators but not
    class cycles).
    [Backend.Check] compares the two folds field for field ({!diff}).

    Structural float adds happen once per retirement, in retirement
    order and in component order, exactly as an event fold does them:
    [0.17 *. cx] is not dyadic, so [count *. weight] would not be
    bit-identical. *)

type contribution = {
  cats : int array;       (** category accumulator indices *)
  amounts : float array;  (** the amount added to each, in order *)
}
(** What one retirement adds to the structural accumulators. *)

val contribution : (int * float) list -> contribution
(** [(category index, amount)] pairs, kept in order. *)

val nothing : contribution
(** The empty contribution. *)

type weights
(** The structural weighting of a run: what a custom instruction and a
    register-reading base instruction contribute.  Supplied by
    [Core.Resource], which owns the C(W) weighting. *)

val make_weights :
  custom:(Tie.Compile.compiled_insn -> busy:int -> contribution) ->
  reads:contribution ->
  weights
(** [custom insn ~busy] is a custom instruction's contribution when it
    occupies the execute stage for [busy] cycles (memoised per
    instruction); [reads] is a base instruction's that drives the
    operand buses. *)

val no_weights : weights
(** No extension: the structural accumulators never move. *)

val custom :
  weights -> Tie.Compile.compiled_insn -> busy:int -> contribution
(** A custom instruction's contribution when it occupies the execute
    stage for [busy] cycles. *)

val reads : weights -> contribution
(** A base instruction's that reads registers (drives the operand
    buses); a base instruction that reads none contributes
    {!nothing}.  The threaded backend resolves each slot with {!custom}
    or {!reads} once, at decode. *)

val of_event : weights -> Event.t -> contribution
(** {!custom}, {!reads} or {!nothing}, from an event's custom
    instruction and operand values. *)

val add : float array -> contribution -> unit
(** Add a contribution into accumulators, in order. *)

type t

val create : ?weights:weights -> Config.t -> t
(** A zeroed tally (default {!no_weights}).  The configuration must be
    the one the machine runs with: it fixes the taken-branch cycle
    count. *)

val stats : t -> Stats.t
(** The instruction-level counters (live). *)

val acc : t -> float array
(** The structural accumulators (live; read-only by contract). *)

val weights : t -> weights

val observe : t -> Event.t -> unit
(** Fold one retirement event: {!Stats.observe} plus {!of_event}. *)

val copy : t -> t
(** Independent copy with the same weights. *)

val diff : t -> t -> string option
(** [None] when the two tallies agree on every counter and, bit for bit
    ([Int64.bits_of_float]), on every accumulator; otherwise the first
    differing field with both values. *)
