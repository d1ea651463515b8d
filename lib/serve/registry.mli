(** The daemon's model registry: characterize once per processor
    configuration, serve from memory thereafter.

    Models are keyed by a content hash of the {!Sim.Config.t} they were
    characterized under ({!key_of_config}), so two requests naming the
    same configuration — however they spell it — share one model.  A
    lookup that misses runs a full characterization (the expensive step
    the daemon exists to amortize) and keeps the fitted model for the
    registry's lifetime.  Nothing is ever evicted: a model is one
    21-coefficient array, and the samples behind it stay in the
    service's evaluation cache anyway, so a model preloaded from a
    coefficients file keeps answering for its configuration however
    many other configurations the daemon resolves.

    The registry is safe under the concurrent server: an internal lock
    guards the resident table and counters, and characterization is
    single-flight {e per config hash} — a lookup racing a
    characterization of the same configuration waits for that flight's
    model (and counts as a hit, since it ran no flight of its own),
    while lookups of other configurations proceed immediately,
    including launching their own characterizations in parallel.  The
    expensive characterization itself runs with the lock released, so
    one cold configuration never serializes the rest of the daemon.

    Every lookup is counted in the {!Obs.Metrics} registry
    ([serve_registry_hits_total], [serve_registry_misses_total], with
    the resident count as the [serve_registry_models] gauge and
    characterization wall time in [serve_characterize_seconds]) — a
    [/metrics] scrape shows exactly how warm the registry is.
    Characterizations also emit a [serve:characterize] {!Obs.Log}
    record stamped with the requesting [trace_id].  A miss
    characterizes in the requester's scope, so on its ["backend"]: the
    coefficients are bit-identical on every backend (the [check] oracle
    holds them so). *)

type t

type lookup = {
  l_key : string;                 (** {!key_of_config} of the request *)
  l_model : Core.Template.model;
  l_hit : bool;                   (** served from memory, no
                                      characterization ran *)
  l_simulations : int;
  (** simulations this lookup's characterization ran: 0 on a hit, on a
      waited-for flight and on a model read back from the cache *)
}

type stats = {
  r_models : int;     (** models currently resident *)
  r_hits : int;
  r_misses : int;     (** characterizations run *)
}

val key_of_config : Sim.Config.t -> string
(** Content hash (hex digest) of the full processor configuration. *)

val create :
  characterize:(Sim.Config.t -> Core.Template.model * int) ->
  unit ->
  t
(** [characterize] fits a configuration's model on a miss and says how
    many simulations it ran: the {!Service} reads the model through the
    shared evaluation cache, so a daemon restarted on its directory
    neither simulates nor fits; tests inject a stub to count
    characterizations. *)

val get : t -> Sim.Config.t -> lookup
(** The model for a configuration: from memory when resident, otherwise
    characterized and kept. *)

val preload : t -> Sim.Config.t -> Core.Template.model -> unit
(** Install an already-fitted model (e.g. loaded from a coefficients
    file at daemon startup) so the first request under that
    configuration is already a hit.  Counts as neither hit nor miss. *)

val stats : t -> stats
(** Lifetime counters plus the resident count: every configuration
    resolved or preloaded so far. *)
