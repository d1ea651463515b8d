(** The daemon's model registry: characterize once per processor
    configuration, serve from memory thereafter.

    Models are keyed by a content hash of the {!Sim.Config.t} they were
    characterized under ({!key_of_config}), so two requests naming the
    same configuration — however they spell it — share one model.  A
    lookup that misses runs a full characterization (the expensive step
    the daemon exists to amortize) and caches the fitted model; the
    resident set is bounded by [max_models]: each model keeps its last
    use, and the least recently used model past the bound is evicted
    (ties on last use break by key).

    The registry is safe under the concurrent server: an internal lock
    guards the resident table, last-use times and counters, and
    characterization is single-flight {e per config hash} — a lookup
    racing a characterization of the same configuration waits for that
    flight's model (and counts as a hit, since it ran no flight of its
    own), while lookups of other configurations proceed immediately,
    including launching their own characterizations in parallel.  The
    expensive characterization itself runs with the lock released, so
    one cold configuration never serializes the rest of the daemon.

    Every lookup is counted in the {!Obs.Metrics} registry
    ([serve_registry_hits_total], [serve_registry_misses_total],
    [serve_registry_evictions_total], with the resident count as the
    [serve_registry_models] gauge and characterization wall time in
    [serve_characterize_seconds]) — a [/metrics] scrape shows exactly
    how warm the registry is.  Characterizations and evictions also
    emit [serve:characterize] / [serve:evict-model] {!Obs.Log} records
    stamped with the requesting [trace_id].  A miss characterizes in the
    requester's scope, so on its ["backend"]: the coefficients are
    bit-identical on every backend (the [check] oracle holds them so). *)

type t

type lookup = {
  l_key : string;                 (** {!key_of_config} of the request *)
  l_model : Core.Template.model;
  l_hit : bool;                   (** served from memory, no
                                      characterization ran *)
}

type stats = {
  r_models : int;     (** models currently resident *)
  r_hits : int;
  r_misses : int;     (** characterizations run *)
  r_evictions : int;
}

val key_of_config : Sim.Config.t -> string
(** Content hash (hex digest) of the full processor configuration. *)

val create :
  ?max_models:int ->
  characterize:(Sim.Config.t -> Core.Template.model) ->
  unit ->
  t
(** [max_models] (default 4) bounds the resident set.  [characterize]
    fits a configuration's model on a miss: the {!Service} reads its
    samples through the shared evaluation cache, so a refit after a
    restart or an eviction only reruns the fit; tests inject a stub to
    count characterizations.
    @raise Invalid_argument when [max_models < 1]. *)

val get : t -> Sim.Config.t -> lookup
(** The model for a configuration: from memory when resident (touching
    its LRU slot), otherwise characterized, cached and LRU-evicting the
    oldest models past the [max_models] bound. *)

val preload : t -> Sim.Config.t -> Core.Template.model -> unit
(** Install an already-fitted model (e.g. loaded from a coefficients
    file at daemon startup) so the first request under that
    configuration is already a hit.  Counts as neither hit nor miss. *)

val stats : t -> stats
(** Lifetime counters plus the current resident count. *)
