(** Content-addressed memoization cache for simulation-derived profiles.

    Design-space exploration evaluates many candidates whose energy
    differs only through the macro-model dot product, while the
    expensive input — the instruction-set simulation that yields the
    variable vector (and, during characterization, the reference
    "measured" energy) — depends solely on the (program, extension,
    processor-configuration) triple.  This cache keys that triple by a
    content hash, so candidates sharing a base-core simulation reuse its
    extracted variables instead of re-simulating, and a repeated (warm)
    sweep reuses the whole run from disk.

    Two layers: an in-process table, always on, and an optional on-disk
    store (one JSON file per entry under {!create}'s [dir]).  The disk
    layer degrades gracefully by design: a corrupted, truncated,
    version-skewed or unreadable file — and an unwritable directory —
    count into {!type-stats}[.errors] (and the
    [eval_cache_errors_total] metric) and fall back to recompute;
    they never raise out of {!find}/{!store}.  Hits, misses and stores
    are counted in the {!Obs.Metrics} registry
    ([eval_cache_hits_total], [eval_cache_misses_total],
    [eval_cache_stores_total]) and, with tracing enabled, recorded as
    instants on the ["cache"] category.

    The directory is a {e managed} store and its own only record: an
    entry is a regular file named [<32-hex>.json], its size is the
    file's size and its last use the file's mtime (set by the store's
    write or by a {!flush}ed hit; a future mtime counts as now).  The
    lifecycle operations {!disk_stats}, {!prune} (LRU eviction under
    {!type-policy} bounds; entries are immutable and recomputable, so
    eviction is always safe), {!verify} and {!gc} read one directory
    scan without a live cache instance — they back the [xenergy cache]
    CLI.  Evictions and swept orphans are counted as
    [eval_cache_evictions_total] and [eval_cache_orphans_total].

    With an {!Obs.Log} sink open, lookups and evictions additionally
    emit structured records: [cache:hit] (key, name, memory/disk
    layer) and [cache:miss] at [Debug], [cache:evict] and
    [cache:cap-enforced] at [Info]. *)

type entry = {
  e_name : string;           (** workload name (informational only) *)
  e_variables : float array; (** the 21-element macro-model vector *)
  e_cycles : int;
  e_instructions : int;
  e_stall_cycles : int;
  e_measured_pj : float option;
  (** reference-estimator energy, when the entry was collected with the
      reference attached (characterization); [None] for profile-only
      entries *)
}

type t
(** A cache instance (in-memory table plus optional disk directory).
    An instance is safe to share between threads: {!find}, {!store},
    {!flush} and {!stats} each run under the instance's own mutex, so
    callers never lock around it.  Distinct instances over one
    directory (or distinct processes) stay safe through atomic file
    publication; forked workers never touch the parent's instance. *)

type stats = {
  hits : int;     (** lookups answered from memory or disk *)
  misses : int;   (** lookups that found nothing *)
  errors : int;   (** corrupted/unreadable loads and failed writes *)
  stores : int;   (** entries written (memory, plus disk when enabled) *)
}

val create : ?dir:string -> ?max_bytes:int -> unit -> t
(** [create ~dir ()] — memoize to memory and to one JSON file per entry
    under [dir] (created on demand; creation failure is deferred to the
    first {!store}, as an [errors] count).  Without [dir] the cache is
    memory-only.

    [max_bytes] puts the directory under an {e inline} size cap: a
    {!store} that pushes the estimated on-disk payload past the bound
    immediately runs LRU eviction down to three quarters of the bound
    (the same pass as {!prune}[ ~policy:{unlimited with max_bytes =
    Some (max_bytes * 3 / 4)}], counted in
    [eval_cache_evictions_total]), with this instance's pending
    last-used times flushed first so the current sweep's entries read
    as fresh.  The estimate is seeded from a directory scan at the
    first capped store and advanced per store, so a store that stays
    under the bound costs one integer comparison and scans nothing.
    Ignored for memory-only caches. *)

val key :
  ?backend:string ->
  ?with_reference:bool ->
  config:Sim.Config.t ->
  Extract.case ->
  string
(** Content hash (hex digest) of everything the cached computation
    depends on: the program's {!Extract.digest} (code words, entry
    point, initialised memory image, full extension specification;
    computed once per case), the processor configuration, whether the
    reference estimator rides the simulation ([with_reference], default
    [false]) and the simulation [backend] name (default: {!Sim.Backend.name}
    of {!Sim.Backend.current} — backends are bit-identical by contract,
    but keying them apart means a cached vector can never mask a
    divergence).  The case keeps its last key ({!Extract.key_memo}) and
    returns it while all three settings are unchanged.  Payload version
    3: keys made by earlier versions name no entry this one finds. *)

val model_key : string list -> string
(** [model_key sample_keys] keys the macro-model fitted
    over the samples stored under [sample_keys] (reference-carrying
    {!key}s, in fitting order): it inherits everything they cover and
    adds a model version.  The
    version must be bumped whenever a change to [Regress.Lsq] or
    [Characterize.fit_samples] can change a coefficient's bits.  The
    model is stored as an ordinary entry: name ["model"], the
    coefficients as [e_variables], zero counts and no reference
    energy. *)

val find : t -> string -> entry option
(** Look a key up (memory first, then disk); counts a hit or miss.
    A disk entry that fails to load counts an error and reads as a
    miss. *)

val store : t -> string -> entry -> unit
(** Record an entry under a key.  Disk writes are atomic
    (temp-file-and-rename, published world-readable for shared cache
    directories; the temp file is unlinked if the write fails); a
    failed write — including an entry holding a non-finite float, which
    has no JSON encoding — counts an error and leaves the in-memory
    entry in place. *)

val flush : t -> unit
(** Publish the last-used times of this instance's disk hits as the hit
    entry files' mtimes (a store's own write already set its entry's),
    so a sweep pays per entry read, not per entry in the directory.  A
    file pruned meanwhile is skipped; one whose mtime cannot be set
    (another user's) is rewritten from memory through {!store}'s atomic
    publication, whose write records the use.  A no-op for memory-only
    caches.  {!Explore.evaluate} flushes at the end of every sweep.  Failures
    are error-counted, never raised. *)

val stats : t -> stats
(** Counters accumulated over this instance's lifetime. *)

val diff : stats -> stats -> stats
(** [diff later earlier] — per-field subtraction, for reporting the
    delta of one sweep. *)

val entry_to_json : key:string -> entry -> Obs.Json.t
(** The on-disk document, stored as {!Obs.Json.print} prints it: a load
    returns bit-identical values — warm sweeps reproduce cold sweeps
    exactly.
    @raise Failure when the entry holds a non-finite float (no JSON
    encoding; {!store} converts that into an error-counted skipped
    disk write). *)

val entry_of_json : expect_key:string -> string -> entry
(** Parse a printed {!entry_to_json} document, validating format,
    version, key and variable-vector length.
    @raise Obs.Json.Parse_error (or [Failure]) on any mismatch — {!find}
    converts that into an error-counted miss. *)

(** {1 Read-through collection}

    The one probe/simulate/store loop: characterization, audits, sweeps
    and the daemon's [estimate] all collect through it. *)

val compute : config:Sim.Config.t -> with_ref:bool -> Extract.case -> entry
(** Simulate a case once and build its entry; with [with_ref] the
    reference estimator rides the same simulation as its retire hook and
    fills [e_measured_pj].  Under [Sim.Backend.Check] the event-by-event
    {!Power.Oracle} folds an interpreter run of the case, and the
    compiled estimator the checked run's threaded half.
    @raise Sim.Backend.Mismatch if the two reference estimators differ in
    any energy bit, breakdown entry or evaluation count. *)

type simulate =
  config:Sim.Config.t -> with_ref:bool -> Extract.case list -> entry list
(** How a collection simulates its misses: one {!compute} per case, in
    order. *)

val collect :
  ?jobs:int ->
  ?simulate:simulate ->
  t ->
  with_ref:bool ->
  config:Sim.Config.t ->
  Extract.case list ->
  (entry * bool) list * int
(** [collect cache ~with_ref ~config cases] resolves each case to an
    entry: probe [cache] (keyed with [with_ref] and the current
    backend; with [with_ref] an entry lacking the
    reference energy counts as a miss), simulate each distinct missing
    key once, store the results, and return one [(entry, cached)] row
    per case in input order plus the number of simulations run.
    [cached] is [false] only for the first row of a freshly simulated
    key, so a case named twice simulates once.  [simulate] defaults to
    {!compute} fanned out over {!Parallel.map} with [jobs]; it is not
    called when every case hits.  Hits are not {!flush}ed. *)

(** {1 Lifecycle management}

    These operate on a cache {e directory} (no live instance needed),
    each from one scan of it: only regular files named [<32-hex>.json]
    are entries (a directory so named, an [index.json] left by an older
    release and every other name are foreign files, which {!gc}
    sweeps).  They back [xenergy cache stats|prune|verify|gc]. *)

type policy = {
  max_entries : int option;  (** keep at most this many entries *)
  max_bytes : int option;    (** keep at most this many payload bytes *)
  max_age_s : float option;  (** evict entries unused for longer *)
}

val unlimited : policy
(** No bounds: {!prune} under it evicts nothing. *)

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_oldest : float option;  (** least recent last-use (Unix time) *)
  d_newest : float option;  (** most recent last-use (Unix time) *)
}

val disk_stats : string -> disk_stats
(** Inventory of a cache directory: its entries, their bytes and the
    range of their last uses. *)

type prune_report = {
  p_kept : int;
  p_kept_bytes : int;
  p_evicted : int;
  p_evicted_bytes : int;
}

val prune : ?now:float -> policy:policy -> string -> prune_report
(** Apply the eviction policy to a cache directory: delete the least
    recently used entries until every given bound holds (ties on last
    use break by key).  Only entries actually removed, or already gone,
    count as evicted.  [now] (default: the current time) anchors the
    [max_age_s] bound and is injectable for tests. *)

type verify_report = {
  v_ok : int;                         (** entries that re-parse cleanly *)
  v_corrupt : (string * string) list; (** entry file, failure reason *)
  v_foreign : string list; (** names that are neither entries nor temp
                               files *)
  v_tmp : string list;     (** [*.tmp] files ({!gc} sweeps those ten
                               minutes old or older) *)
}

val verify : string -> verify_report
(** Re-parse every entry in a cache directory (format, version,
    key-matches-filename, variable-vector length) and classify every
    file.  Read-only. *)

type gc_report = {
  g_tmp_removed : int;     (** orphaned [*.tmp] files deleted *)
  g_foreign_removed : int; (** foreign files deleted *)
}

val gc : string -> gc_report
(** Sweep a cache directory: delete orphaned [*.tmp] files (left by
    writers that died mid-publication) and files that can never be
    cache entries, an old [index.json] among them; directories stay.
    A temp file modified in the last ten minutes may belong to a live
    writer between its write and its rename, so it stays for a later
    sweep.
    Correctly-named entries are never deleted here, even when corrupt —
    they self-heal (an error-counted miss recomputes and overwrites
    them); use {!verify} to find them. *)
