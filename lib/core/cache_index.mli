(** On-disk index for {!Eval_cache} directories.

    A cache directory holds one immutable JSON file per entry, named
    [<32-hex-digest>.json].  For lifecycle operations over large caches
    (stats, eviction) a per-lookup [readdir]/[stat] storm would dwarf
    the work itself, so the directory carries an [index.json] mapping
    key -> {workload name, file size, last-used time}.

    The index is {e advisory, never authoritative}: the entry files are
    the ground truth.  A missing, corrupt or version-skewed index is
    rebuilt from the directory ({!rebuild}), and {!reconcile} re-syncs a
    loaded index against the files before any destructive decision —
    entries whose file vanished are dropped, unindexed files are
    adopted with their mtime as the last-use estimate, and a file's
    mtime later than its recorded use (a warm hit) wins.  An mtime in
    the future counts as now.  [index.json]
    is only ever replaced atomically (temp file + rename, world-readable),
    so concurrent writers leave either the old or the new document,
    never a torn one. *)

type meta = {
  m_key : string;       (** content hash = basename of the entry file *)
  m_name : string;      (** workload name (informational; [""] when
                            recovered from a rebuild) *)
  m_size : int;         (** entry file size in bytes *)
  m_last_used : float;  (** Unix time of the last hit or store *)
}

type t
(** A mutable in-memory index (key -> {!meta}). *)

val index_basename : string
(** ["index.json"]. *)

val index_path : string -> string
(** [index_path dir] — where the index document lives. *)

val file_of_key : string -> string
(** [file_of_key k] — the entry file basename for a key. *)

val key_of_entry_file : string -> string option
(** [Some key] when the basename names a cache entry
    ([<32 lowercase hex>.json]); [None] for the index, temp files and
    foreign files. *)

val create : unit -> t
(** An empty index. *)

val record : t -> meta -> unit
(** Insert or replace the meta for its key. *)

val remove : t -> string -> unit

val find : t -> string -> meta option

val count : t -> int

val total_bytes : t -> int

val entries : t -> meta list
(** All metas, sorted oldest-first by (last_used, key) — eviction
    order. *)

val load : string -> t option
(** Parse [dir/index.json]; [None] when missing, unreadable, corrupt or
    of an unknown version (callers then {!rebuild}). *)

val rebuild : string -> t
(** Scan the directory and index every entry file from its [stat]
    (size, mtime-as-last-used).  Unreadable files are skipped.  Never
    raises; an unreadable directory yields an empty index. *)

val load_or_rebuild : string -> t * bool
(** The index, plus [true] when it had to be rebuilt from the files. *)

val reconcile : string -> t -> int * int
(** Re-sync a loaded index against the directory: adopt unindexed entry
    files (returns how many were added), drop entries whose file is
    gone (returns how many were dropped), and correct recorded sizes.
    An entry's last use becomes the later of the recorded one and its
    file's mtime, which a hit-only {!Eval_cache.flush} sets. *)

val save : string -> t -> unit
(** Atomically rewrite [dir/index.json] (temp file + rename, mode
    0o644).  The temp file is unlinked if the write fails.
    @raise Sys_error (or [Unix.Unix_error]) when the directory is not
    writable. *)

val plan_eviction :
  now:float ->
  ?max_entries:int ->
  ?max_bytes:int ->
  ?max_age_s:float ->
  t ->
  meta list
(** LRU eviction plan: the metas to delete so that the retained set
    keeps the most recently used entries and satisfies every given
    bound (at most [max_entries] entries, at most [max_bytes] total
    bytes, nothing older than [max_age_s] seconds before [now]).  The
    index itself is not modified.  Deterministic: ties on last-used
    break by key. *)
