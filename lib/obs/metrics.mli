(** Typed metrics registry: counters, gauges and histograms with labels.

    Instruments are registered in a single process-global registry and
    identified by (name, labels); registering the same identity twice
    returns the same instrument, so hot paths can look their handles up
    once at module initialisation and increment a plain ref afterwards.

    Recording is disabled by default: every [inc]/[set]/[observe] is a
    single flag check when off, so always-on instrumentation in the
    simulator retirement loop costs nothing measurable.  Forked workers
    cooperate via {!reset} + {!val-snapshot} in the child and {!merge} in the
    parent (counters and histograms add, gauges take the child's last
    write). *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Turn recording on or off globally (off by default). *)

val enabled : unit -> bool
(** Is recording currently on? *)

val counter : ?labels:(string * string) list -> ?help:string -> string -> counter
(** Register (or fetch) a counter. *)

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1) when recording is enabled. *)

val counter_value : counter -> int
(** Current accumulated count. *)

val gauge : ?labels:(string * string) list -> ?help:string -> string -> gauge
(** Register (or fetch) a gauge. *)

val set : gauge -> float -> unit
(** Overwrite the gauge's value when recording is enabled. *)

val gauge_value : gauge -> float
(** Last written value (0 if never set). *)

val histogram :
  ?labels:(string * string) list ->
  ?help:string ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are upper bounds in increasing order; an implicit +inf
    bucket is always present.  The default buckets suit seconds-scale
    latencies (100us .. 30s). *)

val observe : histogram -> float -> unit
(** Record one sample when recording is enabled. *)

val histogram_count : histogram -> int
(** Number of samples observed. *)

val histogram_sum : histogram -> float
(** Sum of the observed samples. *)

type snap_value =
  | S_counter of int
  | S_gauge of float
  | S_histogram of float array * int array * float * int
      (** bucket upper bounds, per-bucket counts (length = bounds + 1),
          sum, count *)

type snapshot = (string * (string * string) list * string * snap_value) list
(** Marshal-safe value dump of every registered instrument: one
    [(name, labels, help, value)] row per instrument, in registration
    order.  Concrete so that {!Export} can render point-in-time and
    delta expositions without re-reading the live registry. *)

val snapshot : unit -> snapshot
(** Capture every instrument's current value (e.g. in a forked worker,
    just before shipping results to the parent).  The capture runs under
    the registry lock, serialised against {!observe}'s multi-field
    update, so a snapshot never sees a torn bucket/sum/count triple. *)

val after_fork : unit -> unit
(** Re-initialise the registry lock in a freshly forked child (a mutex
    held by another thread at fork time would stay locked forever). *)

val merge : snapshot -> unit
(** Fold a (typically child-process) snapshot into this registry:
    counters and histograms add, gauges take the snapshot's value.
    Instruments unknown to this process are registered on the fly. *)

val reset : unit -> unit
(** Zero every instrument's value (registrations are kept). *)

val snapshot_diff : snapshot -> snapshot -> snapshot
(** [snapshot_diff later earlier] — the delta accumulated between two
    captures: counters and histogram counts/sums subtract, gauges keep
    [later]'s value (a gauge is a level, not a flow).  Instruments
    absent from [earlier] are treated as zero, so a scrape loop can
    diff against an empty first capture.  Rows present only in
    [earlier] are dropped ([later] is the universe). *)

val to_json : unit -> Json.t
(** The whole registry as a JSON document, units carried in the metric
    names (..._seconds, ..._pj, ..._total), printed by {!Json.print}:
    gauge values, histogram bounds and sums as exact doubles, non-finite
    values as [null] (the overflow bucket's bound is the string
    ["+inf"]). *)

val save : string -> unit
(** Write {!to_json} plus a trailing newline to a file. *)
