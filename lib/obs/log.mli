(** Leveled, span-correlated JSON-lines structured logging.

    One JSON object per line, written to a sink opened by the embedding
    process ([xenergy --log-file], or the [XENERGY_LOG] environment
    variable).  Every record carries:

    - [ts_us] — microseconds on the {!Trace} clock (same epoch as the
      trace spans, inherited across [fork], so a log line lands inside
      the right span when both files are loaded side by side);
    - [level] — ["debug"], ["info"], ["warn"] or ["error"];
    - [tid] — the current {!Trace} lane (0 = main, [w + 1] = worker [w]),
      correlating worker log lines with their trace lanes;
    - [pid] — the writing process;
    - [event] — a [subsystem:verb] name (e.g. ["explore:heartbeat"],
      ["cache:evict"]);
    - [trace_id] — when the calling scope has a trace context (set by
      {!Trace.with_context}: a daemon request, or a pool lane computing
      that request's batch), its trace id, so a log line joins the
      request's spans;
    - the caller's fields, flattened into the object.

    Every line is written and flushed atomically-enough for the
    fork-based worker pool: the sink is opened in append mode and each
    record is a single buffered write followed by a flush, so lines from
    forked workers interleave whole, never torn.  Workers inherit the
    sink across [fork] — a worker's records reach the file even if the
    worker later dies before shipping its trace buffer back.

    Logging off (no sink) costs one branch per call site. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option
(** ["debug"]/["info"]/["warn"]/["error"], case-insensitive. *)

val set_level : level -> unit
(** Drop records below this severity (default [Debug]: everything). *)

val open_file : ?level:level -> ?max_bytes:int -> string -> unit
(** Open (appending) a JSON-lines sink, replacing any previous sink.
    [max_bytes] (default 64 MiB; [0] disables rotation) caps the sink
    file's size: the write that would cross the cap first rotates the
    file to [<path>.1] with one atomic rename (replacing any previous
    [.1]) and reopens [<path>] fresh, counted in the
    [log_rotations_total] metric.
    @raise Sys_error when the path cannot be opened. *)

val after_fork : unit -> unit
(** Re-initialise the sink write lock in a freshly forked child (a
    mutex held by another thread at fork time would stay locked
    forever). *)

val init_from_env : unit -> unit
(** Honour [XENERGY_LOG] (sink path), [XENERGY_LOG_LEVEL] (severity
    floor) and [XENERGY_LOG_MAX_BYTES] (rotation cap in bytes, [0] to
    disable); no-op when unset.  An unopenable path or unparsable cap
    is reported once on stderr rather than raised — observability must
    not take the tool down. *)

val close : unit -> unit
(** Flush and close the sink; subsequent events are dropped. *)

val enabled : unit -> bool
(** Is a sink open? *)

val set_correlation : string option -> unit
(** Set (or, with [None], clear) the current scope's correlation id.
    While set, every record emitted from that scope carries a ["corr"]
    field with the id, so all log lines emitted on behalf of one
    request — including those from workers forked while it is set —
    can be grepped back together from a shared sink.  Long-lived
    servers set it per accepted connection; one-shot CLI runs never
    need it.  The default scope is the whole process; see
    {!set_correlation_key}. *)

val set_correlation_key : (unit -> int) -> unit
(** Install the function that names the current correlation scope.
    The default is [fun () -> 0]: one process-wide id.  A server
    handling connections on threads installs
    [fun () -> Thread.id (Thread.self ())] once at startup, after
    which {!set_correlation}/{!with_correlation}/{!correlation}
    operate on the calling thread's own slot — concurrent connections
    label their records independently instead of clobbering one
    shared id.  Forked workers inherit the installed key and their
    parent thread's slot, so a worker's records keep the request's id. *)

val correlation : unit -> string option
(** The current scope's correlation id, if any (e.g. to echo into a
    response). *)

val with_correlation : string -> (unit -> 'a) -> 'a
(** [with_correlation id f] runs [f] with the current scope's
    correlation id set to [id], restoring the previous id afterwards
    (also on raise). *)

val event : ?level:level -> string -> (string * Trace.arg) list -> unit
(** [event name fields] — append one record ([level] defaults to
    [Info]).  Write failures (e.g. a full disk) silently disable the
    sink: logging must never raise into the instrumented code. *)
