(** Length-prefixed JSON framing — the [xenergy serve] wire format.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of JSON text.  The length prefix keeps the codec trivial on
    both sides (no streaming JSON parser, no delimiter escaping) while
    still allowing multi-megabyte batch responses; {!max_frame_bytes}
    bounds a single frame so a corrupt or hostile peer cannot make the
    reader allocate unboundedly.

    Transfers are deadline-guarded against an absolute [deadline], and
    [EINTR] is retried, so a wedged or malicious peer can never hang a
    reader or a writer on a non-blocking fd — the same discipline as
    the hardened {!Core.Parallel} pipe reads.  [select] runs only where
    it can bound a wait: once while a frame is awaited (when a
    [deadline] is given), and again only when a call would block
    ([EAGAIN]) or a read came back short.  The header and the payload
    are otherwise read with plain exact [read]s that never ask for a
    byte past the frame, and a write goes straight to [write].  A warm
    round trip therefore costs four system calls per side: one [write]
    out, then [select], header [read] and payload [read] back.

    On a blocking fd the deadline still bounds the wait for a frame to
    start, but a peer that stalls in the middle of a frame blocks the
    next [read] (and a peer that stops reading blocks a [write]).
    Bounding those stalls needs a non-blocking fd ([Unix.set_nonblock]),
    as the [xenergy serve] connection handler and {!Client} use. *)

exception Frame_error of string
(** Malformed traffic: an oversized length prefix, a frame truncated by
    the peer, or a read that exceeded its deadline.  Connection-fatal —
    the caller should drop the connection — but never process-fatal. *)

val max_frame_bytes : int
(** Upper bound on a single frame's payload (16 MiB). *)

val write_frame : ?deadline:float -> Unix.file_descr -> string -> unit
(** Write one frame (length prefix + payload), retrying interrupted
    writes.  [deadline] is an absolute [Unix.gettimeofday]-clock time:
    whenever a write would block, the writer waits for writability with
    [select] against it, symmetric with {!read_frame}'s read deadlines,
    so a peer that stops reading (its socket buffer full) cannot wedge
    a non-blocking writer.  Without [deadline] the write blocks, as a
    CLI client wants.
    @raise Frame_error when the payload exceeds {!max_frame_bytes} or
    the deadline passes mid-frame.
    @raise Unix.Unix_error when the peer is gone (e.g. [EPIPE]). *)

val read_frame : ?deadline:float -> Unix.file_descr -> string option
(** Read one frame, and not a byte more.  [None] on a clean
    end-of-stream (the peer closed before starting a frame); [deadline]
    is an absolute [Unix.gettimeofday]-clock time after which the read
    gives up (mid-frame only on a non-blocking fd, see above).
    @raise Frame_error on an oversized or truncated frame, or when the
    deadline passes. *)

val json_to_string : Obs.Json.t -> string
(** {!Obs.Json.print}, kept under this name for existing callers. *)
