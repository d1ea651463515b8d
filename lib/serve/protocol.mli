(** Length-prefixed JSON framing — the [xenergy serve] wire format.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of JSON text.  The length prefix keeps the codec trivial on
    both sides (no streaming JSON parser, no delimiter escaping) while
    still allowing multi-megabyte batch responses; {!max_frame_bytes}
    bounds a single frame so a corrupt or hostile peer cannot make the
    reader allocate unboundedly.

    Reads are deadline-guarded: every byte is waited for with [select]
    against an absolute [deadline], and [EINTR] is retried, so a
    wedged or malicious peer can never hang the reader — the same
    discipline as the hardened {!Core.Parallel} pipe reads. *)

exception Frame_error of string
(** Malformed traffic: an oversized length prefix, a frame truncated by
    the peer, or a read that exceeded its deadline.  Connection-fatal —
    the caller should drop the connection — but never process-fatal. *)

val max_frame_bytes : int
(** Upper bound on a single frame's payload (16 MiB). *)

val write_frame : ?deadline:float -> Unix.file_descr -> string -> unit
(** Write one frame (length prefix + payload), retrying interrupted
    writes.  [deadline] is an absolute [Unix.gettimeofday]-clock time:
    every chunk is select-guarded against it, symmetric with
    {!read_frame}'s read deadlines, so a peer that stops reading (its
    socket buffer full) cannot wedge the writer.  For the deadline to
    bound a single large [write] too, put the fd in non-blocking mode
    ([Unix.set_nonblock]) — the writer retries [EAGAIN] through
    [select]; the [xenergy serve] connection handler does exactly
    this.  Without [deadline] the write blocks, as a CLI client wants.
    @raise Frame_error when the payload exceeds {!max_frame_bytes} or
    the deadline passes mid-frame.
    @raise Unix.Unix_error when the peer is gone (e.g. [EPIPE]). *)

val read_frame : ?deadline:float -> Unix.file_descr -> string option
(** Read one frame.  [None] on a clean end-of-stream (the peer closed
    before starting a frame); [deadline] is an absolute
    [Unix.gettimeofday]-clock time after which the read gives up.
    @raise Frame_error on an oversized or truncated frame, or when the
    deadline passes mid-frame. *)

val json_to_string : Obs.Json.t -> string
(** {!Obs.Json.print}, kept under this name for existing callers. *)
