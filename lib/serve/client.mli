(** [xenergy serve] client: framed JSON calls over a Unix-domain
    connection.  Backs the CLI's client mode and the end-to-end tests.

    A {!type-session} is one connected socket carrying many calls —
    the protocol answers every request frame with one response frame,
    so a batch of calls amortizes the connect over the whole
    conversation and observably lands on one daemon connection (the
    daemon counts every call).  {!val-call} is the one-shot
    convenience: connect, one call, close.

    Sessions are subject to the daemon's per-connection [io-timeout]:
    a session idle longer than that is dropped by the server, and the
    next call raises {!Protocol.Frame_error}.  Reconnect and retry.

    Connecting sets [SIGPIPE] to ignore for the process, so a daemon
    dying mid-conversation surfaces as an [EPIPE] {!Unix.Unix_error}
    on the write (or a {!Protocol.Frame_error} on the read), never as
    client-process death. *)

type session
(** One connected client socket, usable for many calls until
    {!val-close}. *)

val connect : socket:string -> session
(** Connect to a daemon's socket.
    @raise Unix.Unix_error when the socket is absent or refuses. *)

val session_call :
  ?timeout_s:float -> ?trace:bool -> session -> Obs.Json.t -> Obs.Json.t
(** Send one request frame, read the one response frame.  [timeout_s]
    bounds the response read (a daemon busy characterizing can
    legitimately take a while — size it generously).

    [trace] (default: whether {!Obs.Trace} recording is on in this
    process) records the round trip as a [client:call] span and stamps
    ["trace_id"]/["parent_span_id"] fields into the request (unless the
    caller set its own), so the daemon's spans for this request chain
    under the client's and share one trace_id end to end.
    @raise Invalid_argument on a closed session.
    @raise Protocol.Frame_error on a timeout or a torn response.
    @raise Obs.Json.Parse_error if the response is not JSON.
    @raise Unix.Unix_error when the connection died (e.g. [EPIPE]). *)

val close : session -> unit
(** Close the connection (idempotent). *)

val with_session : socket:string -> (session -> 'a) -> 'a
(** {!connect}, run, {!val-close} (also on raise). *)

val call : ?timeout_s:float -> socket:string -> Obs.Json.t -> Obs.Json.t
(** One-shot: connect, send one request, read the response, close.
    @raise Unix.Unix_error when the socket is absent or refuses.
    @raise Protocol.Frame_error on a timeout or a torn response.
    @raise Obs.Json.Parse_error if the response is not JSON. *)

val wait_ready : ?timeout_s:float -> socket:string -> unit -> bool
(** Poll the daemon with [ping] until it answers [ok] or [timeout_s]
    (default 10.0) elapses — for scripts and tests that just started
    the daemon in the background.  Never raises. *)
