(** The [xenergy serve] listener: a concurrent Unix-domain-socket
    accept loop in front of a {!Router}.

    Each accepted connection is served on its own thread, up to
    [max_conns] at once (pending clients queue in the listen backlog
    past the bound).  Threads are the right substrate here because the
    handlers are I/O- and fork-bound: the OCaml runtime lock is
    released while a handler waits in [select] on its client or reaps
    the fork-based {!Core.Parallel} workers that do the actual
    simulation, so a wedged or slow client never blocks other
    connections' pings and warm estimates — and CPU parallelism still
    comes from the forked workers, exactly as in the one-shot CLI.

    Shared state is guarded for this concurrency: the model
    {!Registry} is internally locked with characterization
    single-flight {e per config hash} (two clients racing to the same
    uncharacterized configuration run one characterization; clients
    naming different configurations characterize in parallel), and the
    router serializes eval-cache bookkeeping and persistent-pool
    batches around the simulations themselves.

    Each accepted connection may carry any number of request frames
    (see {!Protocol}); every frame is answered with one response
    frame.  Connections are served non-blocking with [io_timeout_s]
    deadlines on both directions, so a client that wedges mid-frame,
    idles, or stops reading its response is dropped instead of pinning
    a handler thread forever.  [SIGPIPE] is ignored: a client that
    hangs up mid-response surfaces as a per-connection [EPIPE] warning
    ([serve:io-error]), never daemon death.  Each request's records —
    including the worker pool's — carry its [trace_id] (see {!Router}):
    one id joins the daemon's log, its spans and the response.

    The accept loop itself is hardened: [EINTR] and [ECONNABORTED] are
    retried and descriptor exhaustion ([EMFILE]/[ENFILE]) backs off
    briefly instead of crashing, both counted in
    [serve_accept_errors_total{reason}]; accepted and in-flight
    connections are visible as [serve_connections_total] and the
    [serve_active_connections] gauge.

    Startup probes the socket path first and {e refuses} to start when
    a live daemon answers on it (connect succeeding), rather than
    unlinking a live daemon's socket out from under it; only a socket
    file nobody accepts on (a corpse from a daemon that died without
    cleanup) is replaced.

    The loop runs until the router handles a [shutdown] request, then
    tears down: listener closed, socket file unlinked, in-flight
    handlers given a short grace to finish answering, router shut down
    (pool reaped, cache hits flushed). *)

val run :
  ?io_timeout_s:float ->
  ?max_conns:int ->
  socket:string ->
  Router.t ->
  unit
(** Bind [socket] (replacing only a dead daemon's stale socket file),
    serve until shutdown.  [io_timeout_s] (default 10.0) bounds each
    frame read and write and the whole of a connection's idle time;
    the listen queue holds 16 pending clients; [max_conns] (default 8)
    bounds concurrently served connections.  Enables {!Obs.Metrics}
    recording — a serving process always wants its [/metrics] live.
    @raise Unix.Unix_error [EADDRINUSE] when a live daemon already
    answers on [socket] (and for any other bind failure).
    @raise Invalid_argument when [max_conns < 1]. *)
