(** Thread-scoped variables: the one per-thread slot store.

    A {!var} holds at most one value per thread, keyed by
    [Thread.id (Thread.self ())].  A value set by one thread is never
    visible to another, whatever the embedding process did or did not
    install.  [Unix.fork] keeps the forking thread's id in the child, so
    a forked worker starts with its parent thread's values.

    {!Trace}'s request context and [Sim.Backend]'s per-request override
    are the two variables; a daemon request installs both once, for the
    whole of its handling.

    The store is an immutable list of per-thread cells swapped by
    compare-and-set when a thread gains or drops its value: a reader
    never sees a half-updated store, concurrent writers never lose each
    other's update, and reading an empty variable (the usual case
    outside a daemon) costs one load and one branch.  Re-binding a
    thread that already holds a value — a nested {!with_value}, such as
    a span under a request's context — writes the thread's own cell in
    place and copies nothing. *)

type 'a var

val create : unit -> 'a var
(** A fresh variable, unset on every thread. *)

val get : 'a var -> 'a option
(** The calling thread's value, if set. *)

val set : 'a var -> 'a option -> unit
(** Set ([Some]) or clear ([None]) the calling thread's value.  For
    long-lived workers that adopt a value per batch; elsewhere prefer
    {!with_value}. *)

val with_value : 'a var -> 'a -> (unit -> 'b) -> 'b
(** [with_value v x f] runs [f] with the calling thread's value set to
    [x], restoring the previous value afterwards (also on raise). *)

val derive : 'a var -> ('a -> 'a) -> ('a option -> 'b) -> 'b
(** [derive v g f]: if the calling thread holds a value [x], run
    [f (Some y)] with the thread's value set to [y = g x], restoring [x]
    afterwards (also on raise); otherwise run [f None] and change
    nothing.  One lookup where {!get} followed by {!with_value} takes
    two — the shape of a child span under an ambient context. *)
