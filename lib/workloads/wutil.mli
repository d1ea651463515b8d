(** Shared helpers for workload construction. *)

val words_at : Isa.Builder.t -> string -> addr:int -> int array -> unit
(** Place an array of 32-bit words at a fixed data address. *)

val assemble : Isa.Builder.t -> Isa.Program.asm
(** Seal and assemble with default bases. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once build] calls [build] on its first call and returns that same
    value, physically, on every later call for the life of the process.
    Safe to call from any thread: a caller racing the first build waits
    for it.  If [build] raises, the next call builds again. *)
