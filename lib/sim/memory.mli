(** Sparse byte-addressable memory (paged). *)

type t

val create : unit -> t

val load8 : t -> int -> int
(** Unsigned byte; uninitialised memory reads as zero. *)

val load16 : t -> int -> int
(** Unsigned, little-endian.  @raise Invalid_argument if misaligned. *)

val load32 : t -> int -> int
(** @raise Invalid_argument if misaligned. *)

val store8 : t -> int -> int -> unit

val store16 : t -> int -> int -> unit

val store32 : t -> int -> int -> unit

val load_image : t -> (int * int array) list -> unit
(** Install initialised byte blocks (from [Program.asm.image]). *)

val copy : t -> t
(** Deep copy (independent pages); used by the backend equivalence
    checker to run the same program twice from identical state. *)

val equal : t -> t -> bool
(** Same contents at every address (uninitialised bytes read as zero). *)
