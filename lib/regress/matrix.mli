(** Dense row-major float matrices. *)

type t

val make : int -> int -> t
(** [make rows cols], zero filled. *)

val of_rows : float array array -> t
(** @raise Invalid_argument on ragged input or zero dimensions. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val to_array : t -> float array
(** A fresh row-major copy: [(to_array m).(i * cols m + j) = get m i j]. *)

val identity : int -> t

val transpose : t -> t

val mul : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val mul_vec : t -> float array -> float array
