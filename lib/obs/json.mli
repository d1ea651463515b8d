(** Minimal JSON parser.

    Just enough to read back the documents this repository emits (run
    reports, metrics dumps, Chrome traces) for round-trip tests and
    tooling — no dependency is worth it for that.  Parsing is strict
    RFC-8259 apart from accepting any IEEE float syntax OCaml's
    [float_of_string] does. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val member : string -> t -> t
(** Object field access.  @raise Parse_error if absent or not an object. *)

val to_float : t -> float
(** Numeric value.  @raise Parse_error on a non-number. *)

val to_int : t -> int
(** Integral numeric value.  @raise Parse_error on a non-number, a
    fraction, or a value outside the [int] range. *)

val to_string : t -> string
(** String value.  @raise Parse_error on a non-string. *)

val to_list : t -> t list
(** Array elements.  @raise Parse_error on a non-array. *)
