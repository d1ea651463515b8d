(** The repository's one JSON codec: a value type, a strict parser and
    one printer.

    Every JSON document the repository writes — CLI [--json] output,
    report files, eval-cache entries, daemon responses, trace files,
    log lines, metric dumps and bench results — is built as a {!t} and
    printed by {!print}.  Parsing is strict RFC-8259
    apart from accepting any IEEE float syntax OCaml's [float_of_string]
    does.  No dependency is worth it for that. *)

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

val int : int -> t
(** [Num] of an integer: exact below 2{^53} in magnitude. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (without the quotes):
    quote, backslash and control characters escaped, newline as [\n]
    and the others as [\u00XX].  Returns [s] itself when nothing needs
    escaping. *)

val print : t -> string
(** Print a value compactly, keys in construction order.  The one
    number rule: non-finite floats print as [null] (they have no JSON
    encoding), integral values below 1e15 in magnitude as [%.0f], and
    everything else as [%.17g], enough digits for {!parse} to recover
    the exact double.  So [parse (print v) = v] for every finite [v],
    bit for bit. *)

val save : string -> t -> unit
(** [save path j] writes {!print} [j] plus a newline to [path].
    @raise Sys_error when the file cannot be written. *)
