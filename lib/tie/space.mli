(** Candidate-space enumeration for design-space exploration.

    A space is a finite, ordered, labelled set of values, built from
    named axes and cartesian products.  The exploration engine sweeps
    TIE extension candidates — component mixes, instance counts, bit
    widths — crossed with processor-configuration axes; this module
    provides the combinators those sweeps are assembled from, keeping
    enumeration order (and therefore candidate naming and evaluation
    output) deterministic. *)

type 'a t
(** A finite labelled space of candidates. *)

val axis : string -> (string * 'a) list -> 'a t
(** [axis name values] — a one-dimensional space.  [name] identifies the
    axis in {!describe}; each value carries the label used to build
    candidate names.  @raise Invalid_argument on an empty value list or
    duplicate labels. *)

val const : 'a -> 'a t
(** A one-point space with no axes and an empty label. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Transform every candidate, keeping labels and axes. *)

val product : 'a t -> 'b t -> ('a * 'b) t
(** Cartesian product, row-major: the right space varies fastest.
    Labels concatenate. *)

val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** [map2 f a b] is [map (fun (x, y) -> f x y) (product a b)]. *)

val size : 'a t -> int
(** Number of candidates. *)

val axes : 'a t -> string list
(** Axis names, outermost first. *)

val enumerate : 'a t -> 'a list
(** All candidates, in deterministic row-major order. *)

val enumerate_labelled : 'a t -> (string * 'a) list
(** Like {!enumerate}, pairing each candidate with its label: the
    per-axis labels joined with ["/"]. *)

val widths : ?prefix:string -> int list -> int t
(** A bit-width axis: [widths [16; 32]] labels its points ["w16"],
    ["w32"] (with [prefix] defaulting to ["w"]).
    @raise Invalid_argument on an empty or non-positive width list. *)

val describe : 'a t -> string
(** Human-readable shape, e.g. ["choice(4) x icache(3) = 12 candidates"]. *)
