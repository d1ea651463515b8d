(** Custom-hardware component library.

    The paper classifies the primitives available to TIE instructions into
    ten categories (Section IV-B.1): (1) multiplier, (2) adder/subtractor/
    comparator, (3) bit-wise logic/reduction logic/multiplexer, (4)
    shifter, (5) custom register, and the specialized modules (6) TIE_mult,
    (7) TIE_mac, (8) TIE_add, (9) TIE_csa and (10) table.

    Each component instance carries a bit width (and an entry count for
    tables); its energy contribution scales with a complexity function
    C(W) that is linear in width for most categories and quadratic for
    multiplier-like ones. *)

type category =
  | Multiplier
  | Adder          (** adders, subtractors, comparators *)
  | Logic          (** bitwise logic, reduction logic, multiplexers *)
  | Shifter
  | Custom_register
  | Tie_mult
  | Tie_mac
  | Tie_add
  | Tie_csa
  | Table

type t = {
  category : category;
  width : int;     (** operand bit width, 1..64 *)
  entries : int;   (** number of entries for [Table]; 1 otherwise *)
}

val make : ?entries:int -> category -> int -> t
(** [make cat width] builds an instance.  @raise Invalid_argument for
    nonpositive width/entries or width > 64. *)

val complexity : t -> float
(** C(W), normalised so that a 32-bit instance of a linear category (and a
    32x32 multiplier, and a 256-entry 8-bit table) has complexity 1.0.
    Quadratic in width for [Multiplier], [Tie_mult] and [Tie_mac]; linear
    otherwise; [entries * width] for tables. *)

val category_name : category -> string

val all_categories : category list
(** The ten categories, in the paper's order. *)

val category_index : category -> int
(** Position of a category in [all_categories] (0-based). *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
