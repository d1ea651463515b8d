(** Gate-level switching models for datapath units.

    The reference estimator simulates the synthesized structure of each
    datapath unit — carry chains, partial-product arrays, barrel-shifter
    stages — and counts net toggles between consecutive evaluations.
    This is what makes the reference estimator slow and data-dependent,
    standing in for the commercial RTL power estimation of the paper. *)

type adder_state
(** Internal nets of a ripple-structured adder (sum and carry vectors). *)

val adder_create : int -> adder_state
(** [adder_create width] *)

val adder_eval : adder_state -> int -> int -> int
(** [adder_eval st a b] evaluates the carry chain and returns the number
    of net toggles relative to the previous evaluation. *)

type mult_state
(** Partial-product rows and compression-tree levels of an array
    multiplier. *)

val mult_create : int -> mult_state

val mult_eval : mult_state -> int -> int -> int

type shifter_state
(** Log-stage barrel shifter. *)

val shifter_create : int -> shifter_state

val shifter_eval : shifter_state -> int -> int -> int
(** [shifter_eval st value amount] *)

type logic_state
(** Single-level logic/mux plane. *)

val logic_create : int -> logic_state

val logic_eval : logic_state -> int -> int

type table_state
(** Lookup-table decoder and output plane. *)

val table_create : entries:int -> width:int -> table_state

val table_eval : table_state -> int -> int -> int
(** [table_eval st index value] *)

type component
(** The gate-level model of one custom-hardware component instance: the
    unit its category synthesizes to, at its width. *)

val component_create : Tie.Component.t -> component

val component_eval : component -> int -> int -> int
(** [component_eval u a b] evaluates the unit on two operands and returns
    its net toggles (shifters take [b land 63] as the amount, logic
    planes [a lxor b]). *)
