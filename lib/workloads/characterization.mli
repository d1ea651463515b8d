(** Characterization test-program suite.

    Twenty-five programs, mirroring the paper's setup: fifteen cover the
    base ISA classes and the dynamic effects (cache misses, uncached
    fetches, interlocks, window traffic), and ten cover each custom
    hardware library component category through the {!Tie_lib.coverage}
    extensions.  Regression macro-modeling only requires diversity in the
    instruction statistics, which the suite provides by construction. *)

val suite : unit -> Core.Extract.case list
(** All 25 test programs, assembled. *)
