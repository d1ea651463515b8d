(** Named candidate spaces for [xenergy explore].

    Each space is a fixed list of {!Core.Explore.type-candidate}s: the
    Reed-Solomon component-mix choices of the paper's Fig. 4
    ({!Suite.reed_solomon_choices}), crossed with instruction-cache
    geometry, plus a MAC accumulator bit-width sweep.  A space is built
    once per process, on its first call: every later call, from any
    thread, returns the same list, and its Reed-Solomon candidates carry
    the suite's cases, physically.  The same spaces drive the CLI, the
    daemon, the benchmark harness and the exploration tests. *)

val rs : unit -> Core.Explore.candidate list
(** The four Reed-Solomon custom-instruction choices (component mixes:
    software, [gfmul], [gfmul]+[gfmacc], packed [gfmul4]+[gfmacc]) on
    the default processor configuration.  4 candidates, 1 config. *)

val rs_cache : unit -> Core.Explore.candidate list
(** {!rs} crossed with instruction-cache sizes of 4/8/16/32 KB — the
    flagship sweep: 16 candidates over 4 base-core configurations, each
    configuration characterized once. *)

val mac_widths : unit -> Core.Explore.candidate list
(** A 256-element dot product against MAC extensions with accumulator
    widths 16/24/32/40/48 bits, plus the software (mul16u+add) baseline:
    the bit-width and instance-count axis.  6 candidates, 1 config. *)

val names : string list
(** The space names accepted by {!find}, in presentation order. *)

val find : string -> (unit -> Core.Explore.candidate list) option
(** Look a space up by name: ["rs"], ["rs-cache"] or ["mac-widths"]. *)
