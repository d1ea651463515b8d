(** Workload registry.

    Each group below is built once per process, on its first call, and
    every later call returns the same list of the same cases,
    physically.  {!all}, {!find} and {!names} read one name index built
    from those lists, so for every workload name the case in its group
    is the one {!find} returns.  A case is safe to simulate on several
    threads at once (its compiled extension holds no mutable state), and
    every function here is safe to call from any thread, including
    concurrently with a first build.  The builders
    ({!Characterization.suite}, {!Reed_solomon.choices}, {!C_apps.all},
    ...) still make fresh cases on every call. *)

val characterization : unit -> Core.Extract.case list
(** The 25 characterization test programs.  The first call builds these
    25 alone. *)

val applications : unit -> Core.Extract.case list
(** The ten Table II application benchmarks, in the paper's order:
    ins_sort, gcd, alphablend, add4, bubsort, des, accumulate, drawline,
    multi_accumulate, seq_mult. *)

val reed_solomon_choices : unit -> Core.Extract.case list
(** The four Fig. 4 custom-instruction alternatives. *)

val c_applications : unit -> Core.Extract.case list
(** Applications compiled from Tiny-C sources ({!C_apps}). *)

val all : unit -> Core.Extract.case list
(** Every workload, in suite order: characterization, applications,
    Reed-Solomon choices, Tiny-C applications.  The same list on every
    call. *)

val find : string -> Core.Extract.case
(** Look up any workload by name (the first in {!all} order): every call
    for a name returns the same case, physically.  @raise Not_found. *)

val names : unit -> string list
(** Every workload name, in {!all} order. *)
