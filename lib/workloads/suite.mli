(** Workload registry. *)

val characterization : unit -> Core.Extract.case list
(** The 25 characterization test programs, built fresh on every call. *)

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
    Reed-Solomon choices, Tiny-C applications.  Like the lists above it
    builds fresh cases on every call. *)

val find : string -> Core.Extract.case
(** Look up any workload by name (the first in {!all} order).  Lookups
    read one name index, built from {!all} on the first call in the
    process and shared from then on: every call for a name returns the
    same case, physically, and a case is safe to simulate on several
    threads at once (its compiled extension holds no mutable state).
    Safe to call from any thread, including concurrently with the
    first build.  @raise Not_found. *)

val names : unit -> string list
(** Every workload name, in {!all} order, read from the same index as
    {!find}. *)

val shared_characterization : unit -> Core.Extract.case list
(** The 25 characterization programs as the name index's cases: every
    call returns the same list, and each case is physically the one
    {!find} returns for its name, so its digest and key slots are shared
    with every other caller in the process.  The first call builds these
    25 alone; the index reuses them.  Same thread safety as {!find}. *)
