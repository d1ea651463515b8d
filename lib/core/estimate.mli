(** Application energy estimation (steps 9-11 of the paper's flow).

    With a characterized macro-model, estimating an application's energy
    needs only instruction-set simulation plus resource-usage analysis —
    no synthesis and no reference power estimation. *)

type result = {
  energy_pj : float;
  energy_uj : float;
  cycles : int;
  instructions : int;
}

val run :
  ?config:Sim.Config.t ->
  Template.model ->
  Extract.case ->
  result
(** Simulate the case once ({!Extract.val-profile}) and apply the model to
    the extracted variable vector. *)

val of_profile : Template.model -> Extract.profile -> result
(** Apply the model to an already-extracted profile (no simulation). *)

val of_entry : Template.model -> Eval_cache.entry -> result
(** Apply the model to a memoized profile (no simulation): the same
    energies, bit for bit, as {!of_profile} on the profile the entry
    was built from. *)
