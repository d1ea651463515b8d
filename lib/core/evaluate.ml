type row = {
  rname : string;
  estimate_uj : float;
  reference_uj : float;
  error_percent : float;
}

type table = {
  rows : row list;
  mean_abs_error : float;
  max_abs_error : float;
}

(* One simulation per program: the macro-model reads the entry's
   variable vector, the reference its measured energy. *)
let compare_cases ?(config = Sim.Config.default) model cases =
  let rows =
    List.map
      (fun (c : Extract.case) ->
        let e = Eval_cache.compute ~config ~with_ref:true c in
        let estimate_uj = Power.Report.to_uj (Template.energy model e.e_variables)
        and reference_uj = Power.Report.to_uj (Option.get e.e_measured_pj) in
        let error_percent =
          if Float.abs reference_uj < 1e-12 then 0.0
          else 100.0 *. (estimate_uj -. reference_uj) /. reference_uj
        in
        { rname = c.Extract.case_name; estimate_uj; reference_uj; error_percent })
      cases
  in
  let errs = Array.of_list (List.map (fun r -> r.error_percent) rows) in
  { rows;
    mean_abs_error = Regress.Stats.mean (Array.map Float.abs errs);
    max_abs_error = Regress.Stats.max_abs errs }

let correlation t =
  let est = Array.of_list (List.map (fun r -> r.estimate_uj) t.rows) in
  let ref_ = Array.of_list (List.map (fun r -> r.reference_uj) t.rows) in
  Regress.Stats.correlation est ref_

let rank_agreement t =
  let order key =
    List.map (fun r -> r.rname)
      (List.sort (fun a b -> Float.compare (key a) (key b)) t.rows)
  in
  order (fun r -> r.estimate_uj) = order (fun r -> r.reference_uj)

type timing = {
  macro_seconds : float;
  reference_seconds : float;
  speedup : float;
}

let best_of repeats f =
  let rec go k best =
    if k = 0 then best
    else begin
      let t0 = Sys.time () in
      f ();
      let dt = Sys.time () -. t0 in
      go (k - 1) (Float.min best dt)
    end
  in
  go repeats infinity

let time_case ?(config = Sim.Config.default) ?(repeats = 3) model c =
  let run_macro () = ignore (Estimate.run ~config model c) in
  let run_reference () =
    ignore
      (Power.Estimator.estimate_program ~config
         ?extension:c.Extract.extension c.Extract.asm)
  in
  let macro_seconds = best_of repeats run_macro in
  let reference_seconds = best_of repeats run_reference in
  { macro_seconds;
    reference_seconds;
    speedup =
      (if macro_seconds > 0.0 then reference_seconds /. macro_seconds
       else infinity) }

let pp_table ppf t =
  Format.fprintf ppf "@[<v>%-20s %14s %14s %8s@," "application"
    "estimate (uJ)" "reference (uJ)" "err %";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-20s %14.3f %14.3f %+8.2f@," r.rname r.estimate_uj
        r.reference_uj r.error_percent)
    t.rows;
  Format.fprintf ppf "mean |error| %.2f%%, max |error| %.2f%%@]"
    t.mean_abs_error t.max_abs_error
