let estimate_uj a = Power.Report.to_uj a.Audit.a_estimate_pj
let reference_uj a = Power.Report.to_uj a.Audit.a_reference_pj

let correlation (r : Audit.report) =
  let series f = Array.of_list (List.map f r.Audit.a_rows) in
  Regress.Stats.correlation (series estimate_uj) (series reference_uj)

let rank_agreement (r : Audit.report) =
  let order key =
    List.map
      (fun a -> a.Audit.a_name)
      (List.sort (fun a b -> Float.compare (key a) (key b)) r.Audit.a_rows)
  in
  order estimate_uj = order reference_uj

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

let pp_table ppf (r : Audit.report) =
  Format.fprintf ppf "@[<v>%-20s %14s %14s %8s@," "application"
    "estimate (uJ)" "reference (uJ)" "err %";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-20s %14.3f %14.3f %+8.2f@," a.Audit.a_name
        (estimate_uj a) (reference_uj a) a.Audit.a_error_percent)
    r.Audit.a_rows;
  Format.fprintf ppf "mean |error| %.2f%%, max |error| %.2f%%@]"
    r.Audit.a_mean_abs r.Audit.a_max_abs
