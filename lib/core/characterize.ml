type sample = {
  sname : string;
  variables : float array;
  measured_pj : float;
  cycles : int;
}

type fit = {
  model : Template.model;
  samples : sample list;
  fitted_pj : float array;
  errors_percent : float array;
  rms_percent : float;
  max_abs_percent : float;
  r_squared : float;
}

(* Single-pass collection: the reference estimator rides the same
   simulation as the variable extraction, so every test program is
   simulated exactly once.  The estimator observes an identical event
   stream either way, hence samples (and therefore fitted coefficients)
   match a separate profiling run plus a separate reference run bit for
   bit. *)
let collect_one ~config ?params ?complexity (c : Extract.case) =
  let est =
    Power.Estimator.create ?params ?extension:c.Extract.extension config
  in
  let t0 = Unix.gettimeofday () in
  let prof =
    Extract.profile ~config ?complexity
      ~observers:[ Power.Estimator.observer est ]
      c
  in
  let wall = Unix.gettimeofday () -. t0 in
  let energy = Power.Estimator.total_energy est in
  let misses id = int_of_float prof.Extract.variables.(Variables.index id) in
  ( { sname = c.Extract.case_name;
      variables = prof.Extract.variables;
      measured_pj = energy;
      cycles = prof.Extract.cycles },
    { Run_report.ename = c.Extract.case_name;
      wall_seconds = wall;
      cycles = prof.Extract.cycles;
      instructions = prof.Extract.instructions;
      icache_misses = misses Variables.Icache_miss;
      dcache_misses = misses Variables.Dcache_miss;
      stall_cycles = prof.Extract.stall_cycles;
      interlocks = misses Variables.Interlock;
      energy_pj = energy;
      simulations = 1 } )

let collect_with_report ?(config = Sim.Config.default) ?params ?complexity
    ?jobs cases =
  Obs.Trace.with_span ~cat:"characterize" "collect" (fun () ->
      let t0 = Unix.gettimeofday () in
      let pairs, pstats =
        Parallel.map_with_stats ?jobs
          (collect_one ~config ?params ?complexity)
          cases
      in
      let total_seconds = Unix.gettimeofday () -. t0 in
      ( List.map fst pairs,
        { Run_report.entries = List.map snd pairs;
          total_seconds;
          jobs = pstats.Parallel.jobs;
          sim_backend = Sim.Backend.name (Sim.Backend.current ());
          parallel =
            { Run_report.serial_fallbacks =
                (if pstats.Parallel.serial_fallback then 1 else 0);
              failed_forks = pstats.Parallel.failed_forks;
              recomputed_slices = pstats.Parallel.recomputed_slices } } ))

let collect ?config ?params ?complexity ?jobs cases =
  fst (collect_with_report ?config ?params ?complexity ?jobs cases)

let fit_samples ?(nonnegative = true) samples =
  Obs.Trace.with_span ~cat:"characterize" "fit" @@ fun () ->
  let n = List.length samples in
  if n = 0 then invalid_arg "Characterize.fit_samples: no samples";
  let nvars = Variables.count in
  (* Columns never exercised by the suite carry no information; fit the
     reduced system and leave their coefficients at zero. *)
  let active =
    Array.init nvars (fun j ->
        List.exists (fun s -> Float.abs s.variables.(j) > 1e-9) samples)
  in
  let active_idx =
    List.filter (fun j -> active.(j)) (List.init nvars (fun j -> j))
  in
  let k = List.length active_idx in
  if n < k then
    invalid_arg
      (Printf.sprintf
         "Characterize.fit_samples: %d samples for %d exercised variables" n k);
  let x =
    Regress.Matrix.of_rows
      (Array.of_list
         (List.map
            (fun s ->
              Array.of_list (List.map (fun j -> s.variables.(j)) active_idx))
            samples))
  in
  let e = Array.of_list (List.map (fun s -> s.measured_pj) samples) in
  let c_reduced = Regress.Lsq.solve ~nonnegative x e in
  let coefficients = Array.make nvars 0.0 in
  List.iteri (fun i j -> coefficients.(j) <- c_reduced.(i)) active_idx;
  let model = Template.make coefficients in
  let fitted_pj =
    Array.of_list (List.map (fun s -> Template.energy model s.variables) samples)
  in
  let errors_percent =
    Regress.Stats.percent_errors ~predicted:fitted_pj ~actual:e
  in
  { model;
    samples;
    fitted_pj;
    errors_percent;
    rms_percent = Regress.Stats.rms errors_percent;
    max_abs_percent = Regress.Stats.max_abs errors_percent;
    r_squared = Regress.Stats.r_squared ~predicted:fitted_pj ~actual:e }

let skipped_folds =
  lazy (Obs.Metrics.counter "characterize_folds_skipped_total")

let cross_validate ?nonnegative ?jobs samples =
  Obs.Trace.with_span ~cat:"characterize" "cross-validate" @@ fun () ->
  let arr = Array.of_list samples in
  let fold i =
    Obs.Trace.with_span ~cat:"characterize"
      (Printf.sprintf "fold:%s" arr.(i).sname)
    @@ fun () ->
    let held_out = arr.(i) in
    let training = Array.to_list arr |> List.filteri (fun j _ -> j <> i) in
    (* Dropping a sample can leave fewer training samples than exercised
       variables (e.g. the only program touching a variable); such folds
       are unidentifiable, not fatal — report them as [None]. *)
    match fit_samples ?nonnegative training with
    | exception Invalid_argument _ ->
      Obs.Metrics.inc (Lazy.force skipped_folds);
      None
    | f ->
      let predicted = Template.energy f.model held_out.variables in
      if Float.abs held_out.measured_pj < 1e-9 then Some 0.0
      else
        Some
          (100.0
           *. (predicted -. held_out.measured_pj)
           /. held_out.measured_pj)
  in
  Array.of_list
    (Parallel.map ?jobs fold (List.init (Array.length arr) Fun.id))

let run ?config ?params ?complexity ?nonnegative ?jobs cases =
  fit_samples ?nonnegative (collect ?config ?params ?complexity ?jobs cases)

let pp_fit ppf f =
  Format.fprintf ppf "@[<v>%-24s %14s %14s %8s@," "test program"
    "measured (uJ)" "fitted (uJ)" "err %";
  List.iteri
    (fun i s ->
      Format.fprintf ppf "%-24s %14.3f %14.3f %+8.2f@," s.sname
        (Power.Report.to_uj s.measured_pj)
        (Power.Report.to_uj f.fitted_pj.(i))
        f.errors_percent.(i))
    f.samples;
  Format.fprintf ppf "rms error %.2f%%, max |error| %.2f%%, R^2 %.4f@]"
    f.rms_percent f.max_abs_percent f.r_squared
