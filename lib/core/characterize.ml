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

(* Single-pass collection through the read-through cache.  Misses are
   simulated on [Parallel.map_with_stats], each timed, so the run report
   keeps per-program wall time and the pool's degradation counters; a
   program served from the cache reports zero simulations. *)
let collect_with_report ?(config = Sim.Config.default) ?complexity ?jobs
    ?(cache = Eval_cache.create ()) cases =
  Obs.Trace.with_span ~cat:"characterize" "collect" (fun () ->
      let t0 = Unix.gettimeofday () in
      let walls = ref [] and pstats = ref Parallel.no_stats in
      let simulate ~config ~with_ref cs =
        let timed, st =
          Parallel.map_with_stats ?jobs
            (fun c ->
              let t0 = Unix.gettimeofday () in
              let e = Eval_cache.compute ?complexity ~config ~with_ref c in
              (e, Unix.gettimeofday () -. t0))
            cs
        in
        walls := timed;
        pstats := st;
        List.map fst timed
      in
      let rows, _ =
        Eval_cache.collect ~simulate ?complexity cache ~with_ref:true ~config
          cases
      in
      let total_seconds = Unix.gettimeofday () -. t0 in
      let row (c : Extract.case) ((e : Eval_cache.entry), cached) =
        let measured_pj = Option.get e.e_measured_pj in
        let count id = int_of_float e.e_variables.(Variables.index id) in
        ( { sname = c.case_name;
            variables = e.e_variables;
            measured_pj;
            cycles = e.e_cycles },
          { Run_report.ename = c.case_name;
            wall_seconds = (if cached then 0.0 else List.assq e !walls);
            cycles = e.e_cycles;
            instructions = e.e_instructions;
            icache_misses = count Variables.Icache_miss;
            dcache_misses = count Variables.Dcache_miss;
            stall_cycles = e.e_stall_cycles;
            interlocks = count Variables.Interlock;
            energy_pj = measured_pj;
            simulations = (if cached then 0 else 1) } )
      in
      let samples, entries = List.split (List.map2 row cases rows) in
      let pstats = !pstats in
      ( samples,
        { Run_report.entries;
          total_seconds;
          jobs = pstats.Parallel.jobs;
          sim_backend = Sim.Backend.name (Sim.Backend.current ());
          parallel =
            { Run_report.serial_fallbacks =
                (if pstats.Parallel.serial_fallback then 1 else 0);
              failed_forks = pstats.Parallel.failed_forks;
              recomputed_slices = pstats.Parallel.recomputed_slices } } ))

let collect ?config ?complexity ?jobs ?cache cases =
  fst (collect_with_report ?config ?complexity ?jobs ?cache cases)

(* Registered at start-up, not at the first fit: a run that fits nothing
   (a warm sweep, a daemon reading stored models) reports 0. *)
let fits =
  Obs.Metrics.counter ~help:"macro-model fits (fit_samples calls)"
    "characterize_fits_total"

let fit_samples samples =
  Obs.Trace.with_span ~cat:"characterize" "fit" @@ fun () ->
  Obs.Metrics.inc fits;
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
  let c_reduced = Regress.Lsq.solve ~nonnegative:true x e in
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

let cross_validate ?jobs samples =
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
    match fit_samples training with
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

let run ?config ?complexity ?jobs ?cache cases =
  fit_samples (collect ?config ?complexity ?jobs ?cache cases)

(* A fitted model is a cache entry like any other: a hit reads one entry
   instead of every sample, and runs no fit. *)
let model ?jobs ~cache ~config cases =
  let k =
    Eval_cache.model_key
      (List.map (Eval_cache.key ~with_reference:true ~config) cases)
  in
  match Eval_cache.find cache k with
  | Some e -> (Template.make e.Eval_cache.e_variables, 0)
  | None ->
    let samples, report = collect_with_report ?jobs ~cache ~config cases in
    let m = (fit_samples samples).model in
    Eval_cache.store cache k
      { Eval_cache.e_name = "model";
        e_variables = m.Template.coefficients;
        e_cycles = 0;
        e_instructions = 0;
        e_stall_cycles = 0;
        e_measured_pj = None };
    (m, Run_report.total_simulations report)

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
