(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the ablations called out in DESIGN.md.

     main.exe              run all experiments (E1..E5 + ablations)
     main.exe table1       Table I  - energy coefficients
     main.exe fig3         Fig. 3   - per-test-program fitting error
     main.exe table2       Table II - application accuracy
     main.exe fig4         Fig. 4   - Reed-Solomon design space
     main.exe speedup      macro-model vs reference estimation time
     main.exe explore      memoized design-space sweep, cold vs warm cache
     main.exe cache        cache lifecycle: cold/warm/gc/verify/prune/re-warm
     main.exe accuracy     model-accuracy audit -> BENCH_accuracy.json
     main.exe profile      profiler overhead + conservation -> BENCH_profile.json
     main.exe ablation     hybrid vs degenerate macro-models, C(W) variants
     main.exe capps        accuracy on compiled Tiny-C applications
     main.exe arbitrary    characterization on random test programs
     main.exe sweep        instruction-cache size sweep (re-characterized)
     main.exe sim          threaded backend equivalence + speedup -> BENCH_sim.json
     main.exe serve-overhead  traced vs untraced daemon round trips -> BENCH_serve.json
     main.exe bechamel     Bechamel micro-benchmarks (one per table/figure) *)

let fmt = Format.std_formatter

let paper_table2 =
  (* Application, paper's estimate (uJ), paper's WattWatcher value (uJ),
     paper's error (%). *)
  [ ("ins_sort", 336.9, 344.5, -2.2);
    ("gcd", 736.5, 723.5, 1.8);
    ("alphablend", 106.9, 105.7, 1.1);
    ("add4", 595.0, 583.9, 1.9);
    ("bubsort", 131.5, 126.7, 3.8);
    ("des", 45.6, 43.7, 4.3);
    ("accumulate", 37.6, 35.4, 6.2);
    ("drawline", 9.9, 9.7, 2.0);
    ("multi_accumulate", 23.8, 26.0, -8.5);
    ("seq_mult", 13.5, 13.7, -1.5) ]

let banner title =
  Format.fprintf fmt "@.=== %s ===@." title

(* --- Provenance ------------------------------------------------------------ *)

(* The checked-out revision as [git describe --always --dirty
   --abbrev=40] names it, so a tree with uncommitted changes carries a
   "-dirty" suffix; "unknown" when git fails (no git, or not a
   checkout). *)
let git_rev () =
  let args = [| "git"; "describe"; "--always"; "--dirty"; "--abbrev=40" |] in
  match Unix.open_process_args_full "git" args (Unix.environment ()) with
  | exception (Unix.Unix_error _ | Sys_error _) -> "unknown"
  | (out, inp, err) as p -> (
    close_out inp;
    let rev = String.trim (In_channel.input_all out) in
    ignore (In_channel.input_all err);
    match Unix.close_process_full p with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

(* Write one BENCH_*.json object: the provenance fields perfbench's
   results carry, then the object's own.  Readers of those files look fields up
   by name, so the extra ones are ignored ([Core.Audit.of_json] for
   BENCH_accuracy.json). *)
let write_bench file doc =
  let open Obs.Json in
  let provenance =
    [ ("git_rev", Str (git_rev ()));
      ("ocaml", Str Sys.ocaml_version);
      ("nproc", int (Domain.recommended_domain_count ()));
      ("backend", Str (Sim.Backend.name (Sim.Backend.current ()))) ]
  in
  save file (match doc with Obj fields -> Obj (provenance @ fields) | j -> j);
  Format.fprintf fmt "(written to %s)@." file

(* Characterization is shared by every experiment.  Wall clock, not
   Sys.time: with forked workers the parent's CPU time says nothing. *)
let fit =
  lazy
    (let t0 = Unix.gettimeofday () in
     let f = Core.Characterize.run (Workloads.Suite.characterization ()) in
     Format.fprintf fmt "(characterized 25 test programs in %.1f s)@."
       (Unix.gettimeofday () -. t0);
     f)

let model () = (Lazy.force fit).Core.Characterize.model

(* --- E1: Table I ----------------------------------------------------------- *)

let table1 () =
  banner "E1 / Table I: energy coefficients of the characterized processor";
  Format.fprintf fmt
    "Instruction-level values are this reproduction's regression outputs@.\
     (the paper's are not machine-readable in the source we have); the@.\
     structural rows are compared against the paper's published values.@.@.";
  Format.fprintf fmt "%a@."
    (Core.Template.pp_table1 ~paper:Core.Template.paper_reference)
    (model ())

(* --- E2: Fig. 3 ------------------------------------------------------------ *)

let fig3 () =
  banner "E2 / Fig. 3: fitting error of the 25 test programs";
  let f = Lazy.force fit in
  List.iteri
    (fun i s ->
      let err = f.Core.Characterize.errors_percent.(i) in
      let bar =
        String.make (int_of_float (Float.abs err *. 2.0) + 1) '#'
      in
      Format.fprintf fmt "%-18s %+6.2f%% %s@." s.Core.Characterize.sname err
        bar)
    f.Core.Characterize.samples;
  Format.fprintf fmt
    "@.measured: rms %.2f%%, max |err| %.2f%%   (paper: rms 3.8%%, max < 8.9%%)@."
    f.Core.Characterize.rms_percent f.Core.Characterize.max_abs_percent;
  (* Beyond the paper: leave-one-out cross-validation, which measures
     generalization rather than in-sample residuals. *)
  let folds =
    Core.Characterize.cross_validate f.Core.Characterize.samples
  in
  let loocv =
    Array.of_list (List.filter_map Fun.id (Array.to_list folds))
  in
  let skipped = Array.length folds - Array.length loocv in
  if skipped > 0 then
    Format.fprintf fmt
      "(%d underdetermined fold%s skipped: held-out program alone pins a@.     \ variable)@."
      skipped
      (if skipped = 1 then "" else "s");
  Format.fprintf fmt
    "leave-one-out CV: rms %.2f%%, max |err| %.2f%% (the max is the@.     \ uncached/thrash programs, each of which alone pins a variable)@."
    (Regress.Stats.rms loocv)
    (Regress.Stats.max_abs loocv)

(* --- E3: Table II ----------------------------------------------------------- *)

let table2 () =
  banner "E3 / Table II: application energy estimates, accuracy";
  let report = Core.Audit.run (model ()) (Workloads.Suite.applications ()) in
  Format.fprintf fmt
    "%-18s %27s | %25s@." ""
    "--- this reproduction ---" "------- paper -------";
  Format.fprintf fmt "%-18s %8s %9s %7s | %9s %9s %6s@." "application"
    "est uJ" "ref uJ" "err %" "est uJ" "WW uJ" "err %";
  List.iter
    (fun (r : Core.Audit.row) ->
      let p_est, p_ww, p_err =
        match
          List.find_opt (fun (n, _, _, _) -> n = r.Core.Audit.a_name)
            paper_table2
        with
        | Some (_, a, b, c) -> (a, b, c)
        | None -> (nan, nan, nan)
      in
      Format.fprintf fmt "%-18s %8.3f %9.3f %+7.2f | %9.1f %9.1f %+6.1f@."
        r.Core.Audit.a_name
        (Power.Report.to_uj r.Core.Audit.a_estimate_pj)
        (Power.Report.to_uj r.Core.Audit.a_reference_pj)
        r.Core.Audit.a_error_percent p_est p_ww p_err)
    report.Core.Audit.a_rows;
  Format.fprintf fmt
    "@.measured: mean |err| %.2f%%, max |err| %.2f%%   (paper: 3.3%%, 8.5%%)@."
    report.Core.Audit.a_mean_abs report.Core.Audit.a_max_abs;
  Format.fprintf fmt
    "(absolute uJ differ: the paper's inputs/trip counts are not published;@.\
     \ the comparison criterion is the error distribution.)@."

(* --- E4: Fig. 4 ------------------------------------------------------------- *)

let fig4 () =
  banner "E4 / Fig. 4: Reed-Solomon with four custom-instruction choices";
  let report =
    Core.Audit.run (model ()) (Workloads.Suite.reed_solomon_choices ())
  in
  Format.fprintf fmt "%a@." Core.Evaluate.pp_table report;
  Format.fprintf fmt
    "correlation of the two profiles: %.4f; identical ranking: %b@."
    (Core.Evaluate.correlation report)
    (Core.Evaluate.rank_agreement report);
  Format.fprintf fmt
    "(paper: the two profiles track one another across the four choices)@."

(* --- E5: speedup ------------------------------------------------------------ *)

let rec speedup () =
  banner "E5: estimation-time comparison (macro-model vs reference)";
  Format.fprintf fmt "%-18s %12s %14s %9s %14s %9s@." "application"
    "macro (s)" "reference (s)" "speedup" "compiled (s)" "speedup";
  let speedups =
    List.map
      (fun name ->
        let t =
          Core.Evaluate.time_case ~repeats:2 (model ())
            (Workloads.Suite.find name)
        in
        let compiled =
          t.Core.Evaluate.compiled_reference_seconds
          /. t.Core.Evaluate.macro_seconds
        in
        Format.fprintf fmt "%-18s %12.4f %14.4f %8.1fx %14.4f %8.1fx@." name
          t.Core.Evaluate.macro_seconds t.Core.Evaluate.reference_seconds
          t.Core.Evaluate.speedup t.Core.Evaluate.compiled_reference_seconds
          compiled;
        (name, t, compiled))
      [ "ins_sort"; "gcd"; "bubsort"; "des"; "rs_soft"; "rs_gfmul4" ]
  in
  let geo f =
    exp
      (List.fold_left (fun acc s -> acc +. log (f s)) 0.0 speedups
       /. float_of_int (List.length speedups))
  in
  let reference (_, t, _) = t.Core.Evaluate.speedup
  and compiled (_, _, c) = c in
  Format.fprintf fmt
    "@.geometric-mean speedup: %.0fx over the event-by-event reference,@.\
     \ %.0fx over the compiled one  (paper: ~3 orders of magnitude over@.\
     \ event-driven gate-level RTL simulation; our reference is a@.\
     \ compiled-RTL-style activity simulator, hence the smaller gap)@."
    (geo reference) (geo compiled);
  let e5 =
    Obs.Json.(
      Obj
        [ ("geomean_speedup", Num (geo reference));
          ("geomean_speedup_compiled", Num (geo compiled));
          ( "applications",
            Arr
              (List.map
                 (fun (name, (t : Core.Evaluate.timing), _) ->
                   Obj
                     [ ("name", Str name);
                       ("macro_seconds", Num t.Core.Evaluate.macro_seconds);
                       ("reference_seconds", Num t.Core.Evaluate.reference_seconds);
                       ( "compiled_reference_seconds",
                         Num t.Core.Evaluate.compiled_reference_seconds ) ])
                 speedups) ) ])
  in
  characterize_bench ~e5 ()

(* Characterization engine: the single-pass collection serially and
   with the default worker count.  Also cross-checks that both fit
   identical coefficients, and records everything, with E5's timings,
   in BENCH_characterize.json. *)
and characterize_bench ~e5 () =
  banner "E5b: characterization engine (serial vs default jobs)";
  let cases = Workloads.Suite.characterization () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let (serial_samples, serial_report), serial_s =
    time (fun () -> Core.Characterize.collect_with_report ~jobs:1 cases)
  in
  let (par_samples, par_report), par_s =
    time (fun () -> Core.Characterize.collect_with_report cases)
  in
  Format.fprintf fmt "%a@." Core.Run_report.pp par_report;
  let coeffs s =
    (Core.Characterize.fit_samples s).Core.Characterize.model
      .Core.Template.coefficients
  in
  let one_c = coeffs serial_samples and par_c = coeffs par_samples in
  let max_rel_delta =
    let d = ref 0.0 in
    Array.iteri
      (fun i a ->
        let b = par_c.(i) in
        let scale = Float.max (Float.abs a) (Float.abs b) in
        if scale > 0.0 then d := Float.max !d (Float.abs (a -. b) /. scale))
      one_c;
    !d
  in
  let jobs = par_report.Core.Run_report.jobs in
  Format.fprintf fmt
    "single-pass, 1 worker    %8.3f s@.\
     single-pass, %d worker%s  %8.3f s  (%.2fx vs 1 worker)@.\
     max relative coefficient delta (1 vs %d workers): %.3g@."
    serial_s jobs
    (if jobs = 1 then " " else "s")
    par_s (serial_s /. par_s) jobs max_rel_delta;
  write_bench "BENCH_characterize.json"
    Obs.Json.(
      Obj
        [ ("benchmark", Str "characterization-engine");
          ("workloads", int (List.length cases));
          ("single_pass_serial_seconds", Num serial_s);
          ("single_pass_parallel_seconds", Num par_s);
          ("parallel_jobs", int jobs);
          ("speedup_vs_serial", Num (serial_s /. par_s));
          ("max_rel_coeff_delta", Num max_rel_delta);
          ( "total_simulations",
            int (Core.Run_report.total_simulations serial_report) );
          ("estimation_time", e5);
          ("run_report", Core.Run_report.to_json par_report) ])

(* Design-space exploration: sweep the flagship rs-cache space twice over
   the same on-disk memo cache — cold (every simulation runs) and warm
   (every evaluation served from disk) — check the two sweeps agree
   bit-for-bit, then time the warm sweep as the best of [reps] runs,
   before and after padding the directory with [padding] unrelated
   entries: a warm sweep pays for the entries it reads, not for the
   directory's size.  Results land in BENCH_explore.json. *)
let explore_bench () =
  banner "E6: design-space exploration (memoized sweep, cold vs warm)";
  let dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xenergy-bench-cache.%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let candidates = Workloads.Spaces.rs_cache () in
  let characterization = Workloads.Suite.characterization () in
  let sweep () =
    let cache = Core.Eval_cache.create ~dir () in
    let t0 = Unix.gettimeofday () in
    let outcome = Core.Explore.run ~cache ~characterization candidates in
    (outcome, Unix.gettimeofday () -. t0)
  in
  let reps = 5 and padding = 10_000 in
  let best_warm () =
    let runs = List.init reps (fun _ -> sweep ()) in
    (fst (List.hd runs),
     List.fold_left (fun best (_, s) -> Float.min best s) infinity runs)
  in
  let cold, cold_s = sweep () in
  let warm, warm_s = sweep () in
  let _, warm_best_s = best_warm () in
  let entries () = (Core.Eval_cache.disk_stats dir).Core.Eval_cache.d_entries in
  let warm_entries = entries () in
  let pad = Core.Eval_cache.create ~dir () in
  let dummy =
    { Core.Eval_cache.e_name = "padding";
      e_variables = Array.make Core.Variables.count 0.0;
      e_cycles = 0; e_instructions = 0; e_stall_cycles = 0;
      e_measured_pj = None }
  in
  for i = 1 to padding do
    Core.Eval_cache.store pad
      (Digest.to_hex (Digest.string ("padding" ^ string_of_int i)))
      dummy
  done;
  Core.Eval_cache.flush pad;
  let padded_entries = entries () in
  let padded, padded_s = best_warm () in
  let point_key (p : Core.Explore.point) =
    (p.Core.Explore.pt_name, p.Core.Explore.pt_energy_pj,
     p.Core.Explore.pt_cycles)
  in
  let agree =
    List.for_all
      (fun (o : Core.Explore.outcome) ->
        List.map point_key cold.Core.Explore.points
        = List.map point_key o.Core.Explore.points)
      [ warm; padded ]
  in
  if not agree then
    Format.fprintf fmt "WARNING: warm sweep diverged from cold sweep!@.";
  let names ps =
    List.map (fun (p : Core.Explore.point) -> p.Core.Explore.pt_name) ps
  in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else infinity in
  Format.fprintf fmt
    "%d candidates over %d configurations@.\
     cold sweep   %8.3f s  (%d simulations)@.\
     warm sweep   %8.3f s  (%d simulations, %d cache hits)@.\
     best of %d   %8.3f ms (%d entries)@.\
     padded warm  %8.3f ms (best of %d, %d simulations, %d cache hits, \
     %d entries)@.\
     warm speedup %8.1fx   (results bit-identical: %b)@.\
     Pareto frontier: %s@."
    (List.length candidates) cold.Core.Explore.configs_characterized
    cold_s cold.Core.Explore.simulations
    warm_s warm.Core.Explore.simulations
    warm.Core.Explore.cache_stats.Core.Eval_cache.hits
    reps (warm_best_s *. 1e3) warm_entries
    (padded_s *. 1e3) reps padded.Core.Explore.simulations
    padded.Core.Explore.cache_stats.Core.Eval_cache.hits padded_entries
    speedup agree
    (String.concat " -> " (names cold.Core.Explore.frontier));
  write_bench "BENCH_explore.json"
    Obs.Json.(
      Obj
        [ ("benchmark", Str "explore-memoized-sweep");
          ("space", Str "rs-cache");
          ("candidates", int (List.length candidates));
          ( "configs_characterized",
            int cold.Core.Explore.configs_characterized );
          ("cold_seconds", Num cold_s);
          ("warm_seconds", Num warm_s);
          ("warm_repetitions", int reps);
          ("warm_best_seconds", Num warm_best_s);
          ("warm_entries", int warm_entries);
          ("warm_seconds_padded", Num padded_s);
          ("padded_entries", int padded_entries);
          ("warm_speedup", Num speedup);
          ("cold_simulations", int cold.Core.Explore.simulations);
          ("warm_simulations", int warm.Core.Explore.simulations);
          ( "warm_cache_hits",
            int warm.Core.Explore.cache_stats.Core.Eval_cache.hits );
          ( "cache_errors",
            int
              (cold.Core.Explore.cache_stats.Core.Eval_cache.errors
              + warm.Core.Explore.cache_stats.Core.Eval_cache.errors
              + padded.Core.Explore.cache_stats.Core.Eval_cache.errors) );
          ("bit_identical", Bool agree);
          ( "pareto",
            Arr
              (List.map (fun n -> Str n) (names cold.Core.Explore.frontier)) )
        ]);
  (* Best-effort cleanup of the scratch cache. *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* Cache lifecycle: populate an on-disk cache with the flagship sweep,
   re-run it warm, plant orphans and sweep them with gc, verify every
   entry, evict half by LRU, and re-run — the evicted half recomputes,
   bit-identically.  Timings and counts go to BENCH_cache.json. *)
let cache_bench () =
  banner "E7: cache lifecycle (cold / warm / gc / verify / prune / re-warm)";
  let dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xenergy-bench-lifecycle.%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let candidates = Workloads.Spaces.rs_cache () in
  let characterization = Workloads.Suite.characterization () in
  let sweep () =
    let cache = Core.Eval_cache.create ~dir () in
    let t0 = Unix.gettimeofday () in
    let outcome = Core.Explore.run ~cache ~characterization candidates in
    (outcome, Unix.gettimeofday () -. t0)
  in
  let point_key (p : Core.Explore.point) =
    (p.Core.Explore.pt_name, p.Core.Explore.pt_energy_pj,
     p.Core.Explore.pt_cycles)
  in
  let cold, cold_s = sweep () in
  let warm, warm_s = sweep () in
  let populated = Core.Eval_cache.disk_stats dir in
  (* Orphans: a writer that died between temp_file and rename, plus a
     foreign file that can never be an entry. *)
  List.iter
    (fun f ->
      Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc "orphan\n"))
    [ "cachedead1.tmp"; "cachedead2.tmp"; "stray.dat" ];
  let gc_r = Core.Eval_cache.gc dir in
  let verify_r = Core.Eval_cache.verify dir in
  let keep = populated.Core.Eval_cache.d_entries / 2 in
  let t0 = Unix.gettimeofday () in
  let prune_r =
    Core.Eval_cache.prune
      ~policy:{ Core.Eval_cache.unlimited with
                Core.Eval_cache.max_entries = Some keep }
      dir
  in
  let prune_s = Unix.gettimeofday () -. t0 in
  let rewarm, rewarm_s = sweep () in
  let agree l r = List.map point_key l = List.map point_key r in
  let warm_identical = agree cold.Core.Explore.points warm.Core.Explore.points in
  let rewarm_identical =
    agree cold.Core.Explore.points rewarm.Core.Explore.points
  in
  if not (warm_identical && rewarm_identical) then
    Format.fprintf fmt "WARNING: sweep results diverged across the cycle!@.";
  Format.fprintf fmt
    "%d entries (%d bytes) after the cold sweep@.\
     cold sweep    %8.3f s  (%d simulations)@.\
     warm sweep    %8.3f s  (%d simulations, %d hits, identical: %b)@.\
     gc            removed %d tmp orphans, %d foreign files@.\
     verify        %d ok, %d corrupt@.\
     prune         %8.3f s  kept %d, evicted %d (LRU)@.\
     re-warm sweep %8.3f s  (%d simulations recomputed, identical: %b)@."
    populated.Core.Eval_cache.d_entries populated.Core.Eval_cache.d_bytes
    cold_s cold.Core.Explore.simulations
    warm_s warm.Core.Explore.simulations
    warm.Core.Explore.cache_stats.Core.Eval_cache.hits warm_identical
    gc_r.Core.Eval_cache.g_tmp_removed gc_r.Core.Eval_cache.g_foreign_removed
    verify_r.Core.Eval_cache.v_ok
    (List.length verify_r.Core.Eval_cache.v_corrupt)
    prune_s prune_r.Core.Eval_cache.p_kept prune_r.Core.Eval_cache.p_evicted
    rewarm_s rewarm.Core.Explore.simulations rewarm_identical;
  write_bench "BENCH_cache.json"
    Obs.Json.(
      Obj
        [ ("benchmark", Str "cache-lifecycle");
          ("space", Str "rs-cache");
          ("entries", int populated.Core.Eval_cache.d_entries);
          ("bytes", int populated.Core.Eval_cache.d_bytes);
          ("cold_seconds", Num cold_s);
          ("warm_seconds", Num warm_s);
          ("warm_simulations", int warm.Core.Explore.simulations);
          ("warm_identical", Bool warm_identical);
          ("gc_tmp_removed", int gc_r.Core.Eval_cache.g_tmp_removed);
          ("gc_foreign_removed", int gc_r.Core.Eval_cache.g_foreign_removed);
          ("verify_ok", int verify_r.Core.Eval_cache.v_ok);
          ( "verify_corrupt",
            int (List.length verify_r.Core.Eval_cache.v_corrupt) );
          ("prune_seconds", Num prune_s);
          ("prune_kept", int prune_r.Core.Eval_cache.p_kept);
          ("prune_evicted", int prune_r.Core.Eval_cache.p_evicted);
          ("rewarm_seconds", Num rewarm_s);
          ("rewarm_simulations", int rewarm.Core.Explore.simulations);
          ("rewarm_identical", Bool rewarm_identical) ]);
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* Model-accuracy audit: the single-pass macro-model vs reference error
   distribution over the applications, written to BENCH_accuracy.json —
   the committed baseline the CI accuracy gate compares against. *)
let accuracy_bench () =
  banner "E8: model-accuracy audit (macro-model vs reference)";
  let report =
    Core.Audit.run (model ()) (Workloads.Suite.applications ())
  in
  Format.fprintf fmt "%a@." Core.Audit.pp report;
  write_bench "BENCH_accuracy.json" (Core.Audit.to_json report)

(* Hotspot profiler: conservation of the per-block decomposition over
   every application, then attached-vs-detached simulation wall time on
   a representative workload.  The acceptance budget is attached <= 2x
   detached; everything lands in BENCH_profile.json. *)
let profile_bench () =
  banner "E9: hotspot profiler (conservation, overhead attached vs detached)";
  let m = model () in
  let apps = Workloads.Suite.applications () in
  let worst_energy_gap = ref 0.0 in
  let worst_cycle_gap = ref 0.0 in
  List.iter
    (fun (c : Core.Extract.case) ->
      let r = Core.Profiler.run m c in
      let cyc_gap, en_gap = Core.Profiler.check r in
      worst_cycle_gap := Float.max !worst_cycle_gap cyc_gap;
      worst_energy_gap := Float.max !worst_energy_gap en_gap;
      if cyc_gap <> 0.0 || en_gap > 1e-6 then
        Format.fprintf fmt "WARNING: %s violates conservation (%g, %g)@."
          c.Core.Extract.case_name cyc_gap en_gap)
    apps;
  Format.fprintf fmt
    "conservation over %d applications: worst cycle gap %g, worst relative \
     energy gap %.3g@."
    (List.length apps) !worst_cycle_gap !worst_energy_gap;
  let case = Workloads.Suite.find "gcd" in
  let repeats = 5 in
  let time f =
    ignore (f ());  (* warm up *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int repeats
  in
  let detached_s = time (fun () -> Core.Extract.profile case) in
  let attached_s = time (fun () -> Core.Profiler.run m case) in
  let overhead = attached_s /. detached_s in
  let budget = 2.0 in
  Format.fprintf fmt
    "gcd x%d:  detached %8.4f s   attached %8.4f s   overhead %.2fx \
     (budget %.1fx: %s)@."
    repeats detached_s attached_s overhead budget
    (if overhead <= budget then "ok" else "EXCEEDED");
  write_bench "BENCH_profile.json"
    Obs.Json.(
      Obj
        [ ("benchmark", Str "profiler-overhead");
          ("workload", Str "gcd");
          ("repeats", int repeats);
          ("detached_seconds", Num detached_s);
          ("attached_seconds", Num attached_s);
          ("overhead_ratio", Num overhead);
          ("overhead_budget", Num budget);
          ("within_budget", Bool (overhead <= budget));
          ("applications_checked", int (List.length apps));
          ("worst_cycle_gap", Num !worst_cycle_gap);
          ("worst_energy_gap_rel", Num !worst_energy_gap) ])

(* Threaded-code execution backend: first the bit-identity oracle (the
   --backend check dual run) over every application, then interp vs
   threaded wall time over the characterization suite.  Timing
   methodology: per program, batches of fresh machines sized so each
   timed region is ~10 ms (well above timer resolution), the two
   backends interleaved within every rep so load drift hits both
   equally, best of 7 reps, geometric mean across programs.  Gate:
   geomean >= 5x (stretch 10x).  Everything lands in BENCH_sim.json. *)
let sim_bench () =
  banner "E10: threaded-code simulation backend (equivalence + speedup)";
  (* Pre-decode allocates the program's op records in one burst and they
     stay live for the whole run, so a small minor heap promotes them
     mid-decode; run the benchmark with the roomy minor heap (8 M words)
     a decode-heavy production setup would configure. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let apps = Workloads.Suite.applications () in
  let checks0 = Sim.Backend.checks_run () in
  List.iter
    (fun (c : Core.Extract.case) ->
      ignore
        (Sim.Backend.run_program ~backend:Sim.Backend.Check
           ?extension:c.Core.Extract.extension c.Core.Extract.asm))
    apps;
  let checks = Sim.Backend.checks_run () - checks0 in
  Format.fprintf fmt
    "equivalence: %d dual runs over %d applications — outcome, cycles, \
     instructions and the complete retirement event stream (operands, \
     penalties, stalls, custom-state updates) bit-identical@."
    checks (List.length apps);
  let programs = Workloads.Suite.characterization () in
  let time_batch mk run k =
    let cpus = Array.init k (fun _ -> mk ()) in
    let t0 = Unix.gettimeofday () in
    for i = 0 to k - 1 do
      ignore (run cpus.(i))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int k
  in
  Format.fprintf fmt "%-20s %9s %11s %11s %8s@." "test program" "instrs"
    "interp ns/i" "thread ns/i" "speedup";
  let rows =
    List.map
      (fun (c : Core.Extract.case) ->
        let mk () =
          Sim.Cpu.create ?extension:c.Core.Extract.extension
            c.Core.Extract.asm
        in
        let probe = mk () in
        ignore (Sim.Cpu.run probe);
        let ins = Sim.Cpu.instructions probe in
        (* Batch size targeting ~10 ms of simulation per measurement at
           ~100 ns/instruction, capped at 200 machines. *)
        let k =
          max 1 (min 200 (int_of_float (0.01 /. (float_of_int ins *. 100e-9))))
        in
        let best_i = ref infinity and best_t = ref infinity in
        for _ = 1 to 7 do
          let ti = time_batch mk Sim.Cpu.run k in
          let tt = time_batch mk (fun m -> Sim.Cpu.run_threaded m) k in
          if ti < !best_i then best_i := ti;
          if tt < !best_t then best_t := tt
        done;
        let ni = !best_i /. float_of_int ins *. 1e9 in
        let nt = !best_t /. float_of_int ins *. 1e9 in
        let speedup = !best_i /. !best_t in
        Format.fprintf fmt "%-20s %9d %11.1f %11.1f %7.2fx@."
          c.Core.Extract.case_name ins ni nt speedup;
        (c.Core.Extract.case_name, ins, ni, nt, speedup))
      programs
  in
  let geomean =
    exp
      (List.fold_left (fun acc (_, _, _, _, s) -> acc +. log s) 0.0 rows
       /. float_of_int (List.length rows))
  in
  let gate = 5.0 and stretch = 10.0 in
  Format.fprintf fmt
    "@.geometric-mean speedup: %.2fx over %d programs (gate %.0fx: %s; \
     stretch %.0fx: %s)@."
    geomean (List.length rows) gate
    (if geomean >= gate then "ok" else "MISSED")
    stretch
    (if geomean >= stretch then "ok" else "not reached");
  let row_json (name, ins, ni, nt, s) =
    Obs.Json.(
      Obj
        [ ("name", Str name);
          ("instructions", int ins);
          ("interp_ns_per_instr", Num ni);
          ("threaded_ns_per_instr", Num nt);
          ("speedup", Num s) ])
  in
  write_bench "BENCH_sim.json"
    Obs.Json.(
      Obj
        [ ("benchmark", Str "sim-backend");
          ("equivalence_checks", int checks);
          ("applications_checked", int (List.length apps));
          ("programs", int (List.length rows));
          ("geomean_speedup", Num geomean);
          ("gate_speedup", Num gate);
          ("stretch_speedup", Num stretch);
          ("gate_pass", Bool (geomean >= gate));
          ("rows", Arr (List.map row_json rows)) ]);
  if geomean < gate then exit 1

(* Serve observability overhead: two stub-characterized daemons side by
   side — one plain, one with request tracing recording and an
   aggressive slow-request threshold — driven through warm estimate
   round trips on reused sessions.  The two modes alternate request by
   request, each going first in turn, so load drift hits both equally;
   each round trip is timed on the monotonic clock in nanoseconds
   (wall-clock microsecond steps are a few percent of a round trip).
   Best-of-reps medians gate the ratio at <= 1.05 (tracing must cost at
   most 5% of a round trip).  Results land in BENCH_serve.json. *)
let serve_overhead () =
  banner "E11: serve observability overhead (traced vs untraced round trips)";
  let stub = Core.Template.make (Array.make Core.Variables.count 1.0) in
  let spawn ~traced =
    let socket =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xenergy_bench_serve.%d.%s.sock" (Unix.getpid ())
           (if traced then "traced" else "plain"))
    in
    (try Sys.remove socket with Sys_error _ -> ());
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Obs.Trace.after_fork ();
      (try
         if traced then Obs.Trace.set_enabled true;
         let router =
           if traced then
             Serve.Router.create ~max_models:4 ~jobs:2 ~slow_ms:0.05
               ~characterize:(fun _ -> stub) ()
           else
             Serve.Router.create ~max_models:4 ~jobs:2
               ~characterize:(fun _ -> stub) ()
         in
         Serve.Server.run ~io_timeout_s:60.0 ~socket router
       with _ -> ());
      Unix._exit 0
    | pid -> (socket, pid)
  in
  let stop (socket, pid) =
    (try
       ignore
         (Serve.Client.call ~timeout_s:5.0 ~socket
            (Obs.Json.Obj [ ("op", Obs.Json.Str "shutdown") ]))
     with _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    try Sys.remove socket with Sys_error _ -> ()
  in
  let plain = spawn ~traced:false in
  let traced = spawn ~traced:true in
  (* The verdict is computed inside the protected region and acted on
     outside it: [exit] does not unwind, so exiting in here would skip
     [stop] and orphan both daemons and their pool lanes. *)
  let within_budget =
    Fun.protect
      ~finally:(fun () ->
        stop plain;
        stop traced)
    @@ fun () ->
    List.iter
      (fun (socket, _) ->
        if not (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ()) then
          failwith "serve-overhead: bench daemon did not come up")
      [ plain; traced ];
    (* Client-side recording on: the traced mode pays the full cost of
       minting ids, stamping the request and recording the span. *)
    Obs.Trace.set_enabled true;
    let req =
      Obs.Json.Obj
        [ ("op", Obs.Json.Str "estimate");
          ("workloads", Obs.Json.Arr [ Obs.Json.Str "gcd" ]) ]
    in
    Serve.Client.with_session ~socket:(fst plain) @@ fun s_plain ->
    Serve.Client.with_session ~socket:(fst traced) @@ fun s_traced ->
    let one s trace = ignore (Serve.Client.session_call ~timeout_s:30.0 ~trace s req) in
    (* Warm the registry and the evaluation cache on both daemons. *)
    for _ = 1 to 20 do
      one s_plain false;
      one s_traced true
    done;
    (* One round trip, in microseconds. *)
    let time s trace =
      let t0 = Monotonic_clock.now () in
      one s trace;
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3
    in
    let median lat =
      Array.sort compare lat;
      lat.(Array.length lat / 2)
    in
    let reps = 7 and n = 200 in
    let best_plain = ref infinity and best_traced = ref infinity in
    for _ = 1 to reps do
      let p = Array.make n 0.0 and t = Array.make n 0.0 in
      for i = 0 to n - 1 do
        if i land 1 = 0 then begin
          p.(i) <- time s_plain false;
          t.(i) <- time s_traced true
        end
        else begin
          t.(i) <- time s_traced true;
          p.(i) <- time s_plain false
        end
      done;
      best_plain := Float.min !best_plain (median p);
      best_traced := Float.min !best_traced (median t)
    done;
    Obs.Trace.set_enabled false;
    let ratio = !best_traced /. !best_plain in
    let budget = 1.05 in
    Format.fprintf fmt
      "warm estimate round trip: untraced %.1f us, traced %.1f us — ratio \
       %.3fx (budget %.2fx: %s)@."
      !best_plain !best_traced ratio budget
      (if ratio <= budget then "ok" else "OVER");
    write_bench "BENCH_serve.json"
      Obs.Json.(
        Obj
          [ ("benchmark", Str "serve-overhead");
            ("samples_per_batch", int n);
            ("reps", int reps);
            ("untraced_us", Num !best_plain);
            ("traced_us", Num !best_traced);
            ("ratio", Num ratio);
            ("budget", Num budget);
            ("within_budget", Bool (ratio <= budget)) ]);
    ratio <= budget
  in
  if not within_budget then exit 1

(* --- Ablations ---------------------------------------------------------------- *)

(* Zero selected variables out of collected samples and profiles, refit,
   and re-evaluate on the applications. *)
let ablate_variables ~keep samples =
  List.map
    (fun (s : Core.Characterize.sample) ->
      { s with
        Core.Characterize.variables =
          Array.mapi
            (fun i v -> if keep (Core.Variables.of_index i) then v else 0.0)
            s.Core.Characterize.variables })
    samples

let evaluate_model_on_apps ~keep model =
  let apps =
    Workloads.Suite.applications () @ Workloads.Suite.reed_solomon_choices ()
  in
  let rows =
    List.map
      (fun (c : Core.Extract.case) ->
        let prof = Core.Extract.profile c in
        let vars =
          Array.mapi
            (fun i v -> if keep (Core.Variables.of_index i) then v else 0.0)
            prof.Core.Extract.variables
        in
        let est = Power.Report.to_uj (Core.Template.energy model vars) in
        let ref_pj, _ =
          Power.Estimator.estimate_program
            ?extension:c.Core.Extract.extension c.Core.Extract.asm
        in
        let reference = Power.Report.to_uj ref_pj in
        100.0 *. (est -. reference) /. reference)
      apps
  in
  let errs = Array.of_list rows in
  ( Regress.Stats.mean (Array.map Float.abs errs),
    Regress.Stats.max_abs errs )

let ablation () =
  banner "Ablation: hybrid model vs degenerate macro-models";
  let samples =
    List.map
      (fun (s : Core.Characterize.sample) -> s)
      (Lazy.force fit).Core.Characterize.samples
  in
  let run_variant name keep =
    let fit' =
      Core.Characterize.fit_samples (ablate_variables ~keep samples)
    in
    let mean_err, max_err =
      evaluate_model_on_apps ~keep fit'.Core.Characterize.model
    in
    Format.fprintf fmt
      "%-34s fit rms %6.2f%%   apps: mean |err| %6.2f%%, max %6.2f%%@." name
      fit'.Core.Characterize.rms_percent mean_err max_err
  in
  Format.fprintf fmt
    "(evaluated over the 10 applications plus the 4 Reed-Solomon choices)@.";
  run_variant "hybrid (paper, 21 variables)" (fun _ -> true);
  run_variant "instruction-level only" (fun id ->
      (not (Core.Variables.is_structural id))
      && id <> Core.Variables.Custom_side);
  run_variant "instruction-level + c_side" (fun id ->
      not (Core.Variables.is_structural id));
  run_variant "classes only (no dynamic effects)" (fun id ->
      match id with
      | Core.Variables.Arith | Core.Variables.Load | Core.Variables.Store
      | Core.Variables.Jump | Core.Variables.Branch_taken
      | Core.Variables.Branch_untaken ->
        true
      | Core.Variables.Icache_miss | Core.Variables.Dcache_miss
      | Core.Variables.Uncached_fetch | Core.Variables.Interlock
      | Core.Variables.Custom_side | Core.Variables.Category _ ->
        false);
  Format.fprintf fmt
    "(a pure instruction-level model cannot see the custom hardware at@.\
     \ all, so applications with custom instructions are underestimated -@.\
     \ the paper's motivation for the hybrid formulation)@.";
  (* C(W) ablation: replace the quadratic bit-width complexity of
     multiplier-like components with a linear one, re-extract the
     structural variables and refit. *)
  let linear_complexity (c : Tie.Component.t) =
    match c.Tie.Component.category with
    | Tie.Component.Multiplier | Tie.Component.Tie_mult
    | Tie.Component.Tie_mac ->
      float_of_int c.Tie.Component.width /. 32.0
    | Tie.Component.Adder | Tie.Component.Logic | Tie.Component.Shifter
    | Tie.Component.Custom_register | Tie.Component.Tie_add
    | Tie.Component.Tie_csa | Tie.Component.Table ->
      Tie.Component.complexity c
  in
  let fit_lin =
    Core.Characterize.run ~complexity:("linear", linear_complexity)
      (Workloads.Suite.characterization ())
  in
  let apps =
    Workloads.Suite.applications () @ Workloads.Suite.reed_solomon_choices ()
  in
  let errs =
    Array.of_list
      (List.map
         (fun (c : Core.Extract.case) ->
           let prof = Core.Extract.profile ~complexity:linear_complexity c in
           let est =
             Power.Report.to_uj
               (Core.Template.energy fit_lin.Core.Characterize.model
                  prof.Core.Extract.variables)
           in
           let ref_pj, _ =
             Power.Estimator.estimate_program
               ?extension:c.Core.Extract.extension c.Core.Extract.asm
           in
           let reference = Power.Report.to_uj ref_pj in
           100.0 *. (est -. reference) /. reference)
         apps)
  in
  Format.fprintf fmt
    "%-34s fit rms %6.2f%%   apps: mean |err| %6.2f%%, max %6.2f%%@."
    "linear C(W) for multipliers"
    fit_lin.Core.Characterize.rms_percent
    (Regress.Stats.mean (Array.map Float.abs errs))
    (Regress.Stats.max_abs errs);
  Format.fprintf fmt
    "(the quadratic complexity of multiplier-like components matters when@.\
     \ instances of different widths coexist, as in the MAC and packed-GF@.\
     \ extensions)@."

(* --- Compiled-C applications ------------------------------------------------------ *)

(* The paper's applications were C programs through the Tensilica
   toolchain; ours above are hand-written assembly.  Check that the
   macro-model is just as accurate on code produced by the Tiny-C
   compiler (different register usage, frame traffic and branch
   patterns). *)
let capps () =
  banner "Extension: accuracy on compiled Tiny-C applications";
  let report = Core.Audit.run (model ()) (Workloads.Suite.c_applications ()) in
  Format.fprintf fmt "%a@." Core.Evaluate.pp_table report;
  Format.fprintf fmt
    "(compiler-generated code needs no special treatment in the flow)@."

(* --- Arbitrary-test-program claim ------------------------------------------------ *)

(* Section IV-A of the paper: "regression macro-modeling, through its
   in-situ characterization, only requires that the test programs have
   diversity in their instruction statistics ... thus, arbitrary test
   programs can be used."  Characterize on RANDOM programs and evaluate
   the resulting model on the (unchanged) applications. *)
let arbitrary () =
  banner "Extension: characterization on arbitrary (random) test programs";
  Format.fprintf fmt "%-26s %10s %14s %14s@." "characterization suite"
    "fit rms%" "apps mean err%" "apps max err%";
  let eval_with label cases =
    let f = Core.Characterize.run cases in
    let report =
      Core.Audit.run f.Core.Characterize.model
        (Workloads.Suite.applications ()
         @ Workloads.Suite.reed_solomon_choices ())
    in
    Format.fprintf fmt "%-26s %10.2f %14.2f %14.2f@." label
      f.Core.Characterize.rms_percent report.Core.Audit.a_mean_abs
      report.Core.Audit.a_max_abs
  in
  eval_with "hand-written (25)" (Workloads.Suite.characterization ());
  List.iter
    (fun seed ->
      eval_with
        (Printf.sprintf "random seed %d (40)" seed)
        (Workloads.Synthetic.suite ~count:40 ~seed ()))
    [ 1; 2; 3 ];
  Format.fprintf fmt
    "(random suites work - the paper's in-situ claim - but need more@.\
     \ programs and sparse/diverse instruction mixes for a well-conditioned@.\
     \ design matrix; a curated suite stays ~2x more accurate)@."

(* --- Configuration sweep -------------------------------------------------------- *)

(* The macro-model is per-configuration (the paper re-characterizes when
   the base processor changes).  Sweep the instruction-cache size and
   show that (a) the flow re-characterizes cleanly and (b) both
   estimators agree on the energy trend of a cache-sensitive program. *)
(* A code footprint of ~10.5 KB, not part of any suite, so the sweep
   evaluates the macro-model on unseen code at every configuration. *)
let sweep_app () =
  let open Isa.Builder in
  let b = create "sweep_app" in
  label b "main";
  movi b a4 0x137f;
  movi b a5 3;
  movi b a2 40;
  label b "outer";
  for i = 0 to 3499 do
    match i mod 4 with
    | 0 -> add b a6 a4 a5
    | 1 -> xor b a4 a6 a5
    | 2 -> addi b a5 a5 1
    | _ -> sub b a6 a4 a5
  done;
  addi b a2 a2 (-1);
  bnez b a2 "outer";
  halt b;
  Core.Extract.case "sweep_app" (Isa.Program.assemble (seal b))

let sweep () =
  banner "Extension: instruction-cache size sweep (re-characterized flow)";
  Format.fprintf fmt "%-10s %10s %12s %12s %8s %9s@." "icache" "fit rms%"
    "macro (uJ)" "ref (uJ)" "err %" "cycles";
  let case = sweep_app () in
  List.iter
    (fun kb ->
      let config =
        { Sim.Config.default with
          Sim.Config.icache =
            { Sim.Config.default_cache with
              Sim.Config.size_bytes = kb * 1024 } }
      in
      let f =
        Core.Characterize.run ~config (Workloads.Suite.characterization ())
      in
      let est = Core.Estimate.run ~config f.Core.Characterize.model case in
      let ref_pj, cpu =
        Power.Estimator.estimate_program ~config case.Core.Extract.asm
      in
      let ref_uj = Power.Report.to_uj ref_pj in
      Format.fprintf fmt "%7d KB %10.2f %12.3f %12.3f %+8.2f %9d@." kb
        f.Core.Characterize.rms_percent est.Core.Estimate.energy_uj ref_uj
        (100.0 *. (est.Core.Estimate.energy_uj -. ref_uj) /. ref_uj)
        (Sim.Cpu.cycles cpu))
    [ 4; 8; 16; 32 ];
  Format.fprintf fmt
    "(sweep_app's code footprint is ~10.5 KB and it is not part of any@.\
     \ suite: energy collapses once the cache holds the loop, and the@.\
     \ re-characterized macro-model follows the trend at every point)@."

(* --- Bechamel micro-benchmarks ------------------------------------------------ *)

let bechamel_benchmarks () =
  banner "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let samples = (Lazy.force fit).Core.Characterize.samples in
  let m = model () in
  let small_app = Workloads.Suite.find "des" in
  let profile = Core.Extract.profile small_app in
  let rs = Workloads.Suite.find "rs_gfmac" in
  (* One Test.make per experiment: the computational kernel that
     regenerates the table/figure. *)
  let t_table1 =
    Test.make ~name:"table1/regression-fit"
      (Staged.stage (fun () ->
           ignore (Core.Characterize.fit_samples samples)))
  in
  let t_fig3 =
    Test.make ~name:"fig3/residual-statistics"
      (Staged.stage (fun () ->
           let f = Core.Characterize.fit_samples samples in
           ignore f.Core.Characterize.rms_percent))
  in
  let t_table2 =
    Test.make ~name:"table2/macro-estimate(des)"
      (Staged.stage (fun () -> ignore (Core.Estimate.run m small_app)))
  in
  let t_table2_apply =
    Test.make ~name:"table2/model-apply-only"
      (Staged.stage (fun () -> ignore (Core.Estimate.of_profile m profile)))
  in
  let t_fig4 =
    Test.make ~name:"fig4/macro-estimate(rs_gfmac)"
      (Staged.stage (fun () -> ignore (Core.Estimate.run m rs)))
  in
  let t_speedup_ref =
    Test.make ~name:"speedup/reference-estimate(des)"
      (Staged.stage (fun () ->
           ignore
             (Power.Estimator.estimate_program
                ?extension:small_app.Core.Extract.extension
                small_app.Core.Extract.asm)))
  in
  let grouped =
    Test.make_grouped ~name:"experiments" ~fmt:"%s %s"
      [ t_table1; t_fig3; t_table2; t_table2_apply; t_fig4; t_speedup_ref ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Format.fprintf fmt "-- measure: %s@." measure;
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Some e
            | Some _ | None -> None
          in
          rows := (name, est) :: !rows)
        tbl;
      List.iter
        (fun (name, est) ->
          match est with
          | Some e -> Format.fprintf fmt "%-44s %14.1f ns/run@." name e
          | None -> Format.fprintf fmt "%-44s (no estimate)@." name)
        (List.sort compare !rows))
    merged

(* --- Driver -------------------------------------------------------------------- *)

let () =
  let experiments =
    [ ("table1", table1); ("fig3", fig3); ("table2", table2);
      ("fig4", fig4); ("speedup", speedup); ("explore", explore_bench);
      ("cache", cache_bench); ("accuracy", accuracy_bench);
      ("profile", profile_bench);
      ("ablation", ablation); ("capps", capps);
      ("arbitrary", arbitrary);
      ("sweep", sweep); ("sim", sim_bench);
      ("serve-overhead", serve_overhead);
      ("bechamel", bechamel_benchmarks) ]
  in
  match Array.to_list Sys.argv with
  | _ :: name :: _ -> (
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
      Format.fprintf fmt "unknown experiment %S; available: %s@." name
        (String.concat ", " (List.map fst experiments));
      exit 1)
  | _ ->
    List.iter
      (fun (name, f) -> if name <> "bechamel" then f ())
      experiments;
    bechamel_benchmarks ()
