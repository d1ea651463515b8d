(* Tests for the macro-model core: variables, resource-usage analysis,
   profile extraction, the template and the characterization flow. *)

let check = Alcotest.check
let fail = Alcotest.fail

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Variables ------------------------------------------------------------ *)

let test_variable_layout () =
  check Alcotest.int "twenty-one variables" 21 Core.Variables.count;
  List.iteri
    (fun i id ->
      check Alcotest.int (Core.Variables.name id) i (Core.Variables.index id);
      check Alcotest.bool "of_index round trip" true
        (Core.Variables.of_index i = id))
    Core.Variables.all;
  check Alcotest.int "ten structural variables" 10
    (List.length (List.filter Core.Variables.is_structural Core.Variables.all));
  match Core.Variables.of_index 21 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "out-of-range index accepted"

let test_variable_names_unique () =
  let names = List.map Core.Variables.name Core.Variables.all in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- Resource usage analysis ---------------------------------------------- *)

let mk_case ?extension build =
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  build b;
  Isa.Builder.halt b;
  Core.Extract.case ?extension "t" (Isa.Program.assemble (Isa.Builder.seal b))

let test_resource_counts_active_cycles () =
  let open Isa.Builder in
  let ext = Workloads.Tie_lib.gf_ext in
  let c =
    mk_case ~extension:ext (fun b ->
        movi b a2 7;
        movi b a3 9;
        custom b "gfmul" ~dst:a4 [ a2; a3 ];
        custom b "gfmul" ~dst:a5 [ a3; a2 ])
  in
  let res = Core.Resource.create c.Core.Extract.extension in
  let _ =
    Sim.Backend.run_program ?extension:c.Core.Extract.extension
      ~observers:[ Core.Resource.observer res ]
      c.Core.Extract.asm
  in
  (* gfmul activates tables, an adder and logic for its full latency. *)
  check Alcotest.bool "tables active" true
    (Core.Resource.total_for res Tie.Component.Table > 0.0);
  check Alcotest.bool "adder active" true
    (Core.Resource.total_for res Tie.Component.Adder > 0.0);
  check (Alcotest.float 1e-9) "no multiplier in this extension" 0.0
    (Core.Resource.total_for res Tie.Component.Multiplier)

let test_resource_idle_weight () =
  let open Isa.Builder in
  (* Base-only code under an installed extension: only the bus-facing
     idle contribution can appear. *)
  let ext = Workloads.Tie_lib.coverage Tie.Component.Adder in
  let build b =
    movi b a2 1;
    movi b a3 2;
    add b a4 a2 a3;
    add b a5 a4 a2
  in
  let run_with w =
    let c = mk_case ~extension:ext build in
    let res = Core.Resource.create ~idle_weight:w c.Core.Extract.extension in
    let _ =
      Sim.Backend.run_program ?extension:c.Core.Extract.extension
        ~observers:[ Core.Resource.observer res ]
        c.Core.Extract.asm
    in
    Core.Resource.total_for res Tie.Component.Adder
  in
  check (Alcotest.float 1e-9) "zero weight, zero idle usage" 0.0
    (run_with 0.0);
  let x1 = run_with 0.1 and x2 = run_with 0.2 in
  check (Alcotest.float 1e-9) "idle usage scales with the weight" (2.0 *. x1)
    x2

(* --- Extract -------------------------------------------------------------- *)

let test_profile_variables () =
  let open Isa.Builder in
  let c =
    mk_case (fun b ->
        movi b a2 0x11000;
        l32i b a3 a2 0;
        s32i b a3 a2 4;
        loop_n b ~cnt:a4 5 (fun () -> addi b a5 a5 1))
  in
  let p = Core.Extract.profile c in
  let v id = Core.Extract.variable p id in
  check Alcotest.bool "arith cycles counted" true
    (v Core.Variables.Arith > 5.0);
  check (Alcotest.float 1e-9) "one load" 1.0 (v Core.Variables.Load);
  check (Alcotest.float 1e-9) "one store" 1.0 (v Core.Variables.Store);
  check (Alcotest.float 1e-9) "four taken branches"
    (4.0 *. float_of_int (1 + Sim.Config.default.Sim.Config.branch_taken_penalty))
    (v Core.Variables.Branch_taken);
  check Alcotest.bool "cycles recorded" true (p.Core.Extract.cycles > 0);
  check Alcotest.bool "halted" true
    (p.Core.Extract.outcome = Sim.Cpu.Halted)

(* --- Template -------------------------------------------------------------- *)

let test_template_energy () =
  let coeffs = Array.make Core.Variables.count 0.0 in
  coeffs.(Core.Variables.index Core.Variables.Arith) <- 10.0;
  coeffs.(Core.Variables.index Core.Variables.Load) <- 100.0;
  let model = Core.Template.make coeffs in
  let vars = Array.make Core.Variables.count 0.0 in
  vars.(Core.Variables.index Core.Variables.Arith) <- 5.0;
  vars.(Core.Variables.index Core.Variables.Load) <- 2.0;
  check (Alcotest.float 1e-9) "dot product" 250.0
    (Core.Template.energy model vars);
  match Core.Template.make [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "wrong-size coefficient vector accepted"

let test_template_save_load () =
  let g = Workloads.Prng.create 11 in
  let coeffs =
    Array.init Core.Variables.count (fun _ ->
        float_of_int (Workloads.Prng.int g 100000) /. 100.0)
  in
  let model = Core.Template.make coeffs in
  let path = Filename.temp_file "coeffs" ".txt" in
  Core.Template.save path model;
  let loaded = Core.Template.load path in
  Sys.remove path;
  List.iter
    (fun id ->
      check (Alcotest.float 1e-4)
        (Core.Variables.name id)
        (Core.Template.coefficient model id)
        (Core.Template.coefficient loaded id))
    Core.Variables.all

(* --- Characterization on a small synthetic suite --------------------------- *)

let small_suite () =
  let open Isa.Builder in
  [ mk_case (fun b ->
        movi b a2 1;
        loop_n b ~cnt:a3 60 (fun () ->
            add b a4 a2 a3;
            xor b a5 a4 a2));
    mk_case (fun b ->
        movi b a2 0x11000;
        loop_n b ~cnt:a3 60 (fun () ->
            l32i b a4 a2 0;
            s32i b a4 a2 4));
    mk_case (fun b ->
        movi b a2 1;
        movi b a3 2;
        let out = fresh b "out" in
        loop_n b ~cnt:a4 60 (fun () ->
            beq b a2 a3 out;
            addi b a5 a5 1);
        label b out);
    mk_case (fun b ->
        movi b a1 0x80000;
        loop_n b ~cnt:a2 30 (fun () -> call0 b "leaf");
        j b "over";
        label b "leaf";
        addi b a4 a4 1;
        ret b;
        label b "over");
    mk_case (fun b ->
        movi b a2 0x11000;
        loop_n b ~cnt:a3 40 (fun () ->
            l32i b a4 a2 0;
            addi b a5 a4 1;
            mull b a6 a5 a5));
    mk_case (fun b ->
        movi b a2 3;
        loop_n b ~cnt:a3 80 (fun () ->
            slli b a4 a2 2;
            srli b a5 a4 1));
    mk_case (fun b ->
        movi b a2 0x11000;
        loop_n b ~cnt:a3 100 (fun () ->
            s32i b a3 a2 0;
            addi b a2 a2 4));
    mk_case (fun b ->
        movi b a2 0x30000;
        loop_n b ~cnt:a3 30 (fun () ->
            l32i b a4 a2 0;
            addmi b a2 a2 16));
    mk_case (fun b ->
        loop_n b ~cnt:a3 120 (fun () ->
            addi b a4 a4 7;
            sub b a5 a4 a3));
    mk_case (fun b ->
        movi b a2 0x11000;
        loop_n b ~cnt:a3 50 (fun () ->
            l32i b a4 a2 0;
            addi b a5 a4 1;     (* load-use interlock *)
            nop b));
    mk_case (fun b ->
        movi b a2 9;
        movi b a3 9;
        let out = fresh b "out2" in
        loop_n b ~cnt:a4 70 (fun () ->
            bne b a2 a3 out;      (* 9 = 9: untaken *)
            bltu b a2 a3 out);    (* 9 < 9: untaken *)
        label b out) ]

let test_characterize_small () =
  let fit = Core.Characterize.run (small_suite ()) in
  if fit.Core.Characterize.rms_percent >= 15.0 then
    fail
      (Printf.sprintf "poor fit: rms %.2f%%" fit.Core.Characterize.rms_percent);
  Array.iter
    (fun c ->
      if c < 0.0 then fail "negative coefficient from NNLS")
    fit.Core.Characterize.model.Core.Template.coefficients;
  check Alcotest.int "one sample per program" 11
    (List.length fit.Core.Characterize.samples)

let test_characterize_requires_samples () =
  match Core.Characterize.fit_samples [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty sample list accepted"

let test_estimate_consistency () =
  (* Applying the model to a profile must equal the dot product. *)
  let fit = Core.Characterize.run (small_suite ()) in
  let model = fit.Core.Characterize.model in
  let c = List.hd (small_suite ()) in
  let prof = Core.Extract.profile c in
  let est = Core.Estimate.of_profile model prof in
  check (Alcotest.float 1e-6) "estimate = template energy"
    (Core.Template.energy model prof.Core.Extract.variables)
    est.Core.Estimate.energy_pj;
  check (Alcotest.float 1e-9) "uj conversion"
    (est.Core.Estimate.energy_pj /. 1.0e6)
    est.Core.Estimate.energy_uj

let test_evaluate_table () =
  let fit = Core.Characterize.run (small_suite ()) in
  let table =
    Core.Evaluate.compare_cases fit.Core.Characterize.model (small_suite ())
  in
  check Alcotest.int "row per case" 11 (List.length table.Core.Evaluate.rows);
  check Alcotest.bool "self-evaluation errors small" true
    (table.Core.Evaluate.max_abs_error < 15.0);
  check Alcotest.bool "correlation strong" true
    (Core.Evaluate.correlation table > 0.99)

let test_cross_validation () =
  let samples = Core.Characterize.collect (small_suite ()) in
  let errs = Core.Characterize.cross_validate samples in
  check Alcotest.int "one error per sample" (List.length samples)
    (Array.length errs);
  (* The small suite is redundant enough that held-out prediction works:
     every fold is determined and finite. *)
  check Alcotest.bool "finite errors" true
    (Array.for_all
       (function Some e -> Float.is_finite e | None -> false)
       errs)

(* Folds whose training set is underdetermined must be skipped, not
   abort the whole validation.  Build three synthetic samples where s0
   exercises variable 0; s1 variables 0,1; s2 variables 0,1,2: dropping
   s0 or s1 leaves 2 samples for 3 exercised variables (None), dropping
   s2 leaves 2 samples for 2 variables (Some). *)
let test_cross_validation_skips_underdetermined () =
  let mk name vars energy =
    let variables = Array.make Core.Variables.count 0.0 in
    List.iter (fun (j, v) -> variables.(j) <- v) vars;
    { Core.Characterize.sname = name; variables; measured_pj = energy;
      cycles = 1 }
  in
  let samples =
    [ mk "s0" [ (0, 2.0) ] 4.0;
      mk "s1" [ (0, 1.0); (1, 3.0) ] 11.0;
      mk "s2" [ (0, 1.0); (1, 1.0); (2, 5.0) ] 20.0 ]
  in
  let errs = Core.Characterize.cross_validate samples in
  check Alcotest.int "one slot per sample" 3 (Array.length errs);
  check Alcotest.bool "fold without s0 underdetermined" true
    (errs.(0) = None);
  check Alcotest.bool "fold without s1 underdetermined" true
    (errs.(1) = None);
  (match errs.(2) with
   | Some e -> check Alcotest.bool "determined fold finite" true
                 (Float.is_finite e)
   | None -> fail "determined fold reported as skipped")

(* The single-pass engine (estimator observing the extraction run) must
   reproduce a separate profiling run plus a separate reference run
   exactly: same samples, and fitted coefficients equal to within 1e-6
   relative. *)
let test_single_pass_matches_two_pass () =
  let suite = small_suite () in
  let one = Core.Characterize.collect ~jobs:1 suite in
  let two =
    List.map
      (fun (c : Core.Extract.case) ->
        let prof = Core.Extract.profile c in
        let energy, _cpu =
          Power.Estimator.estimate_program ?extension:c.Core.Extract.extension
            c.Core.Extract.asm
        in
        { Core.Characterize.sname = c.Core.Extract.case_name;
          variables = prof.Core.Extract.variables;
          measured_pj = energy;
          cycles = prof.Core.Extract.cycles })
      suite
  in
  List.iter2
    (fun (a : Core.Characterize.sample) (b : Core.Characterize.sample) ->
      check Alcotest.string "sample name" b.sname a.sname;
      check Alcotest.int "cycles" b.cycles a.cycles;
      check (Alcotest.float 1e-12) "measured energy" b.measured_pj
        a.measured_pj;
      Array.iteri
        (fun j v ->
          check (Alcotest.float 1e-12)
            (Printf.sprintf "%s var %d" a.sname j)
            b.variables.(j) v)
        a.variables)
    one two;
  let c1 =
    (Core.Characterize.fit_samples one).Core.Characterize.model
      .Core.Template.coefficients
  and c2 =
    (Core.Characterize.fit_samples two).Core.Characterize.model
      .Core.Template.coefficients
  in
  Array.iteri
    (fun j a ->
      let b = c2.(j) in
      let scale = Float.max (Float.abs a) (Float.abs b) in
      if scale > 0.0 && Float.abs (a -. b) /. scale > 1e-6 then
        fail
          (Printf.sprintf "coefficient %d differs: %.9g vs %.9g" j a b))
    c1

let test_run_report_single_pass () =
  let suite = small_suite () in
  let samples, report =
    Core.Characterize.collect_with_report ~jobs:1 suite
  in
  check Alcotest.int "entry per workload" (List.length suite)
    (List.length report.Core.Run_report.entries);
  check Alcotest.int "exactly one simulation per test program"
    (List.length suite)
    (Core.Run_report.total_simulations report);
  List.iter2
    (fun (s : Core.Characterize.sample) (e : Core.Run_report.entry) ->
      check Alcotest.string "report order matches samples" s.sname
        e.Core.Run_report.ename;
      check Alcotest.int "cycles agree" s.cycles e.Core.Run_report.cycles;
      check (Alcotest.float 1e-12) "energy agrees" s.measured_pj
        e.Core.Run_report.energy_pj;
      check Alcotest.int "single pass" 1 e.Core.Run_report.simulations)
    samples report.Core.Run_report.entries;
  (* JSON serialization stays parseable in spirit: it mentions every
     workload and the simulation count. *)
  let json = Core.Run_report.to_json report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "json lists total_simulations" true
    (contains json
       (Printf.sprintf "\"total_simulations\": %d" (List.length suite)))

(* The JSON emitter formats floats with six decimals, so a parse of its
   own output must reproduce the report to that precision — including
   the degraded-path counters and the new stall/interlock columns. *)
let test_run_report_json_round_trip () =
  let _, report =
    Core.Characterize.collect_with_report ~jobs:1 (small_suite ())
  in
  let report =
    { report with
      Core.Run_report.parallel =
        { Core.Run_report.serial_fallbacks = 1;
          failed_forks = 2;
          recomputed_slices = 3 } }
  in
  let back = Core.Run_report.of_json (Core.Run_report.to_json report) in
  check Alcotest.int "jobs" report.Core.Run_report.jobs
    back.Core.Run_report.jobs;
  check (Alcotest.float 1e-5) "total_seconds"
    report.Core.Run_report.total_seconds back.Core.Run_report.total_seconds;
  check Alcotest.bool "degraded counters" true
    (back.Core.Run_report.parallel = report.Core.Run_report.parallel);
  check (Alcotest.float 1e-5) "total energy"
    (Core.Run_report.total_energy_pj report)
    (Core.Run_report.total_energy_pj back);
  check Alcotest.int "entry count"
    (List.length report.Core.Run_report.entries)
    (List.length back.Core.Run_report.entries);
  List.iter2
    (fun (a : Core.Run_report.entry) (b : Core.Run_report.entry) ->
      check Alcotest.string "name" a.ename b.ename;
      check (Alcotest.float 1e-5) (a.ename ^ " wall") a.wall_seconds
        b.wall_seconds;
      check Alcotest.int (a.ename ^ " cycles") a.cycles b.cycles;
      check Alcotest.int (a.ename ^ " instructions") a.instructions
        b.instructions;
      check Alcotest.int (a.ename ^ " icache") a.icache_misses b.icache_misses;
      check Alcotest.int (a.ename ^ " dcache") a.dcache_misses b.dcache_misses;
      check Alcotest.int (a.ename ^ " stalls") a.stall_cycles b.stall_cycles;
      check Alcotest.int (a.ename ^ " interlocks") a.interlocks b.interlocks;
      check (Alcotest.float 1e-5) (a.ename ^ " energy") a.energy_pj
        b.energy_pj;
      check Alcotest.int (a.ename ^ " sims") a.simulations b.simulations)
    report.Core.Run_report.entries back.Core.Run_report.entries

(* Entries must actually carry the stall/interlock counts measured by the
   simulation, not zeros: the interlock case from the small suite has a
   load-use dependency every iteration. *)
let test_run_report_stall_columns () =
  let _, report =
    Core.Characterize.collect_with_report ~jobs:1 (small_suite ())
  in
  check Alcotest.bool "some workload stalls" true
    (List.exists
       (fun (e : Core.Run_report.entry) ->
         e.stall_cycles > 0 && e.interlocks > 0)
       report.Core.Run_report.entries)

(* --- Parallel map ----------------------------------------------------------- *)

let test_parallel_map_order () =
  let xs = List.init 23 (fun i -> i) in
  let f i = i * i in
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "jobs=%d preserves order" jobs)
        (List.map f xs)
        (Core.Parallel.map ~jobs f xs))
    [ 1; 2; 3; 7 ]

let test_parallel_map_exception () =
  match
    Core.Parallel.map ~jobs:2
      (fun i -> if i = 5 then failwith "boom" else i)
      (List.init 8 Fun.id)
  with
  | _ -> fail "exception swallowed by worker pool"
  | exception Failure msg ->
    check Alcotest.string "original exception re-raised in parent" "boom" msg

let test_parallel_happy_path_stats () =
  let res, stats =
    Core.Parallel.map_with_stats ~jobs:3 (fun i -> i + 1) (List.init 9 Fun.id)
  in
  check (Alcotest.list Alcotest.int) "results" (List.init 9 (fun i -> i + 1))
    res;
  check Alcotest.bool "workers spawned" true
    (stats.Core.Parallel.workers_spawned > 0);
  check Alcotest.int "no recomputation" 0 stats.Core.Parallel.recomputed_items;
  check Alcotest.bool "no serial fallback" false
    stats.Core.Parallel.serial_fallback;
  (* jobs <= 1 is a deliberate serial path, not a degraded one. *)
  let _, serial =
    Core.Parallel.map_with_stats ~jobs:1 (fun i -> i) (List.init 4 Fun.id)
  in
  check Alcotest.bool "serial by request is not a fallback" true
    (serial = Core.Parallel.no_stats)

(* Workers that die mid-slice must be recomputed in the parent — results
   stay correct and the degradation is reported, not silent. *)
let test_parallel_recomputes_dead_workers () =
  let parent = Unix.getpid () in
  let xs = List.init 9 Fun.id in
  let res, stats =
    Core.Parallel.map_with_stats ~jobs:3
      (fun i -> if Unix.getpid () <> parent then Unix._exit 1 else i * 2)
      xs
  in
  check (Alcotest.list Alcotest.int) "results recomputed correctly"
    (List.map (fun i -> i * 2) xs)
    res;
  check Alcotest.bool "spawned workers" true
    (stats.Core.Parallel.workers_spawned > 0);
  check Alcotest.int "every spawned slice recomputed"
    stats.Core.Parallel.workers_spawned
    stats.Core.Parallel.recomputed_slices;
  (* Dead slices plus any uncovered-by-failed-fork items: with every
     worker dying, that is the whole input. *)
  check Alcotest.int "every item recomputed in the parent" (List.length xs)
    stats.Core.Parallel.recomputed_items

(* --- Attribution ------------------------------------------------------------- *)

(* The macro-model is linear, so the per-variable decomposition and the
   cycle-bucketed waveform must each close over the workload's total
   model energy (1e-6 relative), and the total must agree with the
   estimate pipeline. *)
let test_attribution_sums_to_total () =
  let suite = small_suite () in
  let fit = Core.Characterize.run suite in
  let model = fit.Core.Characterize.model in
  List.iter
    (fun c ->
      let b = Core.Attribution.run ~bucket_cycles:32 model c in
      check Alcotest.bool
        (b.Core.Attribution.workload ^ " rows sum to total") true
        (Core.Attribution.check_sum b < 1e-6);
      let wf_total = Obs.Waveform.total_pj b.Core.Attribution.waveform in
      let scale = Float.max (Float.abs b.Core.Attribution.total_pj) 1.0 in
      check Alcotest.bool
        (b.Core.Attribution.workload ^ " waveform sums to total") true
        (Float.abs (wf_total -. b.Core.Attribution.total_pj) /. scale < 1e-6);
      let est =
        Core.Estimate.of_profile model (Core.Extract.profile c)
      in
      check Alcotest.bool
        (b.Core.Attribution.workload ^ " matches estimate pipeline") true
        (Float.abs (est.Core.Estimate.energy_pj -. b.Core.Attribution.total_pj)
         /. scale
         < 1e-6);
      check Alcotest.int "21 rows" Core.Variables.count
        (List.length b.Core.Attribution.rows))
    [ List.hd suite; List.nth suite 4 ]

let test_attribution_shares () =
  let fit = Core.Characterize.run (small_suite ()) in
  let b =
    Core.Attribution.run fit.Core.Characterize.model
      (List.hd (small_suite ()))
  in
  let share_sum =
    List.fold_left (fun acc r -> acc +. r.Core.Attribution.share) 0.0
      b.Core.Attribution.rows
  in
  check (Alcotest.float 1e-6) "shares sum to 1" 1.0 share_sum;
  (* Rows are sorted by descending contribution. *)
  let rec sorted = function
    | (a : Core.Attribution.row) :: (b' : Core.Attribution.row) :: tl ->
      a.energy_pj >= b'.energy_pj && sorted (b' :: tl)
    | _ -> true
  in
  check Alcotest.bool "rows descending" true (sorted b.Core.Attribution.rows)

(* --- Profiler ----------------------------------------------------------------- *)

(* Conservation is the profiler's oracle: over all ten applications the
   per-block cycles must sum to the run's cycle count exactly, and the
   per-block energies to the macro-model estimate within 1e-6 relative.
   The folded stacks, the per-slot profile and the per-opcode histogram
   are alternative partitions of the same run, so they must close over
   the same totals. *)
let test_profiler_conservation () =
  let fit = Core.Characterize.run (Workloads.Suite.characterization ()) in
  let model = fit.Core.Characterize.model in
  let apps = Workloads.Suite.applications () in
  check Alcotest.int "ten applications" 10 (List.length apps);
  List.iter
    (fun (c : Core.Extract.case) ->
      let r = Core.Profiler.run model c in
      let name what = r.Core.Profiler.r_workload ^ " " ^ what in
      let cyc_gap, en_gap = Core.Profiler.check r in
      check (Alcotest.float 0.0) (name "block cycles sum exactly") 0.0 cyc_gap;
      check Alcotest.bool (name "block energy sums to total") true
        (en_gap < 1e-6);
      let scale = Float.max (Float.abs r.Core.Profiler.r_total_pj) 1.0 in
      (* The run totals agree with the extraction pipeline's run report. *)
      let p = Core.Extract.profile c in
      check Alcotest.int (name "cycles match extraction")
        p.Core.Extract.cycles r.Core.Profiler.r_cycles;
      check Alcotest.int (name "instructions match extraction")
        p.Core.Extract.instructions r.Core.Profiler.r_instructions;
      let est = Core.Estimate.of_profile model p in
      check Alcotest.bool (name "energy matches estimate pipeline") true
        (Float.abs (est.Core.Estimate.energy_pj -. r.Core.Profiler.r_total_pj)
         /. scale
         < 1e-6);
      (* Folded stacks close over the same totals. *)
      let fc =
        List.fold_left (fun a (_, cyc, _) -> a + cyc) 0
          r.Core.Profiler.r_folded
      in
      let fe =
        List.fold_left (fun a (_, _, e) -> a +. e) 0.0
          r.Core.Profiler.r_folded
      in
      check Alcotest.int (name "folded cycles") r.Core.Profiler.r_cycles fc;
      check Alcotest.bool (name "folded energy") true
        (Float.abs (fe -. r.Core.Profiler.r_total_pj) /. scale < 1e-6);
      (* Per-opcode histogram closes. *)
      let oc =
        List.fold_left
          (fun a (o : Core.Profiler.opcode_row) -> a + o.op_cycles)
          0 r.Core.Profiler.r_opcodes
      in
      let oh =
        List.fold_left
          (fun a (o : Core.Profiler.opcode_row) -> a + o.op_hits)
          0 r.Core.Profiler.r_opcodes
      in
      check Alcotest.int (name "opcode cycles") r.Core.Profiler.r_cycles oc;
      check Alcotest.int (name "opcode hits") r.Core.Profiler.r_instructions
        oh;
      (* Per-slot (annotation) profile closes. *)
      let st = Obs.Profile.totals r.Core.Profiler.r_slots in
      check Alcotest.int (name "slot cycles") r.Core.Profiler.r_cycles
        st.Obs.Profile.cycles;
      check Alcotest.int (name "slot hits") r.Core.Profiler.r_instructions
        st.Obs.Profile.hits;
      check Alcotest.bool (name "slot energy") true
        (Float.abs (st.Obs.Profile.energy_pj -. r.Core.Profiler.r_total_pj)
         /. scale
         < 1e-6))
    apps

(* Blocks partition the code section in program order, and the per-block
   entry/retirement counters respect the static shape. *)
let test_profiler_block_invariants () =
  let fit = Core.Characterize.run (small_suite ()) in
  let model = fit.Core.Characterize.model in
  let c = Workloads.Suite.find "rs_gfmac" in
  let r = Core.Profiler.run model c in
  let code = r.Core.Profiler.r_asm.Isa.Program.code in
  let blocks = r.Core.Profiler.r_blocks in
  let slot_sum =
    Array.fold_left (fun a b -> a + b.Core.Profiler.b_slots) 0 blocks
  in
  check Alcotest.int "blocks cover every slot" (Array.length code) slot_sum;
  Array.iteri
    (fun i (b : Core.Profiler.block) ->
      check Alcotest.int "indices in program order" i b.Core.Profiler.b_index;
      if i > 0 then
        check Alcotest.int "contiguous partition"
          (blocks.(i - 1).Core.Profiler.b_last
          + Isa.Encoding.bytes_per_instr)
          b.Core.Profiler.b_addr;
      check Alcotest.bool "retired at least entries" true
        (b.Core.Profiler.b_retired >= b.Core.Profiler.b_entries))
    blocks;
  (* The hot list is the executed blocks in descending cycle order. *)
  let hot = r.Core.Profiler.r_hot in
  check Alcotest.bool "something executed" true (Array.length hot > 0);
  Array.iteri
    (fun i (b : Core.Profiler.block) ->
      check Alcotest.bool "hot blocks executed" true
        (b.Core.Profiler.b_retired > 0);
      if i > 0 then
        check Alcotest.bool "hot descending" true
          (hot.(i - 1).Core.Profiler.b_cycles >= b.Core.Profiler.b_cycles))
    hot;
  (* Renderers don't raise and carry the headline numbers. *)
  let table = Format.asprintf "%a" (Core.Profiler.pp_table ~top:5) r in
  check Alcotest.bool "table names the workload" true
    (contains table "rs_gfmac");
  let ann = Format.asprintf "%a" Core.Profiler.pp_annotate r in
  check Alcotest.bool "annotation mentions main" true (contains ann "main:");
  let ops = Format.asprintf "%a" Core.Profiler.pp_opcodes r in
  check Alcotest.bool "opcode table rendered" true (contains ops "opcode");
  let json = Obs.Json.parse (Core.Profiler.to_json r) in
  check Alcotest.int "json cycles" r.Core.Profiler.r_cycles
    Obs.Json.(to_int (member "cycles" json));
  let bsum =
    List.fold_left
      (fun a b -> a +. Obs.Json.(to_float (member "energy_pj" b)))
      0.0
      Obs.Json.(to_list (member "blocks" json))
  in
  check Alcotest.bool "json blocks close over the total" true
    (Float.abs (bsum -. r.Core.Profiler.r_total_pj)
     /. Float.max r.Core.Profiler.r_total_pj 1.0
     < 1e-5);
  (* Folded lines parse as "stack count" with the root frame first. *)
  let folded = Core.Profiler.folded_lines r in
  check Alcotest.bool "folded non-empty" true (String.length folded > 0);
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         check Alcotest.bool "folded rooted at the workload" true
           (String.length l > 8 && String.sub l 0 8 = "rs_gfmac"))

(* A detached profiler is free: attaching one as an extra observer must
   not perturb the extracted variables or the estimate bit-for-bit. *)
let test_profiler_detached_identity () =
  let fit = Core.Characterize.run (small_suite ()) in
  let model = fit.Core.Characterize.model in
  let c = Workloads.Suite.find "rs_soft" in
  let p0 = Core.Extract.profile c in
  let eng =
    Core.Profiler.create ~config:Sim.Config.default model c
  in
  let p1 =
    Core.Extract.profile ~observers:[ Core.Profiler.observer eng ] c
  in
  check Alcotest.int "cycles identical" p0.Core.Extract.cycles
    p1.Core.Extract.cycles;
  check Alcotest.int "instructions identical" p0.Core.Extract.instructions
    p1.Core.Extract.instructions;
  Array.iteri
    (fun i v ->
      check Alcotest.bool (Printf.sprintf "variable %d bit-identical" i) true
        (Int64.bits_of_float v
        = Int64.bits_of_float p1.Core.Extract.variables.(i)))
    p0.Core.Extract.variables;
  let e0 = Core.Estimate.of_profile model p0 in
  let e1 = Core.Estimate.of_profile model p1 in
  check Alcotest.bool "estimate bit-identical" true
    (Int64.bits_of_float e0.Core.Estimate.energy_pj
    = Int64.bits_of_float e1.Core.Estimate.energy_pj)

(* --- Observer-stream consistency --------------------------------------------- *)

(* Satellite: for every characterization workload, the aggregate counters
   in [Sim.Stats] must equal a fold over the raw [Sim.Event] stream — the
   two consumers of the observer interface cannot drift apart. *)
let test_observer_stream_consistency () =
  let config = Sim.Config.default in
  List.iter
    (fun (c : Core.Extract.case) ->
      let live = Sim.Stats.create config in
      let events = ref [] in
      let collect e = events := e :: !events in
      let _ =
        Sim.Backend.run_program ~config ?extension:c.Core.Extract.extension
          ~observers:[ Sim.Stats.observer live; collect ]
          c.Core.Extract.asm
      in
      let events = List.rev !events in
      (* Fold the raw stream into a fresh accumulator. *)
      let replay = Sim.Stats.create config in
      List.iter (Sim.Stats.observe replay) events;
      let name what = c.Core.Extract.case_name ^ " " ^ what in
      check Alcotest.int (name "instructions") live.Sim.Stats.instructions
        replay.Sim.Stats.instructions;
      check Alcotest.int (name "total_cycles") live.Sim.Stats.total_cycles
        replay.Sim.Stats.total_cycles;
      check Alcotest.int (name "arith") live.Sim.Stats.arith_cycles
        replay.Sim.Stats.arith_cycles;
      check Alcotest.int (name "load") live.Sim.Stats.load_cycles
        replay.Sim.Stats.load_cycles;
      check Alcotest.int (name "store") live.Sim.Stats.store_cycles
        replay.Sim.Stats.store_cycles;
      check Alcotest.int (name "jump") live.Sim.Stats.jump_cycles
        replay.Sim.Stats.jump_cycles;
      check Alcotest.int (name "btaken") live.Sim.Stats.branch_taken_cycles
        replay.Sim.Stats.branch_taken_cycles;
      check Alcotest.int (name "buntaken")
        live.Sim.Stats.branch_untaken_cycles
        replay.Sim.Stats.branch_untaken_cycles;
      check Alcotest.int (name "icache") live.Sim.Stats.icache_misses
        replay.Sim.Stats.icache_misses;
      check Alcotest.int (name "dcache") live.Sim.Stats.dcache_misses
        replay.Sim.Stats.dcache_misses;
      check Alcotest.int (name "uncached") live.Sim.Stats.uncached_fetches
        replay.Sim.Stats.uncached_fetches;
      check Alcotest.int (name "interlocks") live.Sim.Stats.interlocks
        replay.Sim.Stats.interlocks;
      check Alcotest.int (name "stalls") live.Sim.Stats.stall_cycles
        replay.Sim.Stats.stall_cycles;
      check Alcotest.int (name "custom") live.Sim.Stats.custom_cycles
        replay.Sim.Stats.custom_cycles;
      check Alcotest.int (name "custom regfile")
        live.Sim.Stats.custom_regfile_cycles
        replay.Sim.Stats.custom_regfile_cycles;
      (* Independent checks straight off the raw stream: one event per
         instruction, cycles and cache misses reconstructible from the
         event fields alone. *)
      check Alcotest.int (name "one event per instruction")
        live.Sim.Stats.instructions (List.length events);
      check Alcotest.int (name "cycles = sum of event cycles")
        live.Sim.Stats.total_cycles
        (List.fold_left (fun acc e -> acc + e.Sim.Event.cycles) 0 events);
      check Alcotest.int (name "icache misses from fetch fields")
        live.Sim.Stats.icache_misses
        (List.length
           (List.filter
              (fun e ->
                (not e.Sim.Event.fetch.Sim.Event.funcached)
                && not e.Sim.Event.fetch.Sim.Event.fhit)
              events));
      check Alcotest.int (name "stalls from event fields")
        live.Sim.Stats.stall_cycles
        (List.fold_left
           (fun acc e -> acc + e.Sim.Event.stall_cycles)
           0 events))
    (Workloads.Suite.characterization ())

let test_timing_measures_both_paths () =
  let fit = Core.Characterize.run (small_suite ()) in
  let t =
    Core.Evaluate.time_case ~repeats:1 fit.Core.Characterize.model
      (List.hd (small_suite ()))
  in
  check Alcotest.bool "macro path measured" true
    (t.Core.Evaluate.macro_seconds >= 0.0);
  check Alcotest.bool "reference slower than macro" true
    (t.Core.Evaluate.reference_seconds > t.Core.Evaluate.macro_seconds)

(* --- Candidate spaces ------------------------------------------------------ *)

let test_space_combinators () =
  let choice = Tie.Space.axis "x" [ ("a", 1); ("b", 2) ] in
  let w = Tie.Space.widths ~prefix:"w" [ 8; 16 ] in
  let p = Tie.Space.map2 (fun x w -> x * w) choice w in
  check Alcotest.int "product size" 4 (Tie.Space.size p);
  check
    Alcotest.(list (pair string int))
    "row-major labelled enumeration"
    [ ("a/w8", 8); ("a/w16", 16); ("b/w8", 16); ("b/w16", 32) ]
    (Tie.Space.enumerate_labelled p);
  check
    Alcotest.(list string)
    "axes" [ "x"; "width" ] (Tie.Space.axes p);
  check Alcotest.string "describe" "x(2) x width(2) = 4 candidates"
    (Tie.Space.describe p);
  (match Tie.Space.axis "dup" [ ("k", 1); ("k", 2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "duplicate labels accepted");
  match Tie.Space.axis "empty" [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty axis accepted"

(* --- Evaluation cache ------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_cache_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xenergy-test-cache.%d.%d" (Unix.getpid ()) !dir_counter)

let small_config = Sim.Config.default

let smaller_icache =
  { Sim.Config.default with
    Sim.Config.icache =
      { Sim.Config.default_cache with Sim.Config.size_bytes = 2048 } }

let test_cache_key_sensitivity () =
  let case = List.hd (small_suite ()) in
  let other = List.nth (small_suite ()) 1 in
  let k = Core.Eval_cache.key ~config:small_config case in
  check Alcotest.string "key is deterministic" k
    (Core.Eval_cache.key ~config:small_config case);
  let distinct what k' =
    check Alcotest.bool (what ^ " changes the key") true (k <> k')
  in
  distinct "program" (Core.Eval_cache.key ~config:small_config other);
  distinct "configuration"
    (Core.Eval_cache.key ~config:smaller_icache case);
  distinct "reference flag"
    (Core.Eval_cache.key ~with_reference:true ~config:small_config case);
  distinct "complexity tag"
    (Core.Eval_cache.key ~complexity_tag:"quadratic" ~config:small_config
       case);
  (* A cached vector computed on one backend must never answer for
     another: backends are bit-identical by contract, but keying them
     apart means a cache hit can never mask a divergence. *)
  distinct "backend"
    (Core.Eval_cache.key ~backend:"interp" ~config:small_config case);
  check Alcotest.string "explicit threaded equals the process default" k
    (Core.Eval_cache.key ~backend:"threaded" ~config:small_config case);
  Sim.Backend.with_current Sim.Backend.Interp (fun () ->
      distinct "process-default backend"
        (Core.Eval_cache.key ~config:small_config case);
      check Alcotest.string "explicit backend overrides the default" k
        (Core.Eval_cache.key ~backend:"threaded" ~config:small_config case))

let gnarly_entry =
  { Core.Eval_cache.e_name = "gnarly \"name\"\twith\nescapes";
    e_variables =
      Array.init Core.Variables.count (fun i ->
          match i with
          | 0 -> 1.0 /. 3.0
          | 1 -> sqrt 2.0
          | 2 -> 1e-300
          | 3 -> 0.1
          | 4 -> 123456789.123456789
          | n -> float_of_int n *. 0.7);
    e_cycles = 4242;
    e_instructions = 1234;
    e_stall_cycles = 17;
    e_measured_pj = Some (98765.432109876543 /. 3.0) }

let test_cache_disk_round_trip () =
  let dir = fresh_cache_dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~with_reference:true ~config:small_config case in
  let c1 = Core.Eval_cache.create ~dir () in
  Core.Eval_cache.store c1 key gnarly_entry;
  (* A different instance must load it back from disk, bit-identically. *)
  let c2 = Core.Eval_cache.create ~dir () in
  (match Core.Eval_cache.find c2 key with
  | None -> fail "stored entry not found by a fresh instance"
  | Some e ->
    check Alcotest.string "name" gnarly_entry.Core.Eval_cache.e_name
      e.Core.Eval_cache.e_name;
    check Alcotest.bool "variables bit-identical" true
      (e.Core.Eval_cache.e_variables
      = gnarly_entry.Core.Eval_cache.e_variables);
    check Alcotest.bool "measured energy bit-identical" true
      (e.Core.Eval_cache.e_measured_pj
      = gnarly_entry.Core.Eval_cache.e_measured_pj);
    check Alcotest.int "cycles" 4242 e.Core.Eval_cache.e_cycles);
  let s = Core.Eval_cache.stats c2 in
  check Alcotest.int "one hit" 1 s.Core.Eval_cache.hits;
  check Alcotest.int "no errors" 0 s.Core.Eval_cache.errors;
  (* Unknown keys miss without error. *)
  (match Core.Eval_cache.find c2 "0000feed" with
  | None -> ()
  | Some _ -> fail "phantom entry");
  check Alcotest.int "one miss" 1
    (Core.Eval_cache.stats c2).Core.Eval_cache.misses

let test_cache_corruption_fallback () =
  let dir = fresh_cache_dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~config:small_config case in
  let c1 = Core.Eval_cache.create ~dir () in
  Core.Eval_cache.store c1 key gnarly_entry;
  let path = Filename.concat dir (key ^ ".json") in
  check Alcotest.bool "entry file exists" true (Sys.file_exists path);
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "{ this is not a cache entry");
  let c2 = Core.Eval_cache.create ~dir () in
  (match Core.Eval_cache.find c2 key with
  | None -> ()
  | Some _ -> fail "corrupted entry returned");
  let s = Core.Eval_cache.stats c2 in
  check Alcotest.int "corruption counted as error" 1
    s.Core.Eval_cache.errors;
  check Alcotest.int "corruption reads as miss" 1 s.Core.Eval_cache.misses;
  (* A fresh store repairs the damaged file. *)
  Core.Eval_cache.store c2 key gnarly_entry;
  match Core.Eval_cache.find (Core.Eval_cache.create ~dir ()) key with
  | Some _ -> ()
  | None -> fail "repaired entry not found"

let test_cache_unwritable_dir () =
  (* Point the cache at a path whose parent is a regular file: every
     disk write must fail, be counted, and never raise. *)
  let file = fresh_cache_dir () in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc "not a directory\n");
  let dir = Filename.concat file "sub" in
  let c = Core.Eval_cache.create ~dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~config:small_config case in
  Core.Eval_cache.store c key gnarly_entry;
  let s = Core.Eval_cache.stats c in
  check Alcotest.int "failed write counted" 1 s.Core.Eval_cache.errors;
  (* The in-memory layer still serves the entry. *)
  match Core.Eval_cache.find c key with
  | Some _ -> ()
  | None -> fail "memory layer lost the entry"

let test_cache_store_world_readable () =
  (* temp_file creates 0o600; publication must widen to 0o644 or a
     shared cache directory is unreadable to other users. *)
  let dir = fresh_cache_dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~config:small_config case in
  let c = Core.Eval_cache.create ~dir () in
  Core.Eval_cache.store c key gnarly_entry;
  let st = Unix.stat (Filename.concat dir (key ^ ".json")) in
  check Alcotest.int "entry published world-readable" 0o644
    (st.Unix.st_perm land 0o777)

let dir_files dir =
  match Sys.readdir dir with
  | fs -> Array.to_list fs |> List.sort compare
  | exception Sys_error _ -> []

let test_cache_nonfinite_fails_fast_at_store () =
  (* nan/inf have no JSON encoding; a stored entry holding one used to
     become a permanent parse error on every warm read.  The store must
     fail fast instead: error counted, no file, no leaked temp file,
     memory layer intact. *)
  let dir = fresh_cache_dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~config:small_config case in
  let poisoned =
    { gnarly_entry with
      Core.Eval_cache.e_variables =
        Array.mapi
          (fun i v -> if i = 3 then Float.nan else v)
          gnarly_entry.Core.Eval_cache.e_variables }
  in
  (match Core.Eval_cache.entry_to_json ~key poisoned with
  | exception Failure _ -> ()
  | _ -> fail "non-finite variable serialized");
  let c = Core.Eval_cache.create ~dir () in
  Core.Eval_cache.store c key poisoned;
  check Alcotest.int "non-finite store error-counted" 1
    (Core.Eval_cache.stats c).Core.Eval_cache.errors;
  check Alcotest.bool "no entry file written" false
    (Sys.file_exists (Filename.concat dir (key ^ ".json")));
  check Alcotest.bool "no temp file leaked" true
    (List.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (dir_files dir));
  (match Core.Eval_cache.find c key with
  | Some _ -> ()
  | None -> fail "memory layer lost the poisoned entry");
  (* Same guard for an infinite measured energy. *)
  let inf_measured =
    { gnarly_entry with Core.Eval_cache.e_measured_pj = Some Float.infinity }
  in
  Core.Eval_cache.store c (String.make 32 'e') inf_measured;
  check Alcotest.int "infinite measured_pj error-counted" 2
    (Core.Eval_cache.stats c).Core.Eval_cache.errors;
  (* A fresh instance sees a clean miss, not a parse error. *)
  let c2 = Core.Eval_cache.create ~dir () in
  (match Core.Eval_cache.find c2 key with
  | None -> ()
  | Some _ -> fail "phantom entry");
  check Alcotest.int "warm read is a clean miss" 0
    (Core.Eval_cache.stats c2).Core.Eval_cache.errors

(* Three distinct keys from the small suite, with an entry naming each. *)
let three_keyed_entries () =
  List.filteri (fun i _ -> i < 3) (small_suite ())
  |> List.map (fun case ->
         let k = Core.Eval_cache.key ~config:small_config case in
         (k, { gnarly_entry with Core.Eval_cache.e_name = "wl-" ^ k }))

let test_cache_index_written_and_rebuilt () =
  let dir = fresh_cache_dir () in
  let c = Core.Eval_cache.create ~dir () in
  let kes = three_keyed_entries () in
  List.iter (fun (k, e) -> Core.Eval_cache.store c k e) kes;
  Core.Eval_cache.flush c;
  let index_path = Filename.concat dir "index.json" in
  check Alcotest.bool "flush writes index.json" true
    (Sys.file_exists index_path);
  let s = Core.Eval_cache.disk_stats dir in
  check Alcotest.int "index counts the entries" 3
    s.Core.Eval_cache.d_entries;
  check Alcotest.bool "index not rebuilt when present" false
    s.Core.Eval_cache.d_index_rebuilt;
  check Alcotest.bool "bytes accounted" true (s.Core.Eval_cache.d_bytes > 0);
  (* Manual deletion of index.json: rebuilt from the files, never
     trusted over them. *)
  Sys.remove index_path;
  let s = Core.Eval_cache.disk_stats dir in
  check Alcotest.bool "missing index rebuilt" true
    s.Core.Eval_cache.d_index_rebuilt;
  check Alcotest.int "rebuilt index counts the entries" 3
    s.Core.Eval_cache.d_entries;
  (* A corrupt index is also rebuilt, not trusted. *)
  Out_channel.with_open_text index_path (fun oc ->
      Out_channel.output_string oc "{ not an index");
  let s = Core.Eval_cache.disk_stats dir in
  check Alcotest.bool "corrupt index rebuilt" true
    s.Core.Eval_cache.d_index_rebuilt;
  check Alcotest.int "entries survive index corruption" 3
    s.Core.Eval_cache.d_entries;
  (* A stale index (manual entry-file deletion behind its back) is
     reconciled against the files before any decision. *)
  let victim = fst (List.hd kes) in
  Sys.remove (Filename.concat dir (victim ^ ".json"));
  let s = Core.Eval_cache.disk_stats dir in
  check Alcotest.int "stale index reconciled to the files" 2
    s.Core.Eval_cache.d_entries

let test_cache_prune_lru () =
  let dir = fresh_cache_dir () in
  let c = Core.Eval_cache.create ~dir () in
  let kes = three_keyed_entries () in
  List.iter (fun (k, e) -> Core.Eval_cache.store c k e) kes;
  Core.Eval_cache.flush c;
  (* Pin deterministic last-used times: keys[0] oldest, keys[2] newest. *)
  let keys = List.map fst kes in
  let idx, rebuilt = Core.Cache_index.load_or_rebuild dir in
  check Alcotest.bool "index loads" false rebuilt;
  List.iteri
    (fun i k ->
      match Core.Cache_index.find idx k with
      | None -> fail "key missing from the index"
      | Some m ->
        Core.Cache_index.record idx
          { m with Core.Cache_index.m_last_used = 1000.0 +. float_of_int i })
    keys;
  Core.Cache_index.save dir idx;
  let policy =
    { Core.Eval_cache.unlimited with Core.Eval_cache.max_entries = Some 2 }
  in
  let r = Core.Eval_cache.prune ~now:2000.0 ~policy dir in
  check Alcotest.int "prune keeps exactly N" 2 r.Core.Eval_cache.p_kept;
  check Alcotest.int "prune evicts the rest" 1 r.Core.Eval_cache.p_evicted;
  let oldest = List.nth keys 0 in
  check Alcotest.bool "LRU victim deleted" false
    (Sys.file_exists (Filename.concat dir (oldest ^ ".json")));
  (* The retained entries still load bit-identically, with zero
     recomputation or error. *)
  let c2 = Core.Eval_cache.create ~dir () in
  List.iter
    (fun (k, e) ->
      if k <> oldest then
        match Core.Eval_cache.find c2 k with
        | None -> fail "retained entry lost"
        | Some got ->
          check Alcotest.bool "retained entry bit-identical" true
            (got.Core.Eval_cache.e_variables
            = e.Core.Eval_cache.e_variables))
    kes;
  check Alcotest.int "retained reads are error-free" 0
    (Core.Eval_cache.stats c2).Core.Eval_cache.errors;
  (* Age-based eviction through the same policy surface. *)
  let r =
    Core.Eval_cache.prune ~now:2000.0
      ~policy:{ Core.Eval_cache.unlimited with
                Core.Eval_cache.max_age_s = Some 998.5 }
      dir
  in
  check Alcotest.int "age bound evicts the stale entry" 1
    r.Core.Eval_cache.p_evicted;
  check Alcotest.int "age bound keeps the fresh entry" 1
    r.Core.Eval_cache.p_kept

let test_cache_verify_and_gc () =
  let dir = fresh_cache_dir () in
  let c = Core.Eval_cache.create ~dir () in
  let kes = three_keyed_entries () in
  List.iter (fun (k, e) -> Core.Eval_cache.store c k e) kes;
  Core.Eval_cache.flush c;
  (* Plant the failure modes: orphaned tmp files (a writer that died
     between temp_file and rename), a foreign file, and a corrupted
     entry. *)
  let plant f body =
    Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
        Out_channel.output_string oc body)
  in
  plant "cachedead1.tmp" "torn";
  plant "cachedead2.tmp" "torn";
  plant "stray.dat" "not ours";
  let corrupted = fst (List.hd kes) in
  plant (corrupted ^ ".json") "{ not an entry";
  let v = Core.Eval_cache.verify dir in
  check Alcotest.int "verify: ok entries" 2 v.Core.Eval_cache.v_ok;
  check Alcotest.int "verify: corrupt entries" 1
    (List.length v.Core.Eval_cache.v_corrupt);
  check Alcotest.(list string) "verify: tmp orphans"
    [ "cachedead1.tmp"; "cachedead2.tmp" ] v.Core.Eval_cache.v_tmp;
  check Alcotest.(list string) "verify: foreign files" [ "stray.dat" ]
    v.Core.Eval_cache.v_foreign;
  let g = Core.Eval_cache.gc dir in
  check Alcotest.int "gc removes the tmp orphans" 2
    g.Core.Eval_cache.g_tmp_removed;
  check Alcotest.int "gc removes the foreign file" 1
    g.Core.Eval_cache.g_foreign_removed;
  let files = dir_files dir in
  check Alcotest.bool "gc never deletes entries (even corrupt ones)" true
    (List.mem (corrupted ^ ".json") files);
  check Alcotest.bool "no tmp or foreign files survive gc" true
    (List.for_all
       (fun f ->
         f = "index.json" || Filename.check_suffix f ".json")
       files);
  (* The corrupted entry self-heals: error-counted miss, recompute
     (store), clean on the next read. *)
  let c2 = Core.Eval_cache.create ~dir () in
  (match Core.Eval_cache.find c2 corrupted with
  | None -> ()
  | Some _ -> fail "corrupt entry returned");
  Core.Eval_cache.store c2 corrupted (List.assoc corrupted kes);
  let v = Core.Eval_cache.verify dir in
  check Alcotest.int "store heals the corrupt entry" 3
    v.Core.Eval_cache.v_ok

let test_cache_concurrent_stores () =
  (* Two processes store the same key at once: atomic publication means
     a reader sees either entry in full, never a torn file, and no temp
     litter survives. *)
  let dir = fresh_cache_dir () in
  let case = List.hd (small_suite ()) in
  let key = Core.Eval_cache.key ~config:small_config case in
  let spawn () =
    match Unix.fork () with
    | 0 ->
      let c = Core.Eval_cache.create ~dir () in
      for _ = 1 to 25 do
        Core.Eval_cache.store c key gnarly_entry
      done;
      Core.Eval_cache.flush c;
      Stdlib.exit 0
    | pid -> pid
  in
  let pids = [ spawn (); spawn () ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "concurrent writer died")
    pids;
  let c = Core.Eval_cache.create ~dir () in
  (match Core.Eval_cache.find c key with
  | None -> fail "entry lost under concurrent stores"
  | Some e ->
    check Alcotest.bool "no torn read: variables intact" true
      (e.Core.Eval_cache.e_variables
      = gnarly_entry.Core.Eval_cache.e_variables));
  check Alcotest.int "no parse errors" 0
    (Core.Eval_cache.stats c).Core.Eval_cache.errors;
  check Alcotest.bool "no temp litter" true
    (List.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (dir_files dir));
  let v = Core.Eval_cache.verify dir in
  check Alcotest.int "single healthy entry" 1 v.Core.Eval_cache.v_ok;
  check Alcotest.int "nothing corrupt" 0
    (List.length v.Core.Eval_cache.v_corrupt)

(* --- Exploration ----------------------------------------------------------- *)

let mk_point name cycles pj =
  { Core.Explore.pt_name = name;
    pt_energy_pj = pj;
    pt_energy_uj = pj *. 1e-6;
    pt_cycles = cycles;
    pt_instructions = 0;
    pt_cached = false }

let point_names ps =
  List.map (fun (p : Core.Explore.point) -> p.Core.Explore.pt_name) ps

let test_pareto_invariants () =
  let pts =
    [ mk_point "slow_cheap" 100 10.0;
      mk_point "fast_costly" 10 100.0;
      mk_point "dominated" 100 20.0;
      mk_point "strictly_worse" 120 120.0;
      mk_point "tie_breaker" 10 100.0;
      mk_point "middle" 50 50.0 ]
  in
  let frontier = Core.Explore.pareto pts in
  check Alcotest.(list string) "frontier, sorted by cycles"
    [ "fast_costly"; "tie_breaker"; "middle"; "slow_cheap" ]
    (point_names frontier);
  let dominates (a : Core.Explore.point) (b : Core.Explore.point) =
    a.Core.Explore.pt_cycles <= b.Core.Explore.pt_cycles
    && a.Core.Explore.pt_energy_pj <= b.Core.Explore.pt_energy_pj
    && (a.Core.Explore.pt_cycles < b.Core.Explore.pt_cycles
       || a.Core.Explore.pt_energy_pj < b.Core.Explore.pt_energy_pj)
  in
  List.iter
    (fun f ->
      check Alcotest.bool
        (f.Core.Explore.pt_name ^ " is non-dominated")
        false
        (List.exists (fun p -> dominates p f) pts))
    frontier;
  List.iter
    (fun p ->
      if not (List.mem p.Core.Explore.pt_name (point_names frontier)) then
        check Alcotest.bool
          (p.Core.Explore.pt_name ^ " is dominated by some frontier point")
          true
          (List.exists (fun f -> dominates f p) frontier))
    pts;
  (* Input order must not matter. *)
  check Alcotest.(list string) "permutation-invariant"
    (point_names frontier)
    (point_names (Core.Explore.pareto (List.rev pts)))

let test_explore_validates_candidates () =
  (match Core.Explore.run ~characterization:(small_suite ()) [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty candidate list accepted");
  let c = Core.Explore.candidate (List.hd (small_suite ())) in
  match Core.Explore.run ~characterization:(small_suite ()) [ c; c ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "duplicate candidate names accepted"

let test_explore_warm_matches_cold () =
  let dir = fresh_cache_dir () in
  let characterization = small_suite () in
  let candidates =
    [ Core.Explore.candidate ~name:"base"
        (List.hd (Workloads.Suite.applications ()));
      Core.Explore.candidate ~name:"base_small" ~config:smaller_icache
        (List.hd (Workloads.Suite.applications ())) ]
  in
  let sweep () =
    Core.Explore.run ~jobs:2
      ~cache:(Core.Eval_cache.create ~dir ())
      ~characterization candidates
  in
  let cold = sweep () in
  let n_char = List.length characterization in
  check Alcotest.int "two configs characterized" 2
    cold.Core.Explore.configs_characterized;
  check Alcotest.int "cold simulation count"
    ((2 * n_char) + 2)
    cold.Core.Explore.simulations;
  check Alcotest.int "cold misses equal simulations"
    cold.Core.Explore.simulations
    cold.Core.Explore.cache_stats.Core.Eval_cache.misses;
  let warm = sweep () in
  check Alcotest.int "warm sweep simulates nothing" 0
    warm.Core.Explore.simulations;
  check Alcotest.int "warm hits"
    ((2 * n_char) + 2)
    warm.Core.Explore.cache_stats.Core.Eval_cache.hits;
  check Alcotest.bool "every warm point flagged cached" true
    (List.for_all
       (fun (p : Core.Explore.point) -> p.Core.Explore.pt_cached)
       warm.Core.Explore.points);
  List.iter2
    (fun (c : Core.Explore.point) (w : Core.Explore.point) ->
      check Alcotest.string "point order" c.Core.Explore.pt_name
        w.Core.Explore.pt_name;
      check Alcotest.bool
        (c.Core.Explore.pt_name ^ " energy bit-identical")
        true
        (c.Core.Explore.pt_energy_pj = w.Core.Explore.pt_energy_pj);
      check Alcotest.int
        (c.Core.Explore.pt_name ^ " cycles")
        c.Core.Explore.pt_cycles w.Core.Explore.pt_cycles)
    cold.Core.Explore.points warm.Core.Explore.points;
  check Alcotest.(list string) "frontier stable"
    (point_names cold.Core.Explore.frontier)
    (point_names warm.Core.Explore.frontier)

let test_explore_prune_retains_working_set () =
  (* The acceptance cycle: populate a cache from a two-config sweep,
     re-touch one config's working set with a warm sub-sweep, prune to
     exactly that set's size, and check the subsequent warm sub-sweep
     is bit-identical with zero recomputation. *)
  let dir = fresh_cache_dir () in
  let characterization = small_suite () in
  let base =
    Core.Explore.candidate ~name:"base"
      (List.hd (Workloads.Suite.applications ()))
  in
  let small =
    Core.Explore.candidate ~name:"base_small" ~config:smaller_icache
      (List.hd (Workloads.Suite.applications ()))
  in
  let sweep cands =
    Core.Explore.run
      ~cache:(Core.Eval_cache.create ~dir ())
      ~characterization cands
  in
  let cold = sweep [ base; small ] in
  let n_char = List.length characterization in
  let total = (2 * n_char) + 2 in
  check Alcotest.int "populated cache"
    total (Core.Eval_cache.disk_stats dir).Core.Eval_cache.d_entries;
  (* Touch base's working set (its characterization + its candidate),
     making it the most recently used. *)
  let touched = sweep [ base ] in
  check Alcotest.int "sub-sweep is already warm" 0
    touched.Core.Explore.simulations;
  let keep = n_char + 1 in
  let r =
    Core.Eval_cache.prune
      ~policy:{ Core.Eval_cache.unlimited with
                Core.Eval_cache.max_entries = Some keep }
      dir
  in
  check Alcotest.int "prune leaves exactly N entries" keep
    r.Core.Eval_cache.p_kept;
  check Alcotest.int "prune evicts the rest" (total - keep)
    r.Core.Eval_cache.p_evicted;
  check Alcotest.int "directory agrees with the report" keep
    (Core.Eval_cache.disk_stats dir).Core.Eval_cache.d_entries;
  let warm = sweep [ base ] in
  check Alcotest.int "warm sweep over the retained set recomputes nothing"
    0 warm.Core.Explore.simulations;
  let cold_base = List.hd cold.Core.Explore.points in
  let warm_base = List.hd warm.Core.Explore.points in
  check Alcotest.bool "retained point bit-identical" true
    (cold_base.Core.Explore.pt_energy_pj
     = warm_base.Core.Explore.pt_energy_pj
    && cold_base.Core.Explore.pt_cycles = warm_base.Core.Explore.pt_cycles);
  (* The evicted configuration recomputes (and only it). *)
  let resweep = sweep [ base; small ] in
  check Alcotest.int "only the evicted working set recomputes"
    (n_char + 1) resweep.Core.Explore.simulations;
  List.iter2
    (fun (c : Core.Explore.point) (w : Core.Explore.point) ->
      check Alcotest.bool (c.Core.Explore.pt_name ^ " stable") true
        (c.Core.Explore.pt_energy_pj = w.Core.Explore.pt_energy_pj))
    cold.Core.Explore.points resweep.Core.Explore.points

let test_explore_shares_config_characterization () =
  (* Two candidates on the same configuration: one characterization, and
     the duplicated program is simulated once. *)
  let case = List.hd (Workloads.Suite.applications ()) in
  let candidates =
    [ Core.Explore.candidate ~name:"first" case;
      Core.Explore.candidate ~name:"second" case ]
  in
  let characterization = small_suite () in
  let outcome = Core.Explore.run ~characterization candidates in
  check Alcotest.int "one config characterized" 1
    outcome.Core.Explore.configs_characterized;
  check Alcotest.int "duplicate program simulated once"
    (List.length characterization + 1)
    outcome.Core.Explore.simulations;
  match outcome.Core.Explore.points with
  | [ first; second ] ->
    check Alcotest.bool "second candidate reuses the simulation" true
      second.Core.Explore.pt_cached;
    check Alcotest.bool "identical candidates, identical energy" true
      (first.Core.Explore.pt_energy_pj
      = second.Core.Explore.pt_energy_pj)
  | _ -> fail "expected two points"

(* --- Observability riders --------------------------------------------------- *)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

(* Store-time size cap: the cache prunes itself back under --max-bytes
   as entries land, without an explicit prune call. *)
let test_cache_auto_cap_at_store () =
  with_metrics (fun () ->
      (* Measure one entry's on-disk footprint, then cap at two. *)
      let kes = three_keyed_entries () in
      let k0, e0 = List.hd kes in
      let probe_dir = fresh_cache_dir () in
      let probe = Core.Eval_cache.create ~dir:probe_dir () in
      Core.Eval_cache.store probe k0 e0;
      Core.Eval_cache.flush probe;
      let entry_bytes =
        (Unix.stat (Filename.concat probe_dir (k0 ^ ".json"))).Unix.st_size
      in
      let evictions =
        Obs.Metrics.counter "eval_cache_evictions_total"
      in
      let evicted_before = Obs.Metrics.counter_value evictions in
      let dir = fresh_cache_dir () in
      let cap = (2 * entry_bytes) + (entry_bytes / 2) in
      let c = Core.Eval_cache.create ~dir ~max_bytes:cap () in
      List.iter (fun (k, e) -> Core.Eval_cache.store c k e) kes;
      Core.Eval_cache.flush c;
      let entries () =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".json" && f <> "index.json")
      in
      check Alcotest.int "cap enforced at store time" 2
        (List.length (entries ()));
      check Alcotest.bool "eviction counted" true
        (Obs.Metrics.counter_value evictions > evicted_before);
      (* The survivors stay readable through a fresh handle. *)
      let c2 = Core.Eval_cache.create ~dir () in
      let live =
        List.filter
          (fun (k, _) -> Core.Eval_cache.find c2 k <> None)
          kes
      in
      check Alcotest.int "survivors load" 2 (List.length live);
      check Alcotest.int "no read errors" 0
        (Core.Eval_cache.stats c2).Core.Eval_cache.errors)

(* Progress heartbeats and frontier attribution ride the sweep. *)
let test_explore_progress_and_explain () =
  let dir = fresh_cache_dir () in
  let characterization = small_suite () in
  let candidates =
    [ Core.Explore.candidate ~name:"base"
        (List.hd (Workloads.Suite.applications ()));
      Core.Explore.candidate ~name:"base_small" ~config:smaller_icache
        (List.hd (Workloads.Suite.applications ())) ]
  in
  let beats = ref [] in
  let sweep () =
    Core.Explore.run ~jobs:2
      ~cache:(Core.Eval_cache.create ~dir ())
      ~characterization
      ~progress:(fun p -> beats := p :: !beats)
      ~explain:true candidates
  in
  let o = sweep () in
  let beats_l = List.rev !beats in
  check Alcotest.bool "heartbeats delivered" true (beats_l <> []);
  List.iter
    (fun (p : Core.Explore.progress) ->
      check Alcotest.bool "phase named" true
        (p.Core.Explore.pr_phase = "characterize"
        || p.Core.Explore.pr_phase = "evaluate");
      check Alcotest.bool "done within total" true
        (p.Core.Explore.pr_done >= 0
        && p.Core.Explore.pr_done <= p.Core.Explore.pr_total);
      check Alcotest.bool "elapsed non-negative" true
        (p.Core.Explore.pr_elapsed_s >= 0.0))
    beats_l;
  check Alcotest.bool "a final evaluate heartbeat covers every candidate"
    true
    (List.exists
       (fun (p : Core.Explore.progress) ->
         p.Core.Explore.pr_phase = "evaluate"
         && p.Core.Explore.pr_done = p.Core.Explore.pr_total
         && p.Core.Explore.pr_total = List.length candidates)
       beats_l);
  check Alcotest.int "one explanation per frontier point"
    (List.length o.Core.Explore.frontier)
    (List.length o.Core.Explore.explained);
  List.iter2
    (fun (pt : Core.Explore.point) (name, rows) ->
      check Alcotest.string "explained in frontier order"
        pt.Core.Explore.pt_name name;
      let total =
        List.fold_left
          (fun s (r : Core.Attribution.row) -> s +. r.Core.Attribution.energy_pj)
          0.0 rows
      in
      check Alcotest.bool "rows close over the point's model energy" true
        (Float.abs (total -. pt.Core.Explore.pt_energy_pj)
        <= 1e-6 *. Float.max 1.0 (Float.abs pt.Core.Explore.pt_energy_pj));
      let shares =
        List.fold_left
          (fun s (r : Core.Attribution.row) -> s +. r.Core.Attribution.share)
          0.0 rows
      in
      check (Alcotest.float 1e-6) "shares sum to one" 1.0 shares)
    o.Core.Explore.frontier o.Core.Explore.explained;
  (* Warm re-run: the attribution comes from cached vectors, so a full
     explanation costs zero simulations. *)
  let warm = sweep () in
  check Alcotest.int "warm explain simulates nothing" 0
    warm.Core.Explore.simulations;
  check Alcotest.int "warm explanation intact"
    (List.length warm.Core.Explore.frontier)
    (List.length warm.Core.Explore.explained)

(* profile_top profiles each frontier point: one observed simulation
   per point, conserving block sums, threaded into the JSON render. *)
let test_explore_profile_top () =
  let characterization = small_suite () in
  let candidates =
    [ Core.Explore.candidate ~name:"base"
        (List.hd (Workloads.Suite.applications ()));
      Core.Explore.candidate ~name:"base_small" ~config:smaller_icache
        (List.hd (Workloads.Suite.applications ())) ]
  in
  let cache = Core.Eval_cache.create () in
  let o =
    Core.Explore.run ~jobs:2 ~cache ~characterization ~profile_top:3
      candidates
  in
  check Alcotest.int "profile_top recorded" 3 o.Core.Explore.profile_top;
  check Alcotest.int "one profile per frontier point"
    (List.length o.Core.Explore.frontier)
    (List.length o.Core.Explore.profiled);
  (* Profiles need the observer attached, so each frontier point costs
     one simulation beyond the cached sweep. *)
  check Alcotest.int "profiling simulations accounted"
    ((2 * List.length characterization)
    + List.length candidates
    + List.length o.Core.Explore.frontier)
    o.Core.Explore.simulations;
  List.iter2
    (fun (pt : Core.Explore.point) (name, (r : Core.Profiler.report)) ->
      check Alcotest.string "profiled in frontier order"
        pt.Core.Explore.pt_name name;
      check Alcotest.int "profile cycles match the sweep point"
        pt.Core.Explore.pt_cycles r.Core.Profiler.r_cycles;
      check Alcotest.bool "profile energy matches the sweep point" true
        (Float.abs (r.Core.Profiler.r_total_pj -. pt.Core.Explore.pt_energy_pj)
        <= 1e-9 *. Float.max 1.0 (Float.abs pt.Core.Explore.pt_energy_pj));
      let cyc_gap, en_gap = Core.Profiler.check r in
      check (Alcotest.float 0.0) "frontier profile conserves cycles" 0.0
        cyc_gap;
      check Alcotest.bool "frontier profile conserves energy" true
        (en_gap < 1e-6))
    o.Core.Explore.frontier o.Core.Explore.profiled;
  let doc = Core.Explore.to_json o in
  check Alcotest.bool "sweep JSON carries the profiles" true
    (contains doc "\"profiles\"");
  (match Obs.Json.parse doc with
   | Obs.Json.Obj fields ->
     (match List.assoc_opt "profiles" fields with
      | Some (Obs.Json.Obj profiles) ->
        check Alcotest.int "every frontier point rendered"
          (List.length o.Core.Explore.profiled)
          (List.length profiles)
      | _ -> fail "profiles is not an object")
   | _ -> fail "sweep JSON does not parse");
  match
    Core.Explore.run ~cache ~characterization ~profile_top:0 candidates
  with
  | exception Invalid_argument _ -> ()
  | _ -> fail "non-positive profile_top accepted"

(* --- Audit ------------------------------------------------------------------ *)

(* A model deliberately scaled away from the fit, so the audited error
   is deterministic and non-zero. *)
let audit_model () =
  let fit = Core.Characterize.run (small_suite ()) in
  Core.Template.make
    (Array.map
       (fun c -> c *. 1.10)
       fit.Core.Characterize.model.Core.Template.coefficients)

let test_audit_report () =
  let model = audit_model () in
  let cases = List.filteri (fun i _ -> i < 3) (small_suite ()) in
  let dir = fresh_cache_dir () in
  let r =
    Core.Audit.run ~jobs:2
      ~cache:(Core.Eval_cache.create ~dir ())
      model cases
  in
  check Alcotest.int "one row per program" (List.length cases)
    (List.length r.Core.Audit.a_rows);
  List.iter2
    (fun (c : Core.Extract.case) (row : Core.Audit.row) ->
      check Alcotest.string "rows in input order" c.Core.Extract.case_name
        row.Core.Audit.a_name;
      check Alcotest.bool "reference measured" true
        (row.Core.Audit.a_reference_pj > 0.0);
      check Alcotest.bool "cold rows freshly simulated" false
        row.Core.Audit.a_cached;
      let expect =
        100.0
        *. (row.Core.Audit.a_estimate_pj -. row.Core.Audit.a_reference_pj)
        /. row.Core.Audit.a_reference_pj
      in
      check (Alcotest.float 1e-9) "error recomputes from the row" expect
        row.Core.Audit.a_error_percent)
    cases r.Core.Audit.a_rows;
  let mean =
    List.fold_left
      (fun s (row : Core.Audit.row) ->
        s +. Float.abs row.Core.Audit.a_error_percent)
      0.0 r.Core.Audit.a_rows
    /. float_of_int (List.length r.Core.Audit.a_rows)
  in
  check (Alcotest.float 1e-9) "mean closes over the rows" mean
    r.Core.Audit.a_mean_abs;
  check Alcotest.bool "scaled model shows real error" true
    (r.Core.Audit.a_mean_abs > 0.5);
  check Alcotest.bool "max bounds mean" true
    (r.Core.Audit.a_max_abs >= r.Core.Audit.a_mean_abs);
  (* Second run over the same cache: every row served from cache, same
     numbers bit-for-bit. *)
  let warm =
    Core.Audit.run ~jobs:2
      ~cache:(Core.Eval_cache.create ~dir ())
      model cases
  in
  check Alcotest.bool "warm rows all cached" true
    (List.for_all
       (fun (row : Core.Audit.row) -> row.Core.Audit.a_cached)
       warm.Core.Audit.a_rows);
  List.iter2
    (fun (a : Core.Audit.row) (b : Core.Audit.row) ->
      check Alcotest.bool
        (a.Core.Audit.a_name ^ " warm estimate bit-identical") true
        (a.Core.Audit.a_estimate_pj = b.Core.Audit.a_estimate_pj
        && a.Core.Audit.a_reference_pj = b.Core.Audit.a_reference_pj))
    r.Core.Audit.a_rows warm.Core.Audit.a_rows;
  match Core.Audit.run model [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty audit accepted"

let test_audit_json_round_trip () =
  let model = audit_model () in
  let cases = List.filteri (fun i _ -> i < 2) (small_suite ()) in
  let r = Core.Audit.run ~jobs:1 model cases in
  let r2 = Core.Audit.of_json (Core.Audit.to_json r) in
  check Alcotest.int "rows survive" (List.length r.Core.Audit.a_rows)
    (List.length r2.Core.Audit.a_rows);
  check (Alcotest.float 1e-5) "mean survives" r.Core.Audit.a_mean_abs
    r2.Core.Audit.a_mean_abs;
  check (Alcotest.float 1e-5) "max survives" r.Core.Audit.a_max_abs
    r2.Core.Audit.a_max_abs;
  List.iter2
    (fun (a : Core.Audit.row) (b : Core.Audit.row) ->
      check Alcotest.string "name survives" a.Core.Audit.a_name
        b.Core.Audit.a_name;
      check (Alcotest.float 1e-5) "error survives"
        a.Core.Audit.a_error_percent b.Core.Audit.a_error_percent;
      check Alcotest.int "cycles survive" a.Core.Audit.a_cycles
        b.Core.Audit.a_cycles;
      check Alcotest.bool "cached flag survives" a.Core.Audit.a_cached
        b.Core.Audit.a_cached)
    r.Core.Audit.a_rows r2.Core.Audit.a_rows;
  (match Core.Audit.of_json "{\"format\": \"something-else\"}" with
  | exception Failure _ -> ()
  | _ -> fail "foreign format accepted");
  match Core.Audit.of_json "not json at all" with
  | exception _ -> ()
  | _ -> fail "garbage accepted"

let test_audit_gate () =
  let model = audit_model () in
  let cases = List.filteri (fun i _ -> i < 2) (small_suite ()) in
  let r = Core.Audit.run ~jobs:1 model cases in
  (* Gating a report against itself passes at any tolerance >= 1. *)
  let self = Core.Audit.gate ~tolerance:1.0 ~baseline:r r in
  check Alcotest.bool "self gate passes" true self.Core.Audit.g_pass;
  check (Alcotest.float 1e-9) "allowed = baseline x tolerance"
    r.Core.Audit.a_mean_abs self.Core.Audit.g_allowed;
  (* A much tighter baseline fails the same report. *)
  let tight =
    { r with Core.Audit.a_mean_abs = r.Core.Audit.a_mean_abs /. 100.0 }
  in
  let g = Core.Audit.gate ~tolerance:2.0 ~baseline:tight r in
  check Alcotest.bool "regression detected" false g.Core.Audit.g_pass;
  check (Alcotest.float 1e-9) "current mean carried" r.Core.Audit.a_mean_abs
    g.Core.Audit.g_mean_abs;
  match Core.Audit.gate ~tolerance:0.0 ~baseline:r r with
  | exception Invalid_argument _ -> ()
  | _ -> fail "zero tolerance accepted"

(* --- Parallel observability ------------------------------------------------- *)

(* A worker killed before its payload lands loses its trace lane; the
   loss is counted, not hidden, and the slice recomputes. *)
let test_parallel_dropped_lane_counted () =
  with_metrics (fun () ->
      let dropped =
        Obs.Metrics.counter "parallel_trace_dropped_lanes_total"
      in
      let before = Obs.Metrics.counter_value dropped in
      let parent = Unix.getpid () in
      let xs = List.init 6 Fun.id in
      let res, stats =
        Core.Parallel.map_with_stats ~jobs:2
          (fun i -> if Unix.getpid () <> parent then Unix._exit 1 else i + 10)
          xs
      in
      check (Alcotest.list Alcotest.int) "results recomputed"
        (List.map (fun i -> i + 10) xs)
        res;
      check Alcotest.int "one dropped lane per dead worker"
        stats.Core.Parallel.workers_spawned
        (Obs.Metrics.counter_value dropped - before))

(* An unmarshalable result (a closure) must not drop the lane: the
   worker ships its observability payload alone and the parent
   recomputes. *)
let test_parallel_unmarshalable_result_fallback () =
  with_metrics (fun () ->
      let dropped =
        Obs.Metrics.counter "parallel_trace_dropped_lanes_total"
      in
      let before = Obs.Metrics.counter_value dropped in
      let xs = List.init 5 Fun.id in
      let res, stats =
        Core.Parallel.map_with_stats ~jobs:2 (fun i () -> i * 3) xs
      in
      check (Alcotest.list Alcotest.int) "closures recomputed in the parent"
        (List.map (fun i -> i * 3) xs)
        (List.map (fun f -> f ()) res);
      check Alcotest.int "whole input recomputed" (List.length xs)
        stats.Core.Parallel.recomputed_items;
      check Alcotest.int "every slice recomputed"
        stats.Core.Parallel.workers_spawned
        stats.Core.Parallel.recomputed_slices;
      check Alcotest.int "no lane dropped: the payload still landed" 0
        (Obs.Metrics.counter_value dropped - before))

(* --- EINTR, deadline and pool regressions ------------------------------------ *)

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Fire SIGALRM at the parent every 2ms while [f] runs, restoring the
   previous handler and timer afterwards.  Forked children do not
   inherit the interval timer, so only the parent's syscalls are
   interrupted. *)
let under_signal_storm f =
  let prev_handler = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let prev_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.002; Unix.it_value = 0.002 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL prev_timer);
      ignore (Sys.signal Sys.sigalrm prev_handler))
    f

(* reap must retry on EINTR.  With signals landing every 2ms and a child
   that takes ~100ms to exit, the first waitpid is interrupted long
   before the child dies; swallowing that (as the old blanket handler
   did) leaked the child as a zombie. *)
let test_reap_retries_eintr () =
  under_signal_storm (fun () ->
      let pid =
        match Unix.fork () with
        | 0 ->
          let until = Unix.gettimeofday () +. 0.1 in
          while Unix.gettimeofday () < until do
            ()
          done;
          Unix._exit 0
        | pid -> pid
      in
      Core.Parallel.reap pid;
      (* Fully reaped: the pid must be unknown, not a zombie. *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | _ -> fail "child leaked: reap gave up before waitpid finished")

(* The whole map must hold up under sustained signal pressure: correct
   results and no zombie left from any worker. *)
let test_map_no_zombies_under_signals () =
  under_signal_storm (fun () ->
      let xs = List.init 12 Fun.id in
      let res =
        Core.Parallel.map ~jobs:3
          (fun i ->
            Unix.sleepf 0.02;
            i * 7)
          xs
      in
      check (Alcotest.list Alcotest.int) "results correct under signal load"
        (List.map (fun i -> i * 7) xs)
        res;
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | pid, _ -> fail (Printf.sprintf "zombie child %d left behind" pid))

(* A worker that wedges mid-slice must not hang the parent forever: the
   read deadline fires, the worker is killed and counted, and its slice
   recomputes in the parent. *)
let test_hung_worker_deadline () =
  with_metrics (fun () ->
      let dropped = Obs.Metrics.counter "parallel_trace_dropped_lanes_total" in
      let before = Obs.Metrics.counter_value dropped in
      let parent = Unix.getpid () in
      let xs = List.init 8 Fun.id in
      let t0 = Unix.gettimeofday () in
      let res, stats =
        Core.Parallel.map_with_stats ~jobs:2 ~read_timeout_s:0.4
          (fun i ->
            if i = 1 && Unix.getpid () <> parent then (
              Unix.sleep 30;
              -1)
            else i * 2)
          xs
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      check (Alcotest.list Alcotest.int) "wedged slice recomputed"
        (List.map (fun i -> i * 2) xs)
        res;
      check Alcotest.bool "deadline fired instead of waiting out the sleep"
        true (elapsed < 10.0);
      check Alcotest.bool "recomputation reported" true
        (stats.Core.Parallel.recomputed_slices >= 1);
      check Alcotest.bool "killed worker counted as a dropped lane" true
        (Obs.Metrics.counter_value dropped > before);
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | pid, _ -> fail (Printf.sprintf "wedged worker %d left as zombie" pid))

(* An invalid XENERGY_JOBS still falls back to the domain count, but the
   rejection must land in the structured log, never pass silently. *)
let test_bad_jobs_env_warns () =
  let log = Filename.temp_file "xenergy-jobs" ".jsonl" in
  let prev = Sys.getenv_opt "XENERGY_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      Unix.putenv "XENERGY_JOBS" (Option.value ~default:"" prev);
      Sys.remove log)
    (fun () ->
      Obs.Log.open_file log;
      Unix.putenv "XENERGY_JOBS" "abc";
      let jobs = Core.Parallel.default_jobs () in
      check Alcotest.bool "fallback is a usable job count" true (jobs >= 1);
      Unix.putenv "XENERGY_JOBS" "0";
      ignore (Core.Parallel.default_jobs ());
      Obs.Log.close ();
      let body = In_channel.with_open_text log In_channel.input_all in
      check Alcotest.bool "warning names the event" true
        (str_contains body "parallel:bad-jobs-env");
      check Alcotest.bool "warning carries the rejected value" true
        (str_contains body "\"value\": \"abc\"");
      check Alcotest.bool "zero is rejected too" true
        (str_contains body "\"value\": \"0\""))

(* The persistent pool reuses its lanes across batches, kills and
   respawns a wedged lane, and refuses work after shutdown. *)
let test_pool_reuse_respawn_shutdown () =
  let parent = Unix.getpid () in
  let pool =
    Core.Parallel.create_pool ~jobs:2 ~read_timeout_s:0.4 (fun i ->
        if i = 99 && Unix.getpid () <> parent then (
          Unix.sleep 30;
          -1)
        else i + 1)
  in
  Fun.protect
    ~finally:(fun () -> Core.Parallel.shutdown_pool pool)
    (fun () ->
      let xs = List.init 6 Fun.id in
      let expect = List.map (fun i -> i + 1) xs in
      check (Alcotest.list Alcotest.int) "first batch" expect
        (Core.Parallel.pool_map pool xs);
      check (Alcotest.list Alcotest.int) "second batch reuses the lanes"
        expect (Core.Parallel.pool_map pool xs);
      check Alcotest.int "both lanes alive" 2 (Core.Parallel.pool_live pool);
      (* Wedge one lane: the batch still completes via parent recompute,
         and the wedged lane is killed. *)
      check (Alcotest.list Alcotest.int) "batch with a wedged lane"
        [ 1; 100; 3 ]
        (Core.Parallel.pool_map pool [ 0; 99; 2 ]);
      check Alcotest.int "wedged lane killed" 1 (Core.Parallel.pool_live pool);
      (* The next batch respawns it. *)
      check (Alcotest.list Alcotest.int) "batch after respawn" expect
        (Core.Parallel.pool_map pool xs);
      check Alcotest.int "lane respawned" 2 (Core.Parallel.pool_live pool));
  Core.Parallel.shutdown_pool pool;
  (match Core.Parallel.pool_map pool [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "batch accepted after shutdown");
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> fail (Printf.sprintf "pool left zombie %d" pid)

(* Pool lanes are forked before any request exists, so the requester's
   trace context must ride inside each batch message: item spans shipped
   back from the lanes carry the requesting context's trace_id, and
   consecutive batches under different contexts never bleed into each
   other. *)
let test_pool_trace_context () =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_context None;
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let pool = Core.Parallel.create_pool ~jobs:2 (fun i -> i * 2) in
  Fun.protect ~finally:(fun () -> Core.Parallel.shutdown_pool pool)
  @@ fun () ->
  let sarg name e =
    match List.assoc_opt name e.Obs.Trace.ev_args with
    | Some (Obs.Trace.S s) -> Some s
    | _ -> None
  in
  let item_spans () =
    List.filter
      (fun e ->
        String.length e.Obs.Trace.ev_name >= 5
        && String.sub e.Obs.Trace.ev_name 0 5 = "item:")
      (Obs.Trace.events ())
  in
  let fresh_ctx () =
    { Obs.Trace.trace_id = Obs.Trace.new_id ();
      span_id = Obs.Trace.new_id ();
      parent_id = None }
  in
  let batch_under ctx xs =
    Obs.Trace.clear ();
    let r =
      match ctx with
      | Some c ->
        Obs.Trace.with_context c (fun () -> Core.Parallel.pool_map pool xs)
      | None -> Core.Parallel.pool_map pool xs
    in
    check (Alcotest.list Alcotest.int) "batch computed"
      (List.map (fun i -> i * 2) xs)
      r;
    let items = item_spans () in
    check Alcotest.int "one span per item" (List.length xs)
      (List.length items);
    items
  in
  let ctx_a = fresh_ctx () in
  List.iter
    (fun e ->
      check
        (Alcotest.option Alcotest.string)
        "item span carries the requester's trace_id"
        (Some ctx_a.Obs.Trace.trace_id) (sarg "trace_id" e))
    (batch_under (Some ctx_a) [ 1; 2; 3; 4 ]);
  (* A second batch under a different context: the lanes survived the
     first request, yet no stale ids leak into the new spans. *)
  let ctx_b = fresh_ctx () in
  List.iter
    (fun e ->
      check
        (Alcotest.option Alcotest.string)
        "second batch stamped with the second context"
        (Some ctx_b.Obs.Trace.trace_id) (sarg "trace_id" e))
    (batch_under (Some ctx_b) [ 5; 6 ]);
  (* No ambient context: item spans go out unstamped. *)
  List.iter
    (fun e ->
      check Alcotest.bool "contextless batch unstamped" true
        (sarg "trace_id" e = None))
    (batch_under None [ 7 ])

(* One-shot map workers fork at request time, so they inherit the
   requester's context through memory rather than a message. *)
let test_map_trace_context () =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_context None;
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let ctx =
    { Obs.Trace.trace_id = Obs.Trace.new_id ();
      span_id = Obs.Trace.new_id ();
      parent_id = None }
  in
  let r =
    Obs.Trace.with_context ctx (fun () ->
        Core.Parallel.map ~jobs:2 (fun i -> i + 10) [ 1; 2; 3 ])
  in
  check (Alcotest.list Alcotest.int) "map computed" [ 11; 12; 13 ] r;
  let items =
    List.filter
      (fun e ->
        String.length e.Obs.Trace.ev_name >= 5
        && String.sub e.Obs.Trace.ev_name 0 5 = "item:")
      (Obs.Trace.events ())
  in
  check Alcotest.int "one span per item" 3 (List.length items);
  List.iter
    (fun e ->
      match List.assoc_opt "trace_id" e.Obs.Trace.ev_args with
      | Some (Obs.Trace.S s) ->
        check Alcotest.string "inherited trace_id" ctx.Obs.Trace.trace_id s
      | _ -> fail "item span lost the inherited context")
    items

(* A log line written by a pool lane while it computes a request's
   batch carries that request's trace_id: the lane adopts the context
   shipped with the batch, and Obs.Log stamps the ambient context. *)
let test_pool_log_trace_id () =
  let log = Filename.temp_file "xenergy-pool" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      Sys.remove log)
  @@ fun () ->
  (* Open the sink first: lanes inherit it across the fork. *)
  Obs.Log.open_file log;
  let pool =
    Core.Parallel.create_pool ~jobs:2 (fun i ->
        Obs.Log.event "test:item" [ ("i", Obs.Trace.I i) ];
        i + 1)
  in
  let ctx =
    { Obs.Trace.trace_id = Obs.Trace.new_id ();
      span_id = Obs.Trace.new_id ();
      parent_id = None }
  in
  let r =
    Fun.protect ~finally:(fun () -> Core.Parallel.shutdown_pool pool)
      (fun () ->
        Obs.Trace.with_context ctx (fun () ->
            Core.Parallel.pool_map pool [ 1; 2; 3 ]))
  in
  check (Alcotest.list Alcotest.int) "batch computed" [ 2; 3; 4 ] r;
  Obs.Log.close ();
  let items =
    In_channel.with_open_text log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map Obs.Json.parse
    |> List.filter (fun r ->
           Obs.Json.member "event" r = Obs.Json.Str "test:item")
  in
  check Alcotest.int "one line per item" 3 (List.length items);
  List.iter
    (fun r ->
      check Alcotest.bool "written by a lane" true
        (Obs.Json.to_int (Obs.Json.member "pid" r) <> Unix.getpid ());
      check Alcotest.string "line carries the request's trace_id"
        ctx.Obs.Trace.trace_id
        (Obs.Json.to_string (Obs.Json.member "trace_id" r)))
    items

(* Forked characterization over the whole suite equals the serial one bit
   for bit.  The cover_x* cases carry compiled TIE extensions (closures),
   so this also guards that map never marshals its items. *)
let test_collect_forked_matches_serial () =
  let suite = Workloads.Suite.characterization () in
  let serial = Core.Characterize.collect ~jobs:1 suite in
  let forked = Core.Characterize.collect ~jobs:2 suite in
  check Alcotest.int "sample count" (List.length serial) (List.length forked);
  let bits = Int64.bits_of_float in
  List.iter2
    (fun (a : Core.Characterize.sample) (b : Core.Characterize.sample) ->
      check Alcotest.string "name" a.sname b.sname;
      check Alcotest.int "cycles" a.cycles b.cycles;
      check Alcotest.int64 (a.sname ^ " measured bits") (bits a.measured_pj)
        (bits b.measured_pj);
      check
        (Alcotest.array Alcotest.int64)
        (a.sname ^ " variable bits")
        (Array.map bits a.variables)
        (Array.map bits b.variables))
    serial forked

(* A one-shot map never writes to a lane, so it needs no SIGPIPE
   protection and leaves the disposition alone: a CLI piped into
   [head] still dies quietly.  Under the default disposition, lanes
   that die before or after their batch must not take the caller down. *)
let test_map_keeps_sigpipe_default () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
  @@ fun () ->
  let parent = Unix.getpid () in
  let xs = List.init 6 Fun.id in
  check (Alcotest.list Alcotest.int) "dead lanes recomputed"
    (List.map succ xs)
    (Core.Parallel.map ~jobs:3
       (fun i -> if Unix.getpid () <> parent then Unix._exit 1 else succ i)
       xs);
  check (Alcotest.list Alcotest.int) "happy path" (List.map succ xs)
    (Core.Parallel.map ~jobs:3 succ xs);
  check Alcotest.bool "SIGPIPE disposition untouched" true
    (Sys.signal Sys.sigpipe Sys.Signal_default = Sys.Signal_default)

(* Every pipe end a lane opened is closed again, whether the lane
   shipped its payload, died, or wedged past the deadline, and after a
   persistent pool is shut down. *)
let test_parallel_no_fd_leak () =
  if Sys.file_exists "/proc/self/fd" then begin
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let parent = Unix.getpid () in
    let in_child () = Unix.getpid () <> parent in
    let xs = List.init 9 Fun.id in
    let expect = List.map (fun i -> i * 2) xs in
    List.iter
      (fun (name, f) ->
        let before = fds () in
        let res, _ =
          Core.Parallel.map_with_stats ~jobs:3 ~read_timeout_s:0.3 f xs
        in
        check (Alcotest.list Alcotest.int) (name ^ ": results") expect res;
        check Alcotest.int (name ^ ": no fd leaked") before (fds ()))
      [ ("happy path", fun i -> i * 2);
        ( "dying worker",
          fun i -> if i = 4 && in_child () then Unix._exit 1 else i * 2 );
        ( "wedged worker",
          fun i ->
            if i = 4 && in_child () then Unix.sleep 30;
            i * 2 ) ];
    let before = fds () in
    let pool = Core.Parallel.create_pool ~jobs:3 (fun i -> i * 2) in
    check (Alcotest.list Alcotest.int) "pool results" expect
      (Core.Parallel.pool_map pool xs);
    Core.Parallel.shutdown_pool pool;
    check Alcotest.int "pool: no fd leaked" before (fds ())
  end

let () =
  Alcotest.run "core"
    [ ( "variables",
        [ Alcotest.test_case "layout" `Quick test_variable_layout;
          Alcotest.test_case "unique names" `Quick
            test_variable_names_unique ] );
      ( "resource",
        [ Alcotest.test_case "active cycles" `Quick
            test_resource_counts_active_cycles;
          Alcotest.test_case "idle weight" `Quick test_resource_idle_weight ]
      );
      ( "extract",
        [ Alcotest.test_case "profile variables" `Quick
            test_profile_variables ] );
      ( "template",
        [ Alcotest.test_case "energy" `Quick test_template_energy;
          Alcotest.test_case "save/load" `Quick test_template_save_load ] );
      ( "characterize",
        [ Alcotest.test_case "small suite" `Quick test_characterize_small;
          Alcotest.test_case "empty suite rejected" `Quick
            test_characterize_requires_samples;
          Alcotest.test_case "estimate consistency" `Quick
            test_estimate_consistency;
          Alcotest.test_case "evaluation table" `Quick test_evaluate_table;
          Alcotest.test_case "cross validation" `Quick
            test_cross_validation;
          Alcotest.test_case "cross validation skips underdetermined" `Quick
            test_cross_validation_skips_underdetermined;
          Alcotest.test_case "single pass matches two pass" `Quick
            test_single_pass_matches_two_pass;
          Alcotest.test_case "run report" `Quick
            test_run_report_single_pass;
          Alcotest.test_case "run report json round trip" `Quick
            test_run_report_json_round_trip;
          Alcotest.test_case "run report stall columns" `Quick
            test_run_report_stall_columns;
          Alcotest.test_case "timing" `Quick
            test_timing_measures_both_paths ] );
      ( "parallel",
        [ Alcotest.test_case "map preserves order" `Quick
            test_parallel_map_order;
          Alcotest.test_case "map re-raises exceptions" `Quick
            test_parallel_map_exception;
          Alcotest.test_case "happy path stats" `Quick
            test_parallel_happy_path_stats;
          Alcotest.test_case "recomputes dead workers" `Quick
            test_parallel_recomputes_dead_workers;
          Alcotest.test_case "dropped lane counted" `Quick
            test_parallel_dropped_lane_counted;
          Alcotest.test_case "unmarshalable result fallback" `Quick
            test_parallel_unmarshalable_result_fallback;
          Alcotest.test_case "reap retries EINTR" `Quick
            test_reap_retries_eintr;
          Alcotest.test_case "no zombies under signals" `Quick
            test_map_no_zombies_under_signals;
          Alcotest.test_case "hung worker deadline" `Quick
            test_hung_worker_deadline;
          Alcotest.test_case "bad XENERGY_JOBS warns" `Quick
            test_bad_jobs_env_warns;
          Alcotest.test_case "pool reuse + respawn + shutdown" `Quick
            test_pool_reuse_respawn_shutdown;
          Alcotest.test_case "pool batches carry the trace context" `Quick
            test_pool_trace_context;
          Alcotest.test_case "one-shot map inherits the trace context"
            `Quick test_map_trace_context;
          Alcotest.test_case "pool lane log lines carry the trace id" `Quick
            test_pool_log_trace_id;
          Alcotest.test_case "forked collect matches serial bit for bit"
            `Quick test_collect_forked_matches_serial;
          Alcotest.test_case "no fd leaked" `Quick test_parallel_no_fd_leak;
          Alcotest.test_case "map keeps SIGPIPE default" `Quick
            test_map_keeps_sigpipe_default ]
      );
      ( "space",
        [ Alcotest.test_case "combinators" `Quick test_space_combinators ] );
      ( "eval cache",
        [ Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "disk round trip" `Quick
            test_cache_disk_round_trip;
          Alcotest.test_case "corruption fallback" `Quick
            test_cache_corruption_fallback;
          Alcotest.test_case "unwritable directory" `Quick
            test_cache_unwritable_dir;
          Alcotest.test_case "world-readable publication" `Quick
            test_cache_store_world_readable;
          Alcotest.test_case "non-finite floats fail fast" `Quick
            test_cache_nonfinite_fails_fast_at_store;
          Alcotest.test_case "index write + rebuild" `Quick
            test_cache_index_written_and_rebuilt;
          Alcotest.test_case "LRU prune" `Quick test_cache_prune_lru;
          Alcotest.test_case "verify + gc" `Quick test_cache_verify_and_gc;
          Alcotest.test_case "concurrent stores" `Quick
            test_cache_concurrent_stores;
          Alcotest.test_case "auto cap at store" `Quick
            test_cache_auto_cap_at_store ] );
      ( "explore",
        [ Alcotest.test_case "pareto invariants" `Quick
            test_pareto_invariants;
          Alcotest.test_case "candidate validation" `Quick
            test_explore_validates_candidates;
          Alcotest.test_case "warm matches cold" `Quick
            test_explore_warm_matches_cold;
          Alcotest.test_case "prune retains working set" `Quick
            test_explore_prune_retains_working_set;
          Alcotest.test_case "config sharing" `Quick
            test_explore_shares_config_characterization;
          Alcotest.test_case "progress + explain" `Quick
            test_explore_progress_and_explain;
          Alcotest.test_case "profile_top frontier hotspots" `Quick
            test_explore_profile_top ] );
      ( "audit",
        [ Alcotest.test_case "report" `Quick test_audit_report;
          Alcotest.test_case "json round trip" `Quick
            test_audit_json_round_trip;
          Alcotest.test_case "gate" `Quick test_audit_gate ] );
      ( "attribution",
        [ Alcotest.test_case "sums to total" `Quick
            test_attribution_sums_to_total;
          Alcotest.test_case "shares" `Quick test_attribution_shares ] );
      ( "profiler",
        [ Alcotest.test_case "conservation over the applications" `Slow
            test_profiler_conservation;
          Alcotest.test_case "block invariants + renderers" `Quick
            test_profiler_block_invariants;
          Alcotest.test_case "detached bit-identity" `Quick
            test_profiler_detached_identity ] );
      ( "observer stream",
        [ Alcotest.test_case "stats equal event fold" `Quick
            test_observer_stream_consistency ] ) ]
