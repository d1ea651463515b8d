(* xenergy: command-line driver for the extensible-processor energy
   estimation flow.

     xenergy list                    show all workloads
     xenergy profile NAME            per-block cycle/energy hotspot profile
                [--top N] [--json]   (conservation-checked), flame-graph
                [--folded FILE]      and annotated-disassembly output
                [--annotate] [--per-opcode]
     xenergy reference NAME          reference-estimator energy breakdown
     xenergy characterize [-o FILE]  fit the macro-model (Table I / Fig 3)
                [--trace FILE]       Chrome trace of the whole pipeline
                [--metrics FILE]     metrics registry dump (JSON)
     xenergy estimate NAME [-m FILE] macro-model energy of one workload
     xenergy attribute NAME [-m FILE] per-variable energy breakdown +
                                      power-over-time waveform
     xenergy compare [-m FILE]       Table II accuracy comparison
     xenergy rs [-m FILE]            Fig 4 design-space study
     xenergy disasm NAME             disassembly listing
     xenergy breakdown NAME          per-block reference-energy breakdown
     xenergy trace NAME [-n N]       per-instruction execution/energy trace
     xenergy run FILE.s [-e EXT]     assemble/simulate/estimate a .s file
     xenergy cc FILE.c [-e EXT]      compile/simulate/estimate a Tiny-C file
     xenergy explore [--progress]    sweep a candidate space (heartbeats,
                [--explain]          frontier attribution, --cache-max-bytes
                [--openmetrics F]    inline cap, OpenMetrics exposition)
     xenergy audit [-o FILE]         macro-model vs reference error audit
                [--baseline FILE]    regression gate vs a committed baseline
     xenergy serve --socket PATH     long-lived estimation daemon (model
                [--max-models N]     registry, batch estimate/attribute/
                [--max-conns N]      audit/explore over length-prefixed
                [--cache-dir DIR]    JSON, concurrent connections,
                [--model FILE]       OpenMetrics scrape); with --call/
                [--call JSON ... | --scrape | --ping | --stop] acts as a
                client against a running daemon instead (repeated
                --call batches over one connection)

   Every command honours XENERGY_LOG=FILE (JSON-lines structured log)
   and XENERGY_LOG_LEVEL=debug|info|warn|error.  The simulating
   commands (profile, characterize, estimate, explore, audit, serve)
   take --backend threaded|interp|check (default from XENERGY_BACKEND,
   else threaded): threaded is the pre-decoded backend every other
   command simulates on too, interp the reference interpreter, check
   runs both and fails on any divergence from the reference.
     xenergy cache stats DIR         inventory of an on-disk eval cache
     xenergy cache verify DIR        re-parse every entry, report corruption
     xenergy cache prune DIR [..]    LRU eviction (--max-entries/-bytes/-age)
     xenergy cache gc DIR            sweep orphaned *.tmp / foreign files *)

open Cmdliner

let fmt = Format.std_formatter

(* Diagnostics go to stderr and exit with Cmdliner's conventional
   some_error code, keeping stdout clean for pipeline consumers. *)
let die f =
  Format.kfprintf
    (fun ppf ->
      Format.fprintf ppf "@.";
      exit (Cmd.Exit.some_error))
    Format.err_formatter
    ("xenergy: " ^^ f)

let jobs_arg =
  let doc =
    "Number of worker processes for characterization (also the
     $(b,XENERGY_JOBS) environment variable; defaults to the available
     cores)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let backend_arg =
  let doc =
    "Simulation backend: $(b,threaded) (the default: pre-decoded
     threaded code), $(b,interp) (the reference interpreter, decode per
     retirement; bit-identical results, several times slower) or
     $(b,check) (run both and fail on any divergence from the
     reference).  Also the $(b,XENERGY_BACKEND) environment variable;
     the flag wins."
  in
  Arg.(value & opt (some string) None
       & info [ "backend" ] ~docv:"NAME" ~doc)

let set_backend = function
  | None -> ()
  | Some s -> (
    match Sim.Backend.of_string s with
    | Some b -> Sim.Backend.set_current b
    | None -> die "unknown backend %S (one of: interp, threaded, check)" s)

(* Under --backend check every simulation ran twice; say so, so a green
   exit visibly means "the backends agreed" rather than "check was
   silently ignored".  Parallel commands run their checks inside forked
   workers whose counters do not flow back — a worker's mismatch still
   fails the command. *)
let report_checks () =
  if Sim.Backend.current () = Sim.Backend.Check then begin
    let n = Sim.Backend.checks_run () in
    if n > 0 then
      Format.eprintf
        "backend check: %d dual simulation%s, interpreter and threaded \
         backends agreed bit-for-bit@."
        n
        (if n = 1 then "" else "s")
    else
      Format.eprintf
        "backend check: dual simulations ran in worker processes; no \
         mismatch reported@."
  end

let log_file_arg =
  Arg.(value & opt (some string) None
       & info [ "log-file" ] ~docv:"FILE"
           ~doc:"Append JSON-lines structured log records (one object per
                 line: ts_us on the trace clock, level, tid, pid, event,
                 fields) to $(docv).  The $(b,XENERGY_LOG) environment
                 variable opens the same sink for any command; \
                 $(b,XENERGY_LOG_LEVEL) sets the severity floor.")

let openmetrics_arg =
  Arg.(value & opt (some string) None
       & info [ "openmetrics" ] ~docv:"FILE"
           ~doc:"Save the metrics registry in OpenMetrics (Prometheus
                 text exposition) format to $(docv); implies metrics
                 recording.")

let setup_obs ~log_file ~openmetrics =
  (match log_file with
   | Some path -> (
     try Obs.Log.open_file path
     with Sys_error msg -> die "cannot open log file: %s" msg)
   | None -> ());
  if openmetrics <> None then Obs.Metrics.set_enabled true

let save_openmetrics = function
  | Some path ->
    (try Obs.Export.save path
     with Sys_error msg -> die "cannot write OpenMetrics exposition: %s" msg);
    Format.eprintf "OpenMetrics exposition written to %s@." path
  | None -> ()

let characterize_model ?jobs () =
  Core.Characterize.run ?jobs (Workloads.Suite.characterization ())

let load_or_fit ?jobs = function
  | Some path -> (
    try Core.Template.load path
    with Sys_error msg | Failure msg -> die "cannot load model: %s" msg)
  | None ->
    Format.eprintf "characterizing (no model file given)...@.";
    (characterize_model ?jobs ()).Core.Characterize.model

let model_arg =
  let doc = "Read macro-model coefficients from $(docv) instead of
             re-characterizing." in
  Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"FILE" ~doc)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

let find_case name =
  try Workloads.Suite.find name
  with Not_found -> die "unknown workload %S; try `xenergy list'" name

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.fprintf fmt "@[<v>characterization suite:@,";
    List.iter
      (fun c -> Format.fprintf fmt "  %s@," c.Core.Extract.case_name)
      (Workloads.Suite.characterization ());
    Format.fprintf fmt "applications:@,";
    List.iter
      (fun c -> Format.fprintf fmt "  %s@," c.Core.Extract.case_name)
      (Workloads.Suite.applications ());
    Format.fprintf fmt "reed-solomon choices:@,";
    List.iter
      (fun c -> Format.fprintf fmt "  %s@," c.Core.Extract.case_name)
      (Workloads.Suite.reed_solomon_choices ());
    Format.fprintf fmt "compiled Tiny-C applications:@,";
    List.iter
      (fun c -> Format.fprintf fmt "  %s@," c.Core.Extract.case_name)
      (Workloads.Suite.c_applications ());
    Format.fprintf fmt "@]@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List all workloads")
    Term.(const run $ const ())

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows in the hottest-blocks table.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full profile as JSON (every executed block, so
                   the conservation sums can be checked downstream;
                   energies in pJ).")
  in
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write flame-graph collapsed stacks (one
                   $(i,stack count) line per call path x block, counts in
                   cycles) to $(docv) — feed to flamegraph.pl or
                   speedscope.")
  in
  let folded_energy_arg =
    Arg.(value & opt (some string) None
         & info [ "folded-energy" ] ~docv:"FILE"
             ~doc:"Like $(b,--folded) but with counts in rounded
                   picojoules: an energy flame graph.")
  in
  let annotate_arg =
    Arg.(value & flag
         & info [ "annotate" ]
             ~doc:"Print the annotated disassembly: every instruction with
                   its retirement count and cycle/energy shares.")
  in
  let per_opcode_arg =
    Arg.(value & flag
         & info [ "per-opcode" ]
             ~doc:"Print the per-opcode histogram (counts, cycles, energy
                   by mnemonic).")
  in
  let run model_path name top json folded folded_energy annotate per_opcode
      backend log_file openmetrics jobs =
    set_backend backend;
    let c = find_case name in
    if top <= 0 then die "--top must be positive";
    setup_obs ~log_file ~openmetrics;
    let model = load_or_fit ?jobs model_path in
    let r = Core.Profiler.run model c in
    if json then print_string (Core.Profiler.to_json r ^ "\n")
    else begin
      Format.fprintf fmt "%a@." (Core.Profiler.pp_table ~top) r;
      if per_opcode then
        Format.fprintf fmt "@.%a@." Core.Profiler.pp_opcodes r;
      if annotate then
        Format.fprintf fmt "@.%a@." Core.Profiler.pp_annotate r
    end;
    let write_file what path text =
      (try
         Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc text)
       with Sys_error msg -> die "cannot write %s: %s" what msg);
      Format.eprintf "%s written to %s@." what path
    in
    Option.iter
      (fun path ->
        write_file "folded stacks" path (Core.Profiler.folded_lines r))
      folded;
    Option.iter
      (fun path ->
        write_file "energy folded stacks" path
          (Core.Profiler.folded_lines ~energy:true r))
      folded_energy;
    save_openmetrics openmetrics;
    report_checks ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Hotspot profile of one workload: per-basic-block cycles,
             stalls, cache misses and exact macro-model energy
             (conservation-checked), plus flame-graph and
             annotated-disassembly output")
    Term.(const run $ model_arg $ name_arg $ top_arg $ json_arg $ folded_arg
          $ folded_energy_arg $ annotate_arg $ per_opcode_arg $ backend_arg
          $ log_file_arg $ openmetrics_arg $ jobs_arg)

(* --- reference ----------------------------------------------------------- *)

let reference_cmd =
  let run name =
    let c = find_case name in
    let energy, cpu =
      Power.Estimator.estimate_program ?extension:c.Core.Extract.extension
        c.Core.Extract.asm
    in
    Format.fprintf fmt "%s: %d instructions, %d cycles@." name
      (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu);
    Format.fprintf fmt "reference energy: %a@." Power.Report.pp_energy energy
  in
  Cmd.v
    (Cmd.info "reference"
       ~doc:"Reference (RTL-level) energy of one workload")
    Term.(const run $ name_arg)

(* --- characterize -------------------------------------------------------- *)

let characterize_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Save fitted coefficients to $(docv).")
  in
  let report_arg =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Print the per-workload run report (wall time, cycles,
                   cache misses, energy, simulation count) and save it as
                   JSON to $(docv).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record spans for the whole pipeline (simulate, extract,
                   fit, cross-validate, per-worker lanes) and save them as
                   Chrome trace-event JSON to $(docv) — loadable in
                   chrome://tracing or Perfetto.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Record the metrics registry (simulator retirement
                   counters, NNLS iterations, worker-pool degradations)
                   and save it as JSON to $(docv).")
  in
  let run out report trace metrics backend log_file openmetrics jobs =
    set_backend backend;
    if trace <> None then Obs.Trace.set_enabled true;
    if metrics <> None then Obs.Metrics.set_enabled true;
    setup_obs ~log_file ~openmetrics;
    let samples, run_report =
      Core.Characterize.collect_with_report ?jobs
        (Workloads.Suite.characterization ())
    in
    let fit = Core.Characterize.fit_samples samples in
    let loo = Core.Characterize.cross_validate ?jobs samples in
    Format.fprintf fmt "%a@." Core.Characterize.pp_fit fit;
    let loo_values = Array.to_list loo |> List.filter_map Fun.id in
    let skipped = Array.length loo - List.length loo_values in
    Format.fprintf fmt
      "leave-one-out rms error %.2f%% over %d folds (%d underdetermined \
       fold%s skipped)@."
      (Regress.Stats.rms (Array.of_list loo_values))
      (List.length loo_values) skipped
      (if skipped = 1 then "" else "s");
    Format.fprintf fmt "%a@."
      (Core.Template.pp_table1 ~paper:Core.Template.paper_reference)
      fit.Core.Characterize.model;
    (match report with
     | Some path ->
       Format.fprintf fmt "@.%a@." Core.Run_report.pp run_report;
       (try Core.Run_report.save path run_report
        with Sys_error msg -> die "cannot write run report: %s" msg);
       Format.fprintf fmt "run report written to %s@." path
     | None -> ());
    (match out with
     | Some path ->
       (try Core.Template.save path fit.Core.Characterize.model
        with Sys_error msg -> die "cannot write coefficients: %s" msg);
       Format.fprintf fmt "coefficients written to %s@." path
     | None -> ());
    (match trace with
     | Some path ->
       (try Obs.Trace.save path
        with Sys_error msg -> die "cannot write trace: %s" msg);
       Format.fprintf fmt "trace written to %s (open in chrome://tracing \
                           or https://ui.perfetto.dev)@." path
     | None -> ());
    (match metrics with
    | Some path ->
      (try Obs.Metrics.save path
       with Sys_error msg -> die "cannot write metrics: %s" msg);
      Format.fprintf fmt "metrics written to %s@." path
    | None -> ());
    save_openmetrics openmetrics;
    report_checks ()
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Fit the macro-model on the characterization suite")
    Term.(const run $ out_arg $ report_arg $ trace_arg $ metrics_arg
          $ backend_arg $ log_file_arg $ openmetrics_arg $ jobs_arg)

(* --- estimate ------------------------------------------------------------ *)

let estimate_cmd =
  let run model_path name backend =
    set_backend backend;
    let model = load_or_fit model_path in
    let c = find_case name in
    let r = Core.Estimate.run model c in
    Format.fprintf fmt
      "%s: %.3f uJ (%d instructions, %d cycles)@." name
      r.Core.Estimate.energy_uj r.Core.Estimate.instructions r.Core.Estimate.cycles;
    report_checks ()
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Macro-model energy of one workload")
    Term.(const run $ model_arg $ name_arg $ backend_arg)

(* --- attribute ------------------------------------------------------------ *)

let attribute_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the breakdown as JSON (energies in pJ, units
                   stated in the document) instead of the table.")
  in
  let bucket_arg =
    Arg.(value & opt int 64
         & info [ "bucket" ] ~docv:"CYCLES"
             ~doc:"Waveform bucket width in cycles.")
  in
  let run model_path name json bucket jobs =
    if bucket <= 0 then die "bucket width must be positive";
    let c = find_case name in
    let model = load_or_fit ?jobs model_path in
    (* One simulation feeds both decompositions: the attribution engine
       and the reference estimator observe the same event stream. *)
    let est =
      Power.Estimator.create ?extension:c.Core.Extract.extension
        Sim.Config.default
    in
    let ref_wf = Obs.Waveform.create ~bucket_cycles:bucket () in
    let b =
      Core.Attribution.run ~bucket_cycles:bucket
        ~observers:[ Power.Estimator.observer_with_waveform est ref_wf ]
        model c
    in
    let ref_pj = Power.Estimator.total_energy est in
    if json then
      Format.fprintf fmt
        "{\"attribution\": %s,@ \"reference_energy_pj\": %.6f,@ \
         \"reference_waveform\": %s}@."
        (Core.Attribution.to_json b)
        ref_pj
        (Obs.Waveform.to_json ref_wf)
    else begin
      Format.fprintf fmt "%a@." Core.Attribution.pp b;
      Format.fprintf fmt
        "@.reference energy %a, macro-model error %+.2f%%@."
        Power.Report.pp_energy ref_pj
        (if Float.abs ref_pj < 1e-9 then 0.0
         else 100.0 *. (b.Core.Attribution.total_pj -. ref_pj) /. ref_pj)
    end
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:"Per-variable energy breakdown and power-over-time waveform
             of one workload")
    Term.(const run $ model_arg $ name_arg $ json_arg $ bucket_arg $ jobs_arg)

(* --- compare ------------------------------------------------------------- *)

let compare_cmd =
  let run model_path =
    let model = load_or_fit model_path in
    let table =
      Core.Evaluate.compare_cases model (Workloads.Suite.applications ())
    in
    Format.fprintf fmt "%a@." Core.Evaluate.pp_table table
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Table II: applications, macro-model vs reference")
    Term.(const run $ model_arg)

(* --- disasm ---------------------------------------------------------------- *)

let disasm_cmd =
  let run name =
    let c = find_case name in
    Format.fprintf fmt "%a@." Isa.Program.pp_listing c.Core.Extract.asm
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassembly listing of a workload")
    Term.(const run $ name_arg)

(* --- breakdown ------------------------------------------------------------- *)

let breakdown_cmd =
  let run name =
    let c = find_case name in
    let est =
      Power.Estimator.create ?extension:c.Core.Extract.extension
        Sim.Config.default
    in
    let cpu, _ =
      Sim.Backend.run_program ?extension:c.Core.Extract.extension
        ~observers:[ Power.Estimator.observer est ]
        c.Core.Extract.asm
    in
    Format.fprintf fmt "%s: %d instructions, %d cycles@." name
      (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu);
    Format.fprintf fmt "%a@." Power.Report.pp_breakdown
      (Power.Estimator.breakdown est)
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Per-block reference-energy breakdown of a workload")
    Term.(const run $ name_arg)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let count_arg =
    Arg.(value & opt int 40
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Number of instructions to trace.")
  in
  let run name count =
    let c = find_case name in
    let est =
      Power.Estimator.create ?extension:c.Core.Extract.extension
        Sim.Config.default
    in
    let shown = ref 0 in
    let prev_energy = ref 0.0 in
    Format.fprintf fmt "%8s %8s %6s %-25s %3s %10s@." "cycle" "pc" "cyc"
      "instruction" "flg" "energy pJ";
    let obs e =
      Power.Estimator.observe est e;
      if !shown < count then begin
        incr shown;
        let now = Power.Estimator.total_energy est in
        let flags =
          String.concat ""
            [ (if e.Sim.Event.interlock then "i" else "");
              (if not e.Sim.Event.fetch.Sim.Event.fhit then "m" else "");
              (match e.Sim.Event.taken with
               | Some true -> "T"
               | Some false -> "n"
               | None -> "") ]
        in
        Format.fprintf fmt "%8d %8x %6d %-25s %3s %10.1f@."
          e.Sim.Event.start_cycle e.Sim.Event.fetch.Sim.Event.fpc
          e.Sim.Event.cycles
          (Isa.Instr.to_string e.Sim.Event.instr)
          flags (now -. !prev_energy);
        prev_energy := now
      end
    in
    let cpu, _ =
      Sim.Backend.run_program ?extension:c.Core.Extract.extension
        ~observers:[ obs ] c.Core.Extract.asm
    in
    Format.fprintf fmt "... %d instructions total, %d cycles, %a@."
      (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu)
      Power.Report.pp_energy
      (Power.Estimator.total_energy est)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Per-instruction execution/energy trace (WattWatcher style)")
    Term.(const run $ name_arg $ count_arg)

(* --- run: external assembly files ------------------------------------------ *)

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  let ext_arg =
    Arg.(value & opt (some string) None
         & info [ "e"; "extension" ] ~docv:"NAME"
             ~doc:"Install a named custom-instruction extension (one of:
                   mac, add4, blend, des, gf, gfmac, gf4, cover_*).")
  in
  let run model_path file ext_name =
    let source = In_channel.with_open_text file In_channel.input_all in
    let program =
      try Isa.Asm_parser.parse_string ~name:(Filename.basename file) source
      with Isa.Asm_parser.Parse_error (line, msg) ->
        die "%s:%d: %s" file line msg
    in
    let extension =
      match ext_name with
      | None -> None
      | Some n -> (
        match Workloads.Tie_lib.by_name n with
        | Some e -> Some e
        | None ->
          die "unknown extension %S; available: %s" n
            (String.concat ", " Workloads.Tie_lib.extension_names))
    in
    let asm =
      try Isa.Program.assemble program
      with Isa.Program.Assembly_error msg -> die "%s: %s" file msg
    in
    let case = Core.Extract.case ?extension "user" asm in
    let profile = Core.Extract.profile case in
    Format.fprintf fmt "%a@." Core.Extract.pp_profile profile;
    let ref_pj, _ =
      Power.Estimator.estimate_program ?extension asm
    in
    Format.fprintf fmt "reference energy: %a@." Power.Report.pp_energy ref_pj;
    let model = load_or_fit model_path in
    let est = Core.Estimate.of_profile model profile in
    Format.fprintf fmt "macro-model estimate: %a (error %+.2f%%)@."
      Power.Report.pp_energy est.Core.Estimate.energy_pj
      (100.0 *. (est.Core.Estimate.energy_pj -. ref_pj) /. ref_pj)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Assemble, simulate and estimate an external .s file")
    Term.(const run $ model_arg $ file_arg $ ext_arg)

(* --- cc: compile and estimate C sources ------------------------------------ *)

let cc_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")
  in
  let ext_arg =
    Arg.(value & opt (some string) None
         & info [ "e"; "extension" ] ~docv:"NAME"
             ~doc:"Install a named custom-instruction extension.")
  in
  let listing_arg =
    Arg.(value & flag
         & info [ "S"; "listing" ] ~doc:"Print the generated assembly.")
  in
  let run model_path file ext_name listing =
    let source = In_channel.with_open_text file In_channel.input_all in
    let compiled =
      try Cc.Codegen.compile_source source with
      | Cc.Parser.Parse_error (line, msg) -> die "%s:%d: %s" file line msg
      | Cc.Codegen.Codegen_error msg -> die "%s: %s" file msg
    in
    if listing then
      Format.fprintf fmt "%a@." Isa.Program.pp_listing
        compiled.Cc.Codegen.c_asm;
    let extension =
      match ext_name with
      | None -> None
      | Some n -> (
        match Workloads.Tie_lib.by_name n with
        | Some e -> Some e
        | None ->
          die "unknown extension %S; available: %s" n
            (String.concat ", " Workloads.Tie_lib.extension_names))
    in
    let case =
      Core.Extract.case ?extension "c-program" compiled.Cc.Codegen.c_asm
    in
    let profile = Core.Extract.profile case in
    let cpu, _ =
      Sim.Backend.run_program ?extension compiled.Cc.Codegen.c_asm
    in
    Format.fprintf fmt
      "main returned %d (%d instructions, %d cycles)@."
      (Sim.Cpu.reg cpu (Isa.Reg.a 10))
      profile.Core.Extract.instructions profile.Core.Extract.cycles;
    let ref_pj, _ =
      Power.Estimator.estimate_program ?extension compiled.Cc.Codegen.c_asm
    in
    Format.fprintf fmt "reference energy: %a@." Power.Report.pp_energy ref_pj;
    let model = load_or_fit model_path in
    let est = Core.Estimate.of_profile model profile in
    Format.fprintf fmt "macro-model estimate: %a (error %+.2f%%)@."
      Power.Report.pp_energy est.Core.Estimate.energy_pj
      (100.0 *. (est.Core.Estimate.energy_pj -. ref_pj) /. ref_pj)
  in
  Cmd.v
    (Cmd.info "cc"
       ~doc:"Compile a Tiny-C file, simulate it and estimate its energy")
    Term.(const run $ model_arg $ file_arg $ ext_arg $ listing_arg)

(* --- explore -------------------------------------------------------------- *)

let explore_cmd =
  let space_arg =
    Arg.(value & opt string "rs-cache"
         & info [ "space" ] ~docv:"NAME"
             ~doc:(Printf.sprintf
                     "Candidate space to sweep (one of: %s)."
                     (String.concat ", " Workloads.Spaces.names)))
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Memoize simulation results as one JSON file per entry
                   under $(docv); a later sweep over overlapping
                   candidates (or the same sweep re-run) reuses them
                   instead of re-simulating.  Corrupted or unwritable
                   entries fall back to recompute.")
  in
  let cache_max_bytes_arg =
    Arg.(value & opt (some int) None
         & info [ "cache-max-bytes" ] ~docv:"BYTES"
             ~doc:"Cap the on-disk cache at $(docv) bytes of entry
                   payload: a store that crosses the bound runs LRU
                   eviction inline (no manual $(b,cache prune) needed).
                   Requires $(b,--cache-dir).")
  in
  let progress_arg =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Print a heartbeat to stderr between evaluation chunks:
                   done/total, cache hits/misses, current frontier size,
                   elapsed time and ETA.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Decompose each Pareto-frontier candidate's energy
                   across the macro-model variables (exact — the model is
                   linear — and free: computed from the cached variable
                   vectors, no extra simulation).")
  in
  let pareto_arg =
    Arg.(value & flag
         & info [ "pareto" ]
             ~doc:"Restrict the table/CSV rows to the Pareto frontier.")
  in
  let profile_top_arg =
    Arg.(value & opt (some int) None
         & info [ "profile-top" ] ~docv:"N"
             ~doc:"Profile each Pareto-frontier candidate (one extra
                   observed simulation per point) and dump its $(docv)
                   hottest basic blocks — per-block cycles, stalls and
                   exact macro-model energy.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the sweep as JSON (energies in pJ/uJ, units
                   stated in the document) instead of the table.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the sweep as CSV.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Also write the rendered output to $(docv).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record Chrome trace-event spans for the sweep
                   (per-config characterization, per-candidate
                   simulations, cache hit instants) to $(docv).")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Save the metrics registry (cache hit/miss/error
                   counters, simulator and worker-pool counters) as JSON
                   to $(docv).")
  in
  let run space cache_dir cache_max_bytes progress explain pareto profile_top
      json csv out trace metrics backend log_file openmetrics jobs =
    set_backend backend;
    if json && csv then die "--json and --csv are mutually exclusive";
    if cache_max_bytes <> None && cache_dir = None then
      die "--cache-max-bytes requires --cache-dir";
    (match profile_top with
     | Some n when n <= 0 -> die "--profile-top must be positive"
     | _ -> ());
    (match cache_max_bytes with
     | Some n when n < 0 -> die "--cache-max-bytes must be >= 0"
     | _ -> ());
    let build_space =
      match Workloads.Spaces.find space with
      | Some f -> f
      | None ->
        die "unknown space %S; available: %s" space
          (String.concat ", " Workloads.Spaces.names)
    in
    if trace <> None then Obs.Trace.set_enabled true;
    if metrics <> None then Obs.Metrics.set_enabled true;
    setup_obs ~log_file ~openmetrics;
    let cache =
      Core.Eval_cache.create ?dir:cache_dir ?max_bytes:cache_max_bytes ()
    in
    let heartbeat (p : Core.Explore.progress) =
      if progress then
        Format.eprintf
          "explore: [%s] %d/%d  cache %d hit%s %d miss%s  frontier %d  \
           %.1f s elapsed%s@."
          p.Core.Explore.pr_phase p.Core.Explore.pr_done
          p.Core.Explore.pr_total p.Core.Explore.pr_hits
          (if p.Core.Explore.pr_hits = 1 then "" else "s")
          p.Core.Explore.pr_misses
          (if p.Core.Explore.pr_misses = 1 then "" else "es")
          p.Core.Explore.pr_frontier p.Core.Explore.pr_elapsed_s
          (match p.Core.Explore.pr_eta_s with
           | None -> ""
           | Some eta -> Printf.sprintf ", ~%.1f s left" eta)
    in
    let outcome =
      Core.Explore.run ?jobs ~cache ~progress:heartbeat ~explain ?profile_top
        ~characterization:(Workloads.Suite.characterization ())
        (build_space ())
    in
    let rendered =
      if json then Core.Explore.to_json outcome ^ "\n"
      else if csv then Core.Explore.to_csv ~pareto_only:pareto outcome
      else
        Format.asprintf "%a@."
          (fun ppf -> Core.Explore.pp ~pareto_only:pareto ppf)
          outcome
    in
    print_string rendered;
    (match out with
     | Some path ->
       (try
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc rendered)
        with Sys_error msg -> die "cannot write output: %s" msg);
       Format.eprintf "sweep written to %s@." path
     | None -> ());
    (match trace with
     | Some path ->
       (try Obs.Trace.save path
        with Sys_error msg -> die "cannot write trace: %s" msg);
       Format.eprintf "trace written to %s@." path
     | None -> ());
    (match metrics with
    | Some path ->
      (try Obs.Metrics.save path
       with Sys_error msg -> die "cannot write metrics: %s" msg);
      Format.eprintf "metrics written to %s@." path
    | None -> ());
    save_openmetrics openmetrics;
    report_checks ()
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Design-space exploration: sweep a candidate space through
             the macro-model (memoized) and extract the
             energy/performance Pareto frontier")
    Term.(const run $ space_arg $ cache_dir_arg $ cache_max_bytes_arg
          $ progress_arg $ explain_arg $ pareto_arg $ profile_top_arg
          $ json_arg $ csv_arg $ out_arg $ trace_arg $ metrics_arg
          $ backend_arg $ log_file_arg $ openmetrics_arg $ jobs_arg)

(* --- cache: lifecycle management of an on-disk evaluation cache ----------- *)

let cache_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Cache directory (as given to $(b,explore --cache-dir).")
  in
  let require_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      die "no such cache directory: %s" dir
  in
  let human_bytes n =
    if n >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.0)
    else if n >= 1 lsl 10 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
    else Printf.sprintf "%d B" n
  in
  let age now = function
    | None -> "-"
    | Some t -> Printf.sprintf "%.0f s ago" (Float.max 0.0 (now -. t))
  in
  let stats_cmd =
    let json_arg =
      Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the inventory as JSON.")
    in
    let run dir json =
      require_dir dir;
      let s = Core.Eval_cache.disk_stats dir in
      let now = Unix.gettimeofday () in
      if json then
        Format.fprintf fmt
          "{\"entries\": %d, \"bytes\": %d, \"oldest_age_seconds\": %s, \
           \"newest_age_seconds\": %s, \"index_rebuilt\": %b}@."
          s.Core.Eval_cache.d_entries s.Core.Eval_cache.d_bytes
          (match s.Core.Eval_cache.d_oldest with
           | None -> "null"
           | Some t -> Printf.sprintf "%.1f" (Float.max 0.0 (now -. t)))
          (match s.Core.Eval_cache.d_newest with
           | None -> "null"
           | Some t -> Printf.sprintf "%.1f" (Float.max 0.0 (now -. t)))
          s.Core.Eval_cache.d_index_rebuilt
      else
        Format.fprintf fmt
          "%s: %d entr%s, %s@.least recently used: %s@.most recently \
           used: %s@.index: %s@."
          dir s.Core.Eval_cache.d_entries
          (if s.Core.Eval_cache.d_entries = 1 then "y" else "ies")
          (human_bytes s.Core.Eval_cache.d_bytes)
          (age now s.Core.Eval_cache.d_oldest)
          (age now s.Core.Eval_cache.d_newest)
          (if s.Core.Eval_cache.d_index_rebuilt then
             "rebuilt from the entry files"
           else "loaded")
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Inventory of a cache directory (from its
                              self-healing index)")
      Term.(const run $ dir_arg $ json_arg)
  in
  let verify_cmd =
    let run dir =
      require_dir dir;
      let r = Core.Eval_cache.verify dir in
      Format.fprintf fmt
        "%s: %d entr%s ok, %d corrupt, %d foreign file%s, %d orphaned \
         tmp file%s@."
        dir r.Core.Eval_cache.v_ok
        (if r.Core.Eval_cache.v_ok = 1 then "y" else "ies")
        (List.length r.Core.Eval_cache.v_corrupt)
        (List.length r.Core.Eval_cache.v_foreign)
        (if List.length r.Core.Eval_cache.v_foreign = 1 then "" else "s")
        (List.length r.Core.Eval_cache.v_tmp)
        (if List.length r.Core.Eval_cache.v_tmp = 1 then "" else "s");
      List.iter
        (fun (f, why) -> Format.eprintf "corrupt: %s: %s@." f why)
        r.Core.Eval_cache.v_corrupt;
      if r.Core.Eval_cache.v_corrupt <> [] then exit Cmd.Exit.some_error
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Re-parse every cache entry; report corrupt and foreign
               files (exit non-zero when corrupt entries exist)")
      Term.(const run $ dir_arg)
  in
  let prune_cmd =
    let max_entries_arg =
      Arg.(value & opt (some int) None
           & info [ "max-entries" ] ~docv:"N"
               ~doc:"Keep at most $(docv) entries (LRU by the recorded
                     last-use time).")
    in
    let max_bytes_arg =
      Arg.(value & opt (some int) None
           & info [ "max-bytes" ] ~docv:"BYTES"
               ~doc:"Keep at most $(docv) bytes of entry payload.")
    in
    let max_age_arg =
      Arg.(value & opt (some float) None
           & info [ "max-age" ] ~docv:"DAYS"
               ~doc:"Evict entries unused for more than $(docv) days
                     (fractional values allowed).")
    in
    let run dir max_entries max_bytes max_age =
      require_dir dir;
      if max_entries = None && max_bytes = None && max_age = None then
        die "prune: give at least one of --max-entries, --max-bytes, \
             --max-age";
      (match max_entries with
       | Some n when n < 0 -> die "prune: --max-entries must be >= 0"
       | _ -> ());
      (match max_bytes with
       | Some n when n < 0 -> die "prune: --max-bytes must be >= 0"
       | _ -> ());
      (match max_age with
       | Some d when d < 0.0 -> die "prune: --max-age must be >= 0"
       | _ -> ());
      let policy =
        { Core.Eval_cache.max_entries; max_bytes;
          max_age_s = Option.map (fun d -> d *. 86400.0) max_age }
      in
      let r = Core.Eval_cache.prune ~policy dir in
      Format.fprintf fmt
        "%s: evicted %d entr%s (%s), kept %d (%s)%s@."
        dir r.Core.Eval_cache.p_evicted
        (if r.Core.Eval_cache.p_evicted = 1 then "y" else "ies")
        (human_bytes r.Core.Eval_cache.p_evicted_bytes)
        r.Core.Eval_cache.p_kept
        (human_bytes r.Core.Eval_cache.p_kept_bytes)
        (if r.Core.Eval_cache.p_index_rebuilt then
           " (index rebuilt from the entry files)"
         else "")
    in
    Cmd.v
      (Cmd.info "prune"
         ~doc:"Apply a size/age eviction policy (entries are immutable
               and recomputable, so eviction is always safe)")
      Term.(const run $ dir_arg $ max_entries_arg $ max_bytes_arg
            $ max_age_arg)
  in
  let gc_cmd =
    let run dir =
      require_dir dir;
      let r = Core.Eval_cache.gc dir in
      Format.fprintf fmt
        "%s: removed %d orphaned tmp file%s and %d foreign file%s; \
         index +%d/-%d@."
        dir r.Core.Eval_cache.g_tmp_removed
        (if r.Core.Eval_cache.g_tmp_removed = 1 then "" else "s")
        r.Core.Eval_cache.g_foreign_removed
        (if r.Core.Eval_cache.g_foreign_removed = 1 then "" else "s")
        r.Core.Eval_cache.g_index_added r.Core.Eval_cache.g_index_dropped
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Remove orphaned *.tmp and unindexable files, then re-sync
               the index")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Manage an on-disk evaluation cache (stats, verify, prune,
             gc)")
    [ stats_cmd; verify_cmd; prune_cmd; gc_cmd ]

(* --- audit ---------------------------------------------------------------- *)

let audit_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the accuracy report as JSON (the same document
                   $(b,-o) writes) instead of the table.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the accuracy report as JSON to $(docv) — the
                   format committed as a baseline (BENCH_accuracy.json).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Gate against a committed accuracy baseline: fail
                   (non-zero exit) when this audit's mean absolute error
                   exceeds the baseline's by more than the tolerance
                   factor.")
  in
  let tolerance_arg =
    Arg.(value & opt float 2.0
         & info [ "tolerance" ] ~docv:"FACTOR"
             ~doc:"Allowed regression factor for the baseline gate: pass
                   while mean |error| <= baseline mean |error| x $(docv).")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Memoize the reference-observed simulations under
                   $(docv); a warm audit costs zero simulations.")
  in
  let run model_path json out baseline tolerance cache_dir backend log_file
      openmetrics jobs =
    set_backend backend;
    if tolerance <= 0.0 then die "--tolerance must be > 0";
    setup_obs ~log_file ~openmetrics;
    let model = load_or_fit ?jobs model_path in
    let cache = Core.Eval_cache.create ?dir:cache_dir () in
    let report =
      Core.Audit.run ?jobs ~cache model (Workloads.Suite.applications ())
    in
    if json then print_string (Core.Audit.to_json report ^ "\n")
    else Format.fprintf fmt "%a@." Core.Audit.pp report;
    (match out with
     | Some path ->
       (try
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Core.Audit.to_json report);
              Out_channel.output_char oc '\n')
        with Sys_error msg -> die "cannot write accuracy report: %s" msg);
       Format.eprintf "accuracy report written to %s@." path
     | None -> ());
    save_openmetrics openmetrics;
    report_checks ();
    match baseline with
    | None -> ()
    | Some path ->
      let b =
        try
          Core.Audit.of_json
            (In_channel.with_open_text path In_channel.input_all)
        with
        | Sys_error msg | Failure msg -> die "cannot load baseline: %s" msg
        | Obs.Json.Parse_error msg -> die "cannot load baseline: %s" msg
      in
      let g = Core.Audit.gate ~tolerance ~baseline:b report in
      Format.fprintf fmt "%a@." Core.Audit.pp_gate g;
      if not g.Core.Audit.g_pass then exit Cmd.Exit.some_error
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Audit macro-model accuracy against the reference estimator
             (per-application error table, JSON report, optional
             regression gate against a committed baseline)")
    Term.(const run $ model_arg $ json_arg $ out_arg $ baseline_arg
          $ tolerance_arg $ cache_dir_arg $ backend_arg $ log_file_arg
          $ openmetrics_arg $ jobs_arg)

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the daemon listens on (or, in
                   client mode, connects to).")
  in
  let max_models_arg =
    Arg.(value & opt int 4
         & info [ "max-models" ] ~docv:"N"
             ~doc:"Bound on resident characterized models; the least
                   recently used are evicted past it.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Back the evaluation cache on disk under $(docv), so
                   per-workload profiles survive daemon restarts.")
  in
  let model_file_arg =
    Arg.(value & opt (some string) None
         & info [ "model" ] ~docv:"FILE"
             ~doc:"Preload a fitted coefficients file as the model for
                   the default processor configuration, skipping the
                   first characterization.")
  in
  let io_timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "io-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-connection I/O deadline: a client that wedges
                   mid-frame, stops reading its response, or idles
                   longer is dropped.")
  in
  let max_conns_arg =
    Arg.(value & opt int 8
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Bound on concurrently served connections; clients
                   past it queue in the listen backlog.")
  in
  let read_timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Worker-pool read deadline: a simulation worker that
                   wedges past it is killed and its slice recomputed.
                   0 disables the deadline.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Warn-log any request slower than $(docv) milliseconds
                   (event serve:slow-request, carrying the trace id and
                   the per-phase time breakdown) and count it in
                   serve_slow_requests_total.")
  in
  let trace_file_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-file" ] ~docv:"FILE"
             ~doc:"Record request spans for the daemon's lifetime
                   (serve:<op> with phase:* children, client calls,
                   pool-worker lanes — one trace id per request end to
                   end) and save them as Chrome trace-event JSON to
                   $(docv) on shutdown.")
  in
  let call_arg =
    Arg.(value & opt_all string []
         & info [ "call" ] ~docv:"JSON"
             ~doc:"Client mode: send a request object to a running
                   daemon and print its response to stdout.  Repeat the
                   flag to batch several requests over one connection
                   (one response line each, in order).")
  in
  let scrape_arg =
    Arg.(value & flag
         & info [ "scrape" ]
             ~doc:"Client mode: print the daemon's OpenMetrics
                   exposition (the /metrics endpoint) to stdout.")
  in
  let ping_arg =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Client mode: liveness check.")
  in
  let status_arg =
    Arg.(value & flag
         & info [ "status" ]
             ~doc:"Client mode: print the daemon's live status (the
                   status op — rolling-window request/error rates and
                   latency quantiles per op, inflight gauges, registry
                   residency, cache and pool health) as JSON to
                   stdout.")
  in
  let stop_arg =
    Arg.(value & flag
         & info [ "stop" ]
             ~doc:"Client mode: ask the daemon to shut down.")
  in
  let wait_arg =
    Arg.(value & opt float 10.0
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"Client mode: how long to wait for the daemon to
                   answer pings before giving up (covers a daemon still
                   starting up).")
  in
  let timeout_arg =
    Arg.(value & opt float 600.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Client mode: response deadline for the request
                   itself (a cold estimate characterizes first — size
                   generously).")
  in
  let client_call ~socket ~timeout req =
    try Serve.Client.call ~timeout_s:timeout ~socket req
    with
    | Unix.Unix_error (e, _, _) ->
      die "cannot reach server at %s: %s" socket (Unix.error_message e)
    | Serve.Protocol.Frame_error msg -> die "%s" msg
    | Obs.Json.Parse_error msg -> die "malformed response: %s" msg
  in
  let response_ok = function
    | Obs.Json.Obj fields ->
      List.assoc_opt "ok" fields = Some (Obs.Json.Bool true)
    | _ -> false
  in
  let run socket max_models cache_dir model_file io_timeout max_conns
      read_timeout slow_ms trace_file call scrape ping status stop wait
      timeout backend log_file openmetrics jobs =
    (* Daemon mode: the process-wide default backend, overridable per
       request by the "backend" field.  Irrelevant in client mode. *)
    set_backend backend;
    setup_obs ~log_file ~openmetrics;
    let client_mode = call <> [] || scrape || ping || status || stop in
    if client_mode then begin
      if not (Serve.Client.wait_ready ~timeout_s:wait ~socket ()) then
        die "server at %s not answering after %.1f s" socket wait;
      if ping then begin
        let resp =
          client_call ~socket ~timeout (Obs.Json.Obj [ ("op", Obs.Json.Str "ping") ])
        in
        if not (response_ok resp) then die "ping refused";
        print_endline (Serve.Protocol.json_to_string resp)
      end;
      if status then begin
        let resp =
          client_call ~socket ~timeout
            (Obs.Json.Obj [ ("op", Obs.Json.Str "status") ])
        in
        if not (response_ok resp) then die "status refused";
        print_endline (Serve.Protocol.json_to_string resp)
      end;
      (match call with
       | [] -> ()
       | texts ->
         let reqs =
           List.map
             (fun text ->
               try Obs.Json.parse text
               with Obs.Json.Parse_error msg -> die "--call: %s" msg)
             texts
         in
         (* The response — success or a structured error — is the
            result; print each verbatim and let the caller inspect
            "ok".  A batch of --call flags shares one connection, so
            repeated calls amortize the connect and group under one
            correlation id in the daemon's log. *)
         (try
            Serve.Client.with_session ~socket (fun session ->
                List.iter
                  (fun req ->
                    print_endline
                      (Serve.Protocol.json_to_string
                         (Serve.Client.session_call ~timeout_s:timeout session
                            req)))
                  reqs)
          with
          | Unix.Unix_error (e, _, _) ->
            die "cannot reach server at %s: %s" socket (Unix.error_message e)
          | Serve.Protocol.Frame_error msg -> die "%s" msg
          | Obs.Json.Parse_error msg -> die "malformed response: %s" msg));
      if scrape then begin
        let resp =
          client_call ~socket ~timeout
            (Obs.Json.Obj [ ("op", Obs.Json.Str "metrics") ])
        in
        if not (response_ok resp) then die "metrics scrape refused";
        match resp with
        | Obs.Json.Obj fields -> (
          match List.assoc_opt "exposition" fields with
          | Some (Obs.Json.Str text) -> print_string text
          | _ -> die "malformed metrics response")
        | _ -> die "malformed metrics response"
      end;
      if stop then begin
        let resp =
          client_call ~socket ~timeout
            (Obs.Json.Obj [ ("op", Obs.Json.Str "shutdown") ])
        in
        if not (response_ok resp) then die "shutdown refused"
      end
    end
    else begin
      if max_models < 1 then die "--max-models must be >= 1";
      if io_timeout <= 0.0 then die "--io-timeout must be > 0";
      if max_conns < 1 then die "--max-conns must be >= 1";
      if read_timeout < 0.0 then die "--read-timeout must be >= 0";
      (match slow_ms with
       | Some ms when ms <= 0.0 -> die "--slow-ms must be > 0"
       | _ -> ());
      let read_timeout_s =
        if read_timeout = 0.0 then None else Some read_timeout
      in
      if trace_file <> None then Obs.Trace.set_enabled true;
      (* Metrics must be live before the router and any --model preload
         touch the registry, or the pre-listen residency gauge is lost. *)
      Obs.Metrics.set_enabled true;
      let router =
        Serve.Router.create ~max_models ?jobs ?read_timeout_s ?cache_dir
          ?slow_ms ()
      in
      (match model_file with
       | None -> ()
       | Some path ->
         let model =
           try Core.Template.load path
           with Sys_error msg | Failure msg -> die "cannot load model: %s" msg
         in
         Serve.Registry.preload (Serve.Router.registry router)
           Sim.Config.default model;
         Format.eprintf "model preloaded from %s@." path);
      Format.eprintf "serving on %s (stop with `xenergy serve --socket %s \
                      --stop')@." socket socket;
      (try
         Serve.Server.run ~io_timeout_s:io_timeout ~max_conns ~socket router
       with
       | Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
         die "a live daemon already answers on %s (stop it first, or \
              pick another socket)" socket
       | Unix.Unix_error (e, _, _) ->
         die "cannot serve on %s: %s" socket (Unix.error_message e));
      (match trace_file with
       | Some path ->
         (try Obs.Trace.save path
          with Sys_error msg -> die "cannot write trace: %s" msg);
         Format.eprintf "trace written to %s@." path
       | None -> ());
      save_openmetrics openmetrics
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived estimation daemon over a Unix-domain socket
             (characterize once per configuration, estimate from
             memory), or a client against one (--call/--scrape/--ping/
             --status/--stop)")
    Term.(const run $ socket_arg $ max_models_arg $ cache_dir_arg
          $ model_file_arg $ io_timeout_arg $ max_conns_arg
          $ read_timeout_arg $ slow_ms_arg $ trace_file_arg $ call_arg
          $ scrape_arg $ ping_arg $ status_arg $ stop_arg
          $ wait_arg $ timeout_arg $ backend_arg $ log_file_arg
          $ openmetrics_arg $ jobs_arg)

(* --- top ----------------------------------------------------------------- *)

let top_cmd =
  let module J = Obs.Json in
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the daemon to watch.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh period between status polls.  The daemon's
                   rolling window sharpens to this cadence after the
                   first couple of refreshes.")
  in
  let iterations_arg =
    Arg.(value & opt int 0
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Stop after $(docv) refreshes (0: run until
                   interrupted).  $(b,--iterations 1) prints one
                   snapshot and exits, for scripts and smoke tests.")
  in
  let wait_arg =
    Arg.(value & opt float 10.0
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"How long to wait for the daemon to answer pings
                   before giving up.")
  in
  let field name = function J.Obj f -> List.assoc_opt name f | _ -> None in
  let numf ?(default = 0.0) name j =
    match field name j with Some (J.Num x) -> x | _ -> default
  in
  let strf name j = match field name j with Some (J.Str s) -> s | _ -> "?" in
  let sub name j = match field name j with Some o -> o | None -> J.Obj [] in
  (* Latency cells render "-" until the op has a histogram to estimate
     from (quantiles are Null on an empty window). *)
  let ms_cell name j =
    match field name j with
    | Some (J.Num x) -> Printf.sprintf "%8.2f" x
    | _ -> Printf.sprintf "%8s" "-"
  in
  let render status =
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let conn = sub "connections" status in
    let pool = sub "pool" status in
    let reg = sub "registry" status in
    let cache = sub "cache" status in
    line "xenergy top - pid %.0f  up %.1f s  backend %s  window %.0f s (dt %.1f s)"
      (numf "pid" status) (numf "uptime_s" status) (strf "backend" status)
      (numf "window_s" status) (numf "window_dt_s" status);
    line "requests %.0f  inflight %.0f  connections %.0f active / %.0f total  pool %.0f/%.0f lanes live"
      (numf "requests" status) (numf "inflight" status)
      (numf "active" conn) (numf "total" conn)
      (numf "live" pool) (numf "lanes" pool);
    line "registry %.0f models (hit %.0f miss %.0f evict %.0f)  cache hit %.0f miss %.0f store %.0f err %.0f"
      (numf "models" reg) (numf "hits" reg) (numf "misses" reg)
      (numf "evictions" reg)
      (numf "hits" cache) (numf "misses" cache) (numf "stores" cache)
      (numf "errors" cache);
    line "";
    line "%-10s %8s %6s %6s %6s %9s %9s %8s %8s %8s"
      "OP" "REQ" "ERR" "SLOW" "INFL" "RATE/S" "ERR/S" "P50ms" "P90ms" "P99ms";
    (match field "ops" status with
     | Some (J.Arr rows) ->
       List.iter
         (fun row ->
           let w = sub "window" row in
           line "%-10s %8.0f %6.0f %6.0f %6.0f %9.2f %9.2f %s %s %s"
             (strf "op" row) (numf "requests" row) (numf "errors" row)
             (numf "slow" row) (numf "inflight" row)
             (numf "rate_hz" w) (numf "error_rate_hz" w)
             (ms_cell "p50_ms" w) (ms_cell "p90_ms" w) (ms_cell "p99_ms" w))
         rows
     | _ -> ());
    Buffer.contents b
  in
  let run socket interval iterations wait =
    if interval <= 0.0 then die "--interval must be > 0";
    if iterations < 0 then die "--iterations must be >= 0";
    if not (Serve.Client.wait_ready ~timeout_s:wait ~socket ()) then
      die "server at %s not answering after %.1f s" socket wait;
    (* Refresh in place only on an interactive terminal; piped output
       (scripts, CI smoke) gets plain concatenated frames. *)
    let clear = Unix.isatty Unix.stdout in
    let req = J.Obj [ ("op", J.Str "status") ] in
    let connect () =
      try Serve.Client.connect ~socket
      with Unix.Unix_error (e, _, _) ->
        die "cannot reach server at %s: %s" socket (Unix.error_message e)
    in
    let poll session =
      try Serve.Client.session_call ~timeout_s:10.0 session req
      with
      | Unix.Unix_error (e, _, _) ->
        die "lost the daemon at %s: %s" socket (Unix.error_message e)
      | Serve.Protocol.Frame_error msg -> die "%s" msg
      | Obs.Json.Parse_error msg -> die "malformed response: %s" msg
    in
    let rec loop session n =
      (* The daemon's io-timeout drops sessions idle longer than it, so
         a leisurely --interval needs a quiet reconnect between polls. *)
      let status, session =
        match Serve.Client.session_call ~timeout_s:10.0 session req with
        | resp -> (resp, session)
        | exception (Serve.Protocol.Frame_error _ | Unix.Unix_error _) ->
          Serve.Client.close session;
          let session = connect () in
          (poll session, session)
      in
      (match status with
       | J.Obj fields when List.assoc_opt "ok" fields = Some (J.Bool true) ->
         ()
       | _ -> die "status refused by the daemon at %s" socket);
      if clear then print_string "\027[2J\027[H";
      print_string (render status);
      flush stdout;
      if iterations = 0 || n < iterations then begin
        Unix.sleepf interval;
        loop session (n + 1)
      end
      else Serve.Client.close session
    in
    loop (connect ()) 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard against a running estimation daemon: polls
             the status op and renders per-op request/error rates,
             rolling-window latency quantiles, inflight gauges and
             registry/cache/pool health, refreshing in place.")
    Term.(const run $ socket_arg $ interval_arg $ iterations_arg $ wait_arg)

(* --- rs ------------------------------------------------------------------ *)

let rs_cmd =
  let run model_path =
    let model = load_or_fit model_path in
    let table =
      Core.Evaluate.compare_cases model (Workloads.Suite.reed_solomon_choices ())
    in
    Format.fprintf fmt "%a@." Core.Evaluate.pp_table table;
    Format.fprintf fmt "correlation %.4f, rank agreement %b@."
      (Core.Evaluate.correlation table)
      (Core.Evaluate.rank_agreement table)
  in
  Cmd.v
    (Cmd.info "rs" ~doc:"Fig 4: Reed-Solomon custom-instruction choices")
    Term.(const run $ model_arg)

let main_cmd =
  let doc = "Energy estimation for extensible processors" in
  Cmd.group (Cmd.info "xenergy" ~version:"1.0.0" ~doc)
    [ list_cmd; profile_cmd; reference_cmd; characterize_cmd; estimate_cmd;
      attribute_cmd; compare_cmd; rs_cmd; explore_cmd; audit_cmd; serve_cmd;
      top_cmd; cache_cmd; disasm_cmd; breakdown_cmd; trace_cmd; run_cmd;
      cc_cmd ]

let () =
  (* Any command can stream structured logs via the environment, without
     growing a flag: XENERGY_LOG=FILE xenergy ... — and select the
     simulation backend the same way: XENERGY_BACKEND=threaded|check
     (the per-command --backend flag wins). *)
  Obs.Log.init_from_env ();
  Sim.Backend.init_from_env ();
  exit (Cmd.eval main_cmd)
