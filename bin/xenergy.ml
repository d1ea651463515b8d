(* xenergy: command-line driver for the extensible-processor energy
   estimation flow (`xenergy --help' lists the commands).  The
   model-driven commands run the [Serve.Service] ops the daemon answers
   requests with.  Every command honours XENERGY_LOG=FILE,
   XENERGY_LOG_LEVEL and XENERGY_BACKEND (the --backend flag wins). *)

open Cmdliner

let fmt = Format.std_formatter

let print_json j = print_endline (Obs.Json.print j)

(* A failure ends the command: its message goes to stderr after
   "xenergy: " with Cmdliner's some_error exit code (see the end of this
   file), keeping stdout clean for pipeline consumers. *)
let die fmt = Printf.ksprintf failwith fmt

(* Write one output file with [save], dying with "cannot write [what]"
   on an I/O error, then say "[said] written to PATH[note]" on [ppf]. *)
let write_file ppf ~what ?(said = what) ?(note = "") save = function
  | None -> ()
  | Some path ->
    (try save path with Sys_error msg -> die "cannot write %s: %s" what msg);
    Format.fprintf ppf "%s written to %s%s@." said path note

let save_text path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

(* Options are built by a few constructors taking the doc text, so an
   option several commands share is defined once. *)
let opt_arg kind default names docv doc =
  Arg.(value & opt kind default & info names ~docv ~doc)

let flag_arg names doc = Arg.(value & flag & info names ~doc)
let file_opt names = opt_arg Arg.(some string) None names "FILE"
let out_arg = file_opt [ "o"; "output" ]
let trace_arg = file_opt [ "trace" ]
let metrics_arg = file_opt [ "metrics" ]
let json_arg = flag_arg [ "json" ]
let cache_dir_arg = opt_arg Arg.(some string) None [ "cache-dir" ] "DIR"

let jobs_arg =
  opt_arg Arg.(some int) None [ "j"; "jobs" ] "N"
    "Number of worker processes for characterization (also the
     $(b,XENERGY_JOBS) environment variable; defaults to the available
     cores)."

let backend_arg =
  opt_arg Arg.(some string) None [ "backend" ] "NAME"
    "Simulation backend: $(b,threaded) (the default: pre-decoded
     threaded code), $(b,interp) (the reference interpreter, decode per
     retirement; bit-identical results, several times slower) or
     $(b,check) (run both and fail on any divergence from the
     reference).  Also the $(b,XENERGY_BACKEND) environment variable;
     the flag wins."

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
  file_opt [ "log-file" ]
    "Append JSON-lines structured log records (one object per
     line: ts_us on the trace clock, level, tid, pid, event,
     fields) to $(docv).  The $(b,XENERGY_LOG) environment
     variable opens the same sink for any command; \
     $(b,XENERGY_LOG_LEVEL) sets the severity floor."

let openmetrics_arg =
  file_opt [ "openmetrics" ]
    "Save the metrics registry in OpenMetrics (Prometheus
     text exposition) format to $(docv); implies metrics
     recording."

(* The flags profile, characterize, explore, audit and serve share, as
   one term whose value wraps the command: select the backend and open
   the log sink, run the command with the --jobs value, then save the
   OpenMetrics exposition and report the dual runs. *)
let common_term () =
  let wrap backend log_file openmetrics jobs f =
    set_backend backend;
    (match log_file with
     | Some path -> (
       try Obs.Log.open_file path
       with Sys_error msg -> die "cannot open log file: %s" msg)
     | None -> ());
    if openmetrics <> None then Obs.Metrics.set_enabled true;
    let r = f jobs in
    write_file Format.err_formatter ~what:"OpenMetrics exposition"
      Obs.Export.save openmetrics;
    report_checks ();
    r
  in
  Term.(const wrap $ backend_arg $ log_file_arg $ openmetrics_arg $ jobs_arg)

(* --trace/--metrics of characterize and explore: record while the
   command runs, then save each file and say so on [ppf]. *)
let recording ppf ~trace ~metrics f =
  if trace <> None then Obs.Trace.set_enabled true;
  if metrics <> None then Obs.Metrics.set_enabled true;
  let r = f () in
  write_file ppf ~what:"trace"
    ~note:" (open in chrome://tracing or https://ui.perfetto.dev)"
    Obs.Trace.save trace;
  write_file ppf ~what:"metrics" Obs.Metrics.save metrics;
  r

(* The service behind the model-driven commands: the -m file preloaded,
   or a characterization on the first model lookup. *)
let service ?jobs ?cache_dir model =
  Serve.Service.create ?jobs ~cache:(Core.Eval_cache.create ?dir:cache_dir ())
    ?model
    ~on_characterize:(fun () ->
      Format.eprintf "characterizing (no model file given)...@.")
    ()

let model_arg =
  file_opt [ "m"; "model" ]
    "Read macro-model coefficients from $(docv) instead of
     re-characterizing."

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.fprintf fmt "@[<v>";
    List.iter
      (fun (title, suite) ->
        Format.fprintf fmt "%s:@," title;
        List.iter
          (fun c -> Format.fprintf fmt "  %s@," c.Core.Extract.case_name)
          (suite ()))
      Workloads.Suite.
        [ ("characterization suite", characterization);
          ("applications", applications);
          ("reed-solomon choices", reed_solomon_choices);
          ("compiled Tiny-C applications", c_applications) ];
    Format.fprintf fmt "@]@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List all workloads")
    Term.(const run $ const ())

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let top_arg =
    opt_arg Arg.int 10 [ "top" ] "N"
      "Rows in the hottest-blocks table."
  in
  let json_arg =
    json_arg
      "Emit the full profile as JSON (every executed block, so
       the conservation sums can be checked downstream;
       energies in pJ)."
  in
  let folded_arg =
    file_opt [ "folded" ]
      "Write flame-graph collapsed stacks (one
       $(i,stack count) line per call path x block, counts in
       cycles) to $(docv) — feed to flamegraph.pl or
       speedscope."
  in
  let folded_energy_arg =
    file_opt [ "folded-energy" ]
      "Like $(b,--folded) but with counts in rounded
       picojoules: an energy flame graph."
  in
  let annotate_arg =
    flag_arg [ "annotate" ]
      "Print the annotated disassembly: every instruction with
       its retirement count and cycle/energy shares."
  in
  let per_opcode_arg =
    flag_arg [ "per-opcode" ]
      "Print the per-opcode histogram (counts, cycles, energy
       by mnemonic)."
  in
  let run model_path name top json folded folded_energy annotate per_opcode
      with_common =
    with_common @@ fun jobs ->
    let r, _ = Serve.Service.profile (service ?jobs model_path) ~top name in
    if json then print_json (Core.Profiler.to_json r)
    else begin
      Format.fprintf fmt "%a@." (Core.Profiler.pp_table ~top) r;
      if per_opcode then
        Format.fprintf fmt "@.%a@." Core.Profiler.pp_opcodes r;
      if annotate then
        Format.fprintf fmt "@.%a@." Core.Profiler.pp_annotate r
    end;
    let write_folded what ?energy =
      write_file Format.err_formatter ~what (fun path ->
          save_text path (Core.Profiler.folded_lines ?energy r))
    in
    write_folded "folded stacks" folded;
    write_folded "energy folded stacks" ~energy:true folded_energy
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Hotspot profile of one workload: per-basic-block cycles,
             stalls, cache misses and exact macro-model energy
             (conservation-checked), plus flame-graph and
             annotated-disassembly output")
    Term.(const run $ model_arg $ name_arg $ top_arg $ json_arg $ folded_arg
          $ folded_energy_arg $ annotate_arg $ per_opcode_arg $ common_term ())

(* --- reference ----------------------------------------------------------- *)

(* Run a workload under the reference estimator, print its counts and
   hand the estimator back (shared by [reference] and [breakdown]). *)
let reference_run name =
  let c = Serve.Service.find_case name in
  let est =
    Power.Estimator.create ?extension:c.Core.Extract.extension
      Sim.Config.default
  in
  let cpu, _ =
    Sim.Backend.run_program ?extension:c.Core.Extract.extension
      ~hook:(Power.Estimator.hook est c.Core.Extract.asm)
      c.Core.Extract.asm
  in
  Format.fprintf fmt "%s: %d instructions, %d cycles@." name
    (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu);
  est

let reference_cmd =
  let run name =
    Format.fprintf fmt "reference energy: %a@." Power.Report.pp_energy
      (Power.Estimator.total_energy (reference_run name))
  in
  Cmd.v
    (Cmd.info "reference"
       ~doc:"Reference (RTL-level) energy of one workload")
    Term.(const run $ name_arg)

(* --- characterize -------------------------------------------------------- *)

let characterize_cmd =
  let out_arg = out_arg "Save fitted coefficients to $(docv)." in
  let report_arg =
    file_opt [ "report" ]
      "Print the per-workload run report (wall time, cycles,
       cache misses, energy, simulation count) and save it as
       JSON to $(docv)."
  in
  let trace_arg =
    trace_arg
      "Record spans for the whole pipeline (simulate, extract,
       fit, cross-validate, per-worker lanes) and save them as
       Chrome trace-event JSON to $(docv) — loadable in
       chrome://tracing or Perfetto."
  in
  let metrics_arg =
    metrics_arg
      "Record the metrics registry (simulator retirement
       counters, NNLS iterations, worker-pool degradations)
       and save it as JSON to $(docv)."
  in
  let run out report trace metrics with_common =
    with_common @@ fun jobs ->
    recording fmt ~trace ~metrics @@ fun () ->
    let fit, loo, run_report =
      Serve.Service.characterize (Serve.Service.create ?jobs ())
    in
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
    if report <> None then
      Format.fprintf fmt "@.%a@." Core.Run_report.pp run_report;
    write_file fmt ~what:"run report"
      (fun path -> Core.Run_report.save path run_report)
      report;
    write_file fmt ~what:"coefficients"
      (fun path -> Core.Template.save path fit.Core.Characterize.model)
      out
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Fit the macro-model on the characterization suite")
    Term.(const run $ out_arg $ report_arg $ trace_arg $ metrics_arg
          $ common_term ())

(* --- estimate ------------------------------------------------------------ *)

let estimate_cmd =
  let run model_path name backend =
    set_backend backend;
    let rows, _ = Serve.Service.estimate (service model_path) [ name ] in
    let r, _ = List.hd rows in
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
    json_arg
      "Emit the breakdown as JSON (energies in pJ, units
       stated in the document) instead of the table."
  in
  let bucket_arg =
    opt_arg Arg.int 64 [ "bucket" ] "CYCLES"
      "Waveform bucket width in cycles."
  in
  let run model_path name json bucket jobs =
    (* One simulation feeds both decompositions: the attribution engine
       and the reference estimator share its retire hook. *)
    let reference = ref None in
    let hook (c : Core.Extract.case) =
      let est =
        Power.Estimator.create ?extension:c.Core.Extract.extension
          Sim.Config.default
      in
      let wf = Obs.Waveform.create ~bucket_cycles:bucket () in
      reference := Some (est, wf);
      Power.Estimator.hook ~waveform:wf est c.Core.Extract.asm
    in
    let b, _ =
      Serve.Service.attribute (service ?jobs model_path) ~bucket_cycles:bucket
        ~hook name
    in
    let est, ref_wf = Option.get !reference in
    let ref_pj = Power.Estimator.total_energy est in
    if json then
      print_json
        (Obs.Json.Obj
           [ ("attribution", Core.Attribution.to_json b);
             ("reference_energy_pj", Obs.Json.Num ref_pj);
             ("reference_waveform", Obs.Waveform.to_json ref_wf) ])
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

(* Shared by [compare] and [rs]: an audit of a suite, one simulation
   per program, printed as a Table II listing. *)
let print_comparison suite model_path =
  let workloads = List.map (fun c -> c.Core.Extract.case_name) (suite ()) in
  let report, _ = Serve.Service.audit (service model_path) ~workloads () in
  Format.fprintf fmt "%a@." Core.Evaluate.pp_table report;
  report_checks ();
  report

let compare_cmd =
  let run model_path =
    ignore (print_comparison Workloads.Suite.applications model_path)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Table II: applications, macro-model vs reference")
    Term.(const run $ model_arg)

(* --- disasm ---------------------------------------------------------------- *)

let disasm_cmd =
  let run name =
    let c = Serve.Service.find_case name in
    Format.fprintf fmt "%a@." Isa.Program.pp_listing c.Core.Extract.asm
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassembly listing of a workload")
    Term.(const run $ name_arg)

(* --- breakdown ------------------------------------------------------------- *)

let breakdown_cmd =
  let run name =
    Format.fprintf fmt "%a@." Power.Report.pp_breakdown
      (Power.Estimator.breakdown (reference_run name))
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Per-block reference-energy breakdown of a workload")
    Term.(const run $ name_arg)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let count_arg =
    opt_arg Arg.int 40 [ "n"; "count" ] "N"
      "Number of instructions to trace."
  in
  let run name count =
    let c = Serve.Service.find_case name in
    let est =
      Power.Estimator.create ?extension:c.Core.Extract.extension
        Sim.Config.default
    in
    let shown = ref 0 in
    let prev_energy = ref 0.0 in
    Format.fprintf fmt "%8s %8s %6s %-25s %3s %10s@." "cycle" "pc" "cyc"
      "instruction" "flg" "energy pJ";
    (* On the interpreter the hook charges a retirement before the
       observers see its event, so each event reads its own delta. *)
    let obs e =
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
      Sim.Backend.run_program ~backend:Sim.Backend.Interp
        ?extension:c.Core.Extract.extension
        ~hook:(Power.Estimator.hook est c.Core.Extract.asm)
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

(* --- run / cc: external programs -------------------------------------------- *)

let extension_of_name = function
  | None -> None
  | Some n -> (
    match Workloads.Tie_lib.by_name n with
    | Some e -> Some e
    | None ->
      die "unknown extension %S; available: %s" n
        (String.concat ", " Workloads.Tie_lib.extension_names))

(* Profile the program with the reference estimator on its retire hook
   (one simulation), let [header] print from the profile (and its final
   CPU), then print the reference energy and the macro-model estimate
   with its error. *)
let estimate_external ~model_path ?extension ~name ~header asm =
  let est = Power.Estimator.create ?extension Sim.Config.default in
  let profile =
    Core.Extract.profile ~hook:(Power.Estimator.hook est asm)
      (Core.Extract.case ?extension name asm)
  in
  let ref_pj = Power.Estimator.total_energy est in
  header profile;
  Format.fprintf fmt "reference energy: %a@." Power.Report.pp_energy ref_pj;
  let est =
    Core.Estimate.of_profile (Serve.Service.model (service model_path)) profile
  in
  Format.fprintf fmt "macro-model estimate: %a (error %+.2f%%)@."
    Power.Report.pp_energy est.Core.Estimate.energy_pj
    (100.0 *. (est.Core.Estimate.energy_pj -. ref_pj) /. ref_pj)

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  let ext_arg =
    opt_arg Arg.(some string) None [ "e"; "extension" ] "NAME"
      "Install a named custom-instruction extension (one of:
       mac, add4, blend, des, gf, gfmac, gf4, cover_*)."
  in
  let run model_path file ext_name =
    let source = In_channel.with_open_text file In_channel.input_all in
    let program =
      try Isa.Asm_parser.parse_string ~name:(Filename.basename file) source
      with Isa.Asm_parser.Parse_error (line, msg) ->
        die "%s:%d: %s" file line msg
    in
    let extension = extension_of_name ext_name in
    let asm =
      try Isa.Program.assemble program
      with Isa.Program.Assembly_error msg -> die "%s: %s" file msg
    in
    estimate_external ~model_path ?extension ~name:"user" asm
      ~header:(Format.fprintf fmt "%a@." Core.Extract.pp_profile)
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
    opt_arg Arg.(some string) None [ "e"; "extension" ] "NAME"
      "Install a named custom-instruction extension."
  in
  let listing_arg =
    flag_arg [ "S"; "listing" ] "Print the generated assembly."
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
    let extension = extension_of_name ext_name in
    estimate_external ~model_path ?extension ~name:"c-program"
      compiled.Cc.Codegen.c_asm ~header:(fun profile ->
        Format.fprintf fmt "main returned %d (%d instructions, %d cycles)@."
          (Sim.Cpu.reg profile.Core.Extract.cpu (Isa.Reg.a 10))
          profile.Core.Extract.instructions profile.Core.Extract.cycles)
  in
  Cmd.v
    (Cmd.info "cc"
       ~doc:"Compile a Tiny-C file, simulate it and estimate its energy")
    Term.(const run $ model_arg $ file_arg $ ext_arg $ listing_arg)

(* --- explore -------------------------------------------------------------- *)

let explore_cmd =
  let space_arg =
    opt_arg Arg.string "rs-cache" [ "space" ] "NAME"
      (Printf.sprintf "Candidate space to sweep (one of: %s)."
         (String.concat ", " Workloads.Spaces.names))
  in
  let cache_dir_arg =
    cache_dir_arg
      "Memoize simulation results as one JSON file per entry
       under $(docv); a later sweep over overlapping
       candidates (or the same sweep re-run) reuses them
       instead of re-simulating.  Corrupted or unwritable
       entries fall back to recompute."
  in
  let cache_max_bytes_arg =
    opt_arg Arg.(some int) None [ "cache-max-bytes" ] "BYTES"
      "Cap the on-disk cache at $(docv) bytes of entry
       payload: a store that crosses the bound runs LRU
       eviction inline, down to three quarters of the bound
       (no manual $(b,cache prune) needed).
       Requires $(b,--cache-dir)."
  in
  let progress_arg =
    flag_arg [ "progress" ]
      "Print a heartbeat to stderr between evaluation chunks:
       done/total, cache hits/misses, current frontier size,
       elapsed time and ETA."
  in
  let explain_arg =
    flag_arg [ "explain" ]
      "Decompose each Pareto-frontier candidate's energy
       across the macro-model variables (exact — the model is
       linear — and free: computed from the cached variable
       vectors, no extra simulation)."
  in
  let pareto_arg =
    flag_arg [ "pareto" ] "Restrict the table/CSV rows to the Pareto frontier."
  in
  let profile_top_arg =
    opt_arg Arg.(some int) None [ "profile-top" ] "N"
      "Profile each Pareto-frontier candidate (one extra
       observed simulation per point) and dump its $(docv)
       hottest basic blocks — per-block cycles, stalls and
       exact macro-model energy."
  in
  let json_arg =
    json_arg
      "Emit the sweep as JSON (energies in pJ/uJ, units
       stated in the document) instead of the table."
  in
  let csv_arg = flag_arg [ "csv" ] "Emit the sweep as CSV." in
  let out_arg = out_arg "Also write the rendered output to $(docv)." in
  let trace_arg =
    trace_arg
      "Record Chrome trace-event spans for the sweep
       (per-config characterization, per-candidate
       simulations, cache hit instants) to $(docv)."
  in
  let metrics_arg =
    metrics_arg
      "Save the metrics registry (cache hit/miss/error
       counters, simulator and worker-pool counters) as JSON
       to $(docv)."
  in
  let run space cache_dir cache_max_bytes progress explain pareto profile_top
      json csv out trace metrics with_common =
    with_common @@ fun jobs ->
    if json && csv then die "--json and --csv are mutually exclusive";
    if cache_max_bytes <> None && cache_dir = None then
      die "--cache-max-bytes requires --cache-dir";
    (match profile_top with
     | Some n when n <= 0 -> die "--profile-top must be positive"
     | _ -> ());
    (match cache_max_bytes with
     | Some n when n < 0 -> die "--cache-max-bytes must be >= 0"
     | _ -> ());
    recording Format.err_formatter ~trace ~metrics @@ fun () ->
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
    let outcome, _ =
      Serve.Service.explore (Serve.Service.create ?jobs ~cache ())
        ~progress:heartbeat ~explain ?profile_top space
    in
    let rendered =
      if json then Obs.Json.print (Core.Explore.to_json outcome) ^ "\n"
      else if csv then Core.Explore.to_csv ~pareto_only:pareto outcome
      else
        Format.asprintf "%a@."
          (fun ppf -> Core.Explore.pp ~pareto_only:pareto ppf)
          outcome
    in
    print_string rendered;
    write_file Format.err_formatter ~what:"output" ~said:"sweep"
      (fun path -> save_text path rendered)
      out
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Design-space exploration: sweep a candidate space through
             the macro-model (memoized) and extract the
             energy/performance Pareto frontier")
    Term.(const run $ space_arg $ cache_dir_arg $ cache_max_bytes_arg
          $ progress_arg $ explain_arg $ pareto_arg $ profile_top_arg
          $ json_arg $ csv_arg $ out_arg $ trace_arg $ metrics_arg
          $ common_term ())

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
    let json_arg = json_arg "Emit the inventory as JSON." in
    let run dir json =
      require_dir dir;
      let s = Core.Eval_cache.disk_stats dir in
      let now = Unix.gettimeofday () in
      if json then
        let age_s = function
          | None -> Obs.Json.Null
          | Some t -> Obs.Json.Num (Float.max 0.0 (now -. t))
        in
        print_json
          (Obs.Json.Obj
             [ ("entries", Obs.Json.int s.Core.Eval_cache.d_entries);
               ("bytes", Obs.Json.int s.Core.Eval_cache.d_bytes);
               ("oldest_age_seconds", age_s s.Core.Eval_cache.d_oldest);
               ("newest_age_seconds", age_s s.Core.Eval_cache.d_newest) ])
      else
        Format.fprintf fmt
          "%s: %d entr%s, %s@.least recently used: %s@.most recently \
           used: %s@."
          dir s.Core.Eval_cache.d_entries
          (if s.Core.Eval_cache.d_entries = 1 then "y" else "ies")
          (human_bytes s.Core.Eval_cache.d_bytes)
          (age now s.Core.Eval_cache.d_oldest)
          (age now s.Core.Eval_cache.d_newest)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Inventory of a cache directory (entries,
                              bytes, least and most recent use)")
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
      opt_arg Arg.(some int) None [ "max-entries" ] "N"
        "Keep at most $(docv) entries (LRU by each entry file's
         last-use time, its mtime)."
    in
    let max_bytes_arg =
      opt_arg Arg.(some int) None [ "max-bytes" ] "BYTES"
        "Keep at most $(docv) bytes of entry payload."
    in
    let max_age_arg =
      opt_arg Arg.(some float) None [ "max-age" ] "DAYS"
        "Evict entries unused for more than $(docv) days
         (fractional values allowed)."
    in
    let run dir max_entries max_bytes max_age =
      require_dir dir;
      if max_entries = None && max_bytes = None && max_age = None then
        die "prune: give at least one of --max-entries, --max-bytes, \
             --max-age";
      let nonneg flag = function
        | Some x when x < 0.0 -> die "prune: --%s must be >= 0" flag
        | _ -> ()
      in
      nonneg "max-entries" (Option.map float_of_int max_entries);
      nonneg "max-bytes" (Option.map float_of_int max_bytes);
      nonneg "max-age" max_age;
      let policy =
        { Core.Eval_cache.max_entries; max_bytes;
          max_age_s = Option.map (fun d -> d *. 86400.0) max_age }
      in
      let r = Core.Eval_cache.prune ~policy dir in
      Format.fprintf fmt
        "%s: evicted %d entr%s (%s), kept %d (%s)@."
        dir r.Core.Eval_cache.p_evicted
        (if r.Core.Eval_cache.p_evicted = 1 then "y" else "ies")
        (human_bytes r.Core.Eval_cache.p_evicted_bytes)
        r.Core.Eval_cache.p_kept
        (human_bytes r.Core.Eval_cache.p_kept_bytes)
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
        "%s: removed %d orphaned tmp file%s and %d foreign file%s@."
        dir r.Core.Eval_cache.g_tmp_removed
        (if r.Core.Eval_cache.g_tmp_removed = 1 then "" else "s")
        r.Core.Eval_cache.g_foreign_removed
        (if r.Core.Eval_cache.g_foreign_removed = 1 then "" else "s")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Remove orphaned *.tmp files and files that are not cache
               entries")
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
    json_arg
      "Emit the accuracy report as JSON (the same document
       $(b,-o) writes) instead of the table."
  in
  let out_arg =
    out_arg
      "Write the accuracy report as JSON to $(docv) — the
       format committed as a baseline (BENCH_accuracy.json)."
  in
  let baseline_arg =
    file_opt [ "baseline" ]
      "Gate against a committed accuracy baseline: fail
       (non-zero exit) when this audit's mean absolute error
       exceeds the baseline's by more than the tolerance
       factor."
  in
  let tolerance_arg =
    opt_arg Arg.float 2.0 [ "tolerance" ] "FACTOR"
      "Allowed regression factor for the baseline gate: pass
       while mean |error| <= baseline mean |error| x $(docv)."
  in
  let cache_dir_arg =
    cache_dir_arg
      "Memoize the reference-observed simulations under
       $(docv); a warm audit costs zero simulations."
  in
  let run model_path json out baseline tolerance cache_dir with_common =
    let report =
      with_common @@ fun jobs ->
      if tolerance <= 0.0 then die "--tolerance must be > 0";
      let report, _ =
        Serve.Service.audit (service ?jobs ?cache_dir model_path) ()
      in
      if json then print_json (Core.Audit.to_json report)
      else Format.fprintf fmt "%a@." Core.Audit.pp report;
      write_file Format.err_formatter ~what:"accuracy report"
        (fun path -> Obs.Json.save path (Core.Audit.to_json report))
        out;
      report
    in
    match baseline with
    | None -> ()
    | Some path ->
      let b =
        try
          Core.Audit.of_json
            (In_channel.with_open_text path In_channel.input_all)
        with Sys_error msg | Failure msg | Obs.Json.Parse_error msg ->
          die "cannot load baseline: %s" msg
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
          $ tolerance_arg $ cache_dir_arg $ common_term ())

(* --- serve ---------------------------------------------------------------- *)

(* Client mode of serve and top: wait for the daemon, or end the command. *)
let await_daemon ~socket wait =
  if not (Serve.Client.wait_ready ~timeout_s:wait ~socket ()) then
    die "server at %s not answering after %.1f s" socket wait

(* Transport failures of a client exchange end the command; [lost]
   words the message for an unreachable daemon. *)
let or_die ?(lost = "cannot reach server at") ~socket f =
  try f ()
  with
  | Unix.Unix_error (e, _, _) ->
    die "%s %s: %s" lost socket (Unix.error_message e)
  | Serve.Protocol.Frame_error msg -> die "%s" msg
  | Obs.Json.Parse_error msg -> die "malformed response: %s" msg

(* One exchange with the daemon: a transport failure or a refusal (no
   ["ok": true]) ends the command, the latter with [refused]. *)
let request ?lost ~socket ~refused send =
  match or_die ?lost ~socket send with
  | Obs.Json.Obj fields as resp
    when List.assoc_opt "ok" fields = Some (Obs.Json.Bool true) ->
    resp
  | _ -> die "%s" refused

let socket_arg doc =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let socket_arg =
    socket_arg
      "Unix-domain socket the daemon listens on (or, in
       client mode, connects to)."
  in
  let cache_dir_arg =
    cache_dir_arg
      "Back the evaluation cache on disk under $(docv), so
       per-workload profiles survive daemon restarts."
  in
  let model_file_arg =
    file_opt [ "model" ]
      "Preload a fitted coefficients file as the model for
       the default processor configuration, skipping the
       first characterization."
  in
  let io_timeout_arg =
    opt_arg Arg.float 10.0 [ "io-timeout" ] "SECONDS"
      "Per-connection I/O deadline: a client that wedges
       mid-frame, stops reading its response, or idles
       longer is dropped."
  in
  let max_conns_arg =
    opt_arg Arg.int 8 [ "max-conns" ] "N"
      "Bound on concurrently served connections; clients
       past it queue in the listen backlog."
  in
  let read_timeout_arg =
    opt_arg Arg.float 30.0 [ "read-timeout" ] "SECONDS"
      "Worker-pool read deadline: a simulation worker that
       wedges past it is killed and its slice recomputed.
       0 disables the deadline."
  in
  let slow_ms_arg =
    opt_arg Arg.(some float) None [ "slow-ms" ] "MS"
      "Warn-log any request slower than $(docv) milliseconds
       (event serve:slow-request, carrying the trace id and
       the per-phase time breakdown) and count it in
       serve_slow_requests_total."
  in
  let trace_file_arg =
    file_opt [ "trace-file" ]
      "Record request spans for the daemon's lifetime
       (serve:<op> with phase:* children, client calls,
       pool-worker lanes — one trace id per request end to
       end) and save them as Chrome trace-event JSON to
       $(docv) on shutdown."
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
    flag_arg [ "scrape" ]
      "Client mode: print the daemon's OpenMetrics
       exposition (the /metrics endpoint) to stdout."
  in
  let ping_arg = flag_arg [ "ping" ] "Client mode: liveness check." in
  let status_arg =
    flag_arg [ "status" ]
      "Client mode: print the daemon's live status (the
       status op — rolling-window request/error rates and
       latency quantiles per op, inflight gauges, registry
       residency, cache and pool health) as JSON to
       stdout."
  in
  let stop_arg = flag_arg [ "stop" ] "Client mode: ask the daemon to shut down." in
  let wait_arg =
    opt_arg Arg.float 10.0 [ "wait" ] "SECONDS"
      "Client mode: how long to wait for the daemon to
       answer pings before giving up (covers a daemon still
       starting up)."
  in
  let timeout_arg =
    opt_arg Arg.float 600.0 [ "timeout" ] "SECONDS"
      "Client mode: response deadline for the request
       itself (a cold estimate characterizes first — size
       generously)."
  in
  (* A one-op request on its own connection; a refusal names the op. *)
  let call_op ~socket ~timeout ~refused op =
    request ~socket ~refused:(refused ^ " refused") (fun () ->
        Serve.Client.call ~timeout_s:timeout ~socket
          (Obs.Json.Obj [ ("op", Obs.Json.Str op) ]))
  in
  let run socket cache_dir model_file io_timeout max_conns read_timeout
      slow_ms trace_file call scrape ping status stop wait timeout
      with_common =
    (* Daemon mode: the process-wide default backend, overridable per
       request by the "backend" field.  Irrelevant in client mode. *)
    with_common @@ fun jobs ->
    let client_mode = call <> [] || scrape || ping || status || stop in
    if client_mode then begin
      await_daemon ~socket wait;
      if ping then
        print_json (call_op ~socket ~timeout ~refused:"ping" "ping");
      if status then
        print_json (call_op ~socket ~timeout ~refused:"status" "status");
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
            repeated calls amortize the connect; each request still gets
            its own trace id in the daemon's log. *)
         or_die ~socket (fun () ->
             Serve.Client.with_session ~socket (fun session ->
                 List.iter
                   (fun req ->
                     print_endline
                       (Obs.Json.print
                          (Serve.Client.session_call ~timeout_s:timeout session
                             req)))
                   reqs)));
      if scrape then begin
        match call_op ~socket ~timeout ~refused:"metrics scrape" "metrics" with
        | Obs.Json.Obj fields -> (
          match List.assoc_opt "exposition" fields with
          | Some (Obs.Json.Str text) -> print_string text
          | _ -> die "malformed metrics response")
        | _ -> die "malformed metrics response"
      end;
      if stop then
        ignore (call_op ~socket ~timeout ~refused:"shutdown" "shutdown")
    end
    else begin
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
        Serve.Router.create ?jobs ?read_timeout_s ?cache_dir
          ?model:model_file ?slow_ms ()
      in
      Option.iter (Format.eprintf "model preloaded from %s@.") model_file;
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
      write_file Format.err_formatter ~what:"trace" Obs.Trace.save trace_file
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived estimation daemon over a Unix-domain socket
             (characterize once per configuration, estimate from
             memory), or a client against one (--call/--scrape/--ping/
             --status/--stop)")
    Term.(const run $ socket_arg $ cache_dir_arg $ model_file_arg
          $ io_timeout_arg $ max_conns_arg $ read_timeout_arg $ slow_ms_arg
          $ trace_file_arg $ call_arg $ scrape_arg $ ping_arg $ status_arg
          $ stop_arg $ wait_arg $ timeout_arg $ common_term ())

(* --- top ----------------------------------------------------------------- *)

let top_cmd =
  let module J = Obs.Json in
  let socket_arg = socket_arg "Unix-domain socket of the daemon to watch." in
  let interval_arg =
    opt_arg Arg.float 2.0 [ "interval" ] "SECONDS"
      "Refresh period between status polls.  The daemon's
       rolling window sharpens to this cadence after the
       first couple of refreshes."
  in
  let iterations_arg =
    opt_arg Arg.int 0 [ "iterations" ] "N"
      "Stop after $(docv) refreshes (0: run until
       interrupted).  $(b,--iterations 1) prints one
       snapshot and exits, for scripts and smoke tests."
  in
  let wait_arg =
    opt_arg Arg.float 10.0 [ "wait" ] "SECONDS"
      "How long to wait for the daemon to answer pings
       before giving up."
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
    line "registry %.0f models (hit %.0f miss %.0f)  cache hit %.0f miss %.0f store %.0f err %.0f"
      (numf "models" reg) (numf "hits" reg) (numf "misses" reg)
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
    await_daemon ~socket wait;
    (* Refresh in place only on an interactive terminal; piped output
       (scripts, CI smoke) gets plain concatenated frames. *)
    let clear = Unix.isatty Unix.stdout in
    let req = J.Obj [ ("op", J.Str "status") ] in
    let connect () = or_die ~socket (fun () -> Serve.Client.connect ~socket) in
    let session = ref (connect ()) in
    let poll () =
      request ~lost:"lost the daemon at" ~socket
        ~refused:(Printf.sprintf "status refused by the daemon at %s" socket)
        (fun () ->
          (* The daemon's io-timeout drops sessions idle longer than it,
             so a leisurely --interval needs a quiet reconnect. *)
          try Serve.Client.session_call ~timeout_s:10.0 !session req
          with Serve.Protocol.Frame_error _ | Unix.Unix_error _ ->
            Serve.Client.close !session;
            session := connect ();
            Serve.Client.session_call ~timeout_s:10.0 !session req)
    in
    let rec loop n =
      let status = poll () in
      if clear then print_string "\027[2J\027[H";
      print_string (render status);
      flush stdout;
      if iterations = 0 || n < iterations then begin
        Unix.sleepf interval;
        loop (n + 1)
      end
      else Serve.Client.close !session
    in
    loop 1
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
    let report =
      print_comparison Workloads.Suite.reed_solomon_choices model_path
    in
    Format.fprintf fmt "correlation %.4f, rank agreement %b@."
      (Core.Evaluate.correlation report)
      (Core.Evaluate.rank_agreement report)
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
  (* A failure (a bad argument, an unknown name, a backend mismatch)
     ends the command with its one-line message. *)
  exit
    (try Cmd.eval ~catch:false main_cmd
     with e -> (
       let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
       match Serve.Service.message e with
       | Some msg ->
         Format.eprintf "xenergy: %s@." msg;
         Cmd.Exit.some_error
       | None ->
         (* Any other exception is a fault: report it as Cmdliner does. *)
         let bt = if bt = "" then bt else String.sub bt 0 (String.length bt - 1) in
         Format.eprintf "xenergy: @[internal error, uncaught exception:@\n%a@]@."
           (Format.pp_print_list ~pp_sep:Format.pp_force_newline
              Format.pp_print_string)
           (String.split_on_char '\n' (Printexc.to_string e ^ "\n" ^ bt));
         Cmd.Exit.internal_error))
