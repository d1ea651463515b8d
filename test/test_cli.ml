(* End-to-end tests of the xenergy executable's stream discipline:
   diagnostics must go to stderr with a non-zero exit code, results to
   stdout.  The binary is declared as a dune dependency and run via the
   shell with redirected streams. *)

let check = Alcotest.check
let fail = Alcotest.fail

let xenergy_exe =
  (* Relative to the sandbox cwd (test/); dune puts the freshly built
     binary next to this test's directory. *)
  Filename.concat (Filename.concat ".." "bin") "xenergy.exe"

let run_xenergy ?(env = []) args =
  let out = Filename.temp_file "xenergy_out" ".txt" in
  let err = Filename.temp_file "xenergy_err" ".txt" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2> %s"
      (String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v ^ " ") env))
      (Filename.quote xenergy_exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp path =
    let s = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    s
  in
  (code, slurp out, slurp err)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_unknown_workload_clean_stdout () =
  let code, out, err = run_xenergy [ "profile"; "nosuch" ] in
  check Alcotest.int "exit code is Cmdliner's some_error" 123 code;
  check Alcotest.string "stdout stays clean" "" out;
  check Alcotest.bool "stderr names the workload" true (contains err "nosuch")

let test_list_succeeds_on_stdout () =
  let code, out, err = run_xenergy [ "list" ] in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.string "nothing on stderr" "" err;
  if String.length out = 0 then fail "no listing on stdout";
  check Alcotest.bool "mentions the characterization suite" true
    (String.length out > 0 && String.trim out <> "")

let test_attribute_unknown_workload () =
  let code, out, err = run_xenergy [ "attribute"; "nosuch_wl" ] in
  check Alcotest.int "exit code is Cmdliner's some_error" 123 code;
  check Alcotest.string "stdout stays clean" "" out;
  check Alcotest.bool "stderr names the workload" true
    (contains err "nosuch_wl")

let test_backend_bad_name () =
  let code, out, err = run_xenergy [ "profile"; "gcd"; "--backend"; "bogus" ] in
  check Alcotest.int "exit code is Cmdliner's some_error" 123 code;
  check Alcotest.string "stdout stays clean" "" out;
  check Alcotest.bool "stderr names the backend" true (contains err "bogus")

(* Refusals the daemon shares: the CLI prints the daemon's "error"
   text (test_serve checks that surface) after "xenergy: ", exits 123
   and never characterizes first (no -m is given). *)
let test_shared_messages () =
  List.iter
    (fun (args, want) ->
      let code, out, err = run_xenergy args in
      check Alcotest.int (want ^ ": exit code") 123 code;
      check Alcotest.string (want ^ ": stdout stays clean") "" out;
      check Alcotest.string want ("xenergy: " ^ want ^ "\n") err)
    [ ([ "profile"; "nosuch" ], "unknown workload \"nosuch\"; try `xenergy list'");
      ([ "estimate"; "nosuch" ], "unknown workload \"nosuch\"; try `xenergy list'");
      ( [ "explore"; "--space"; "nosuch" ],
        "unknown space \"nosuch\"; available: rs, rs-cache, mac-widths" );
      ([ "profile"; "gcd"; "--top"; "0" ], "profile: top must be positive");
      ( [ "attribute"; "gcd"; "--bucket"; "0" ],
        "attribute: bucket width must be positive" ) ]

(* A program whose custom instructions have no extension installed, or
   whose call site is malformed, faults in the simulator: [run] and [cc]
   print one diagnostic line and exit 123, like any refused request,
   instead of an uncaught exception. *)
let test_simulator_fault () =
  let no_ext =
    "xenergy: simulation failed: custom instruction \"clracc\" but no \
     extension installed\n"
  in
  List.iter
    (fun (cmd, ext, suffix, source, want) ->
      let file = Filename.temp_file "xenergy_fault" suffix in
      Out_channel.with_open_text file (fun oc -> output_string oc source);
      let code, out, err =
        run_xenergy
          ([ cmd; "-m"; Filename.concat ".." "coeffs.txt" ] @ ext @ [ file ])
      in
      Sys.remove file;
      check Alcotest.int (cmd ^ ": exit code") 123 code;
      check Alcotest.string (cmd ^ ": stdout stays clean") "" out;
      check Alcotest.string (cmd ^ ": one diagnostic line") want err)
    [ ("run", [], ".s", "main:\n  tie.clracc\n  break\n", no_ext);
      ("cc", [], ".c", "int main() { __tie_clracc(); return 0; }\n", no_ext);
      ( "run", [ "-e"; "mac" ], ".s",
        "main:\n  tie.clracc\n  tie.mac a6\n  break\n",
        "xenergy: simulation failed: mac: not enough register operands\n" ) ]

(* Check mode end to end: the estimate must succeed on stdout and the
   dual-run summary must land on stderr (either the in-process count or
   the worker-pool phrasing, depending on parallelism). *)
let test_backend_check_smoke () =
  let code, out, err = run_xenergy [ "estimate"; "gcd"; "--backend"; "check" ] in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "estimate lands on stdout" true (String.length out > 0);
  check Alcotest.bool "stderr reports the dual runs" true
    (contains err "backend check:")

(* [compare] takes its backend from the environment; under check mode
   it must say what it checked, like every other simulating command. *)
let test_compare_reports_checks () =
  let code, out, err =
    run_xenergy ~env:[ ("XENERGY_BACKEND", "check") ] [ "compare" ]
  in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "Table II lands on stdout" true (contains out "mean |error|");
  check Alcotest.bool "stderr reports the dual runs" true
    (contains err "backend check:")

(* One characterization run exercises the whole observability surface:
   the trace and metrics files must be valid JSON with the advertised
   content, and the fitted model must drive `attribute` (table and JSON
   forms) with a clean stream discipline. *)
let test_characterize_trace_metrics_attribute () =
  let model = Filename.temp_file "xenergy_model" ".txt" in
  let trace = Filename.temp_file "xenergy_trace" ".json" in
  let metrics = Filename.temp_file "xenergy_metrics" ".json" in
  let cleanup () = List.iter Sys.remove [ model; trace; metrics ] in
  Fun.protect ~finally:cleanup @@ fun () ->
  let code, out, _err =
    run_xenergy
      [ "characterize"; "-j"; "2"; "-o"; model; "--trace"; trace;
        "--metrics"; metrics ]
  in
  check Alcotest.int "characterize exits 0" 0 code;
  check Alcotest.bool "reports cross validation" true
    (contains out "leave-one-out");
  (* The trace is a loadable Chrome trace-event document carrying the
     pipeline's span vocabulary, including per-worker lanes. *)
  let slurp path = In_channel.with_open_text path In_channel.input_all in
  let tj = Obs.Json.parse (slurp trace) in
  let names =
    List.map
      (fun e -> Obs.Json.(to_string (member "name" e)))
      Obs.Json.(to_list (member "traceEvents" tj))
  in
  List.iter
    (fun needle ->
      check Alcotest.bool ("trace has a " ^ needle ^ " span") true
        (List.exists (fun n -> contains n needle) names))
    [ "fit"; "cross-validate"; "simulate:"; "extract:"; "worker:"; "join:" ];
  let mj = Obs.Json.parse (slurp metrics) in
  let metric_names =
    List.map
      (fun m -> Obs.Json.(to_string (member "name" m)))
      Obs.Json.(to_list (member "metrics" mj))
  in
  List.iter
    (fun n ->
      check Alcotest.bool ("metrics registry has " ^ n) true
        (List.mem n metric_names))
    [ "sim_instructions_total"; "nnls_iterations_total";
      "parallel_workers_spawned_total" ];
  (* Attribution against the freshly fitted model: results on stdout,
     nothing on stderr. *)
  let code, out, err = run_xenergy [ "attribute"; "rs_gfmac"; "-m"; model ] in
  check Alcotest.int "attribute exits 0" 0 code;
  check Alcotest.string "attribute keeps stderr clean" "" err;
  List.iter
    (fun needle ->
      check Alcotest.bool ("attribute table mentions " ^ needle) true
        (contains out needle))
    [ "rs_gfmac"; "variable"; "power over time"; "reference energy" ];
  (* JSON form parses and the per-variable rows close over the total. *)
  let code, out, err =
    run_xenergy [ "attribute"; "rs_gfmac"; "-m"; model; "--json" ]
  in
  check Alcotest.int "attribute --json exits 0" 0 code;
  check Alcotest.string "json form keeps stderr clean" "" err;
  let j = Obs.Json.parse out in
  let a = Obs.Json.member "attribution" j in
  let total = Obs.Json.(to_float (member "total_energy_pj" a)) in
  let rows = Obs.Json.(to_list (member "variables" a)) in
  check Alcotest.int "21 variables" 21 (List.length rows);
  let sum =
    List.fold_left
      (fun acc r -> acc +. Obs.Json.(to_float (member "energy_pj" r)))
      0.0 rows
  in
  check Alcotest.bool "components sum to the total" true
    (Float.abs (sum -. total) /. Float.max (Float.abs total) 1.0 < 1e-5);
  check Alcotest.bool "reference energy present" true
    (Obs.Json.(to_float (member "reference_energy_pj" j)) > 0.0)

let test_explore_smoke () =
  (* Unknown space: clean stdout, named on stderr. *)
  let code, out, err = run_xenergy [ "explore"; "--space"; "nosuch" ] in
  check Alcotest.int "unknown space exits 123" 123 code;
  check Alcotest.string "stdout stays clean" "" out;
  check Alcotest.bool "stderr names the space" true (contains err "nosuch");
  (* Cold then warm sweep over the same cache directory. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xenergy_cli_cache.%d" (Unix.getpid ()))
  in
  let sweep () =
    run_xenergy
      [ "explore"; "--space"; "rs"; "--cache-dir"; dir; "--json"; "-j"; "2" ]
  in
  let parse out =
    let j = Obs.Json.parse out in
    let points =
      List.map
        (fun p ->
          Obs.Json.
            ( to_string (member "name" p),
              to_float (member "energy_pj" p),
              to_int (member "cycles" p) ))
        Obs.Json.(to_list (member "points" j))
    in
    (j, points)
  in
  let cold_code, cold_out, _ = sweep () in
  check Alcotest.int "cold sweep exits 0" 0 cold_code;
  let cold_j, cold_points = parse cold_out in
  check Alcotest.int "four candidates" 4 (List.length cold_points);
  check Alcotest.bool "cold sweep simulated" true
    Obs.Json.(to_int (member "simulations" cold_j) > 0);
  check Alcotest.bool "frontier is non-empty" true
    Obs.Json.(to_list (member "pareto" cold_j) <> []);
  let warm_code, warm_out, _ = sweep () in
  check Alcotest.int "warm sweep exits 0" 0 warm_code;
  let warm_j, warm_points = parse warm_out in
  check Alcotest.int "warm sweep simulates nothing" 0
    Obs.Json.(to_int (member "simulations" warm_j));
  check Alcotest.bool "warm sweep hits the cache" true
    Obs.Json.(to_int (member "hits" (member "cache" warm_j)) > 0);
  check Alcotest.bool "warm points bit-identical to cold" true
    (cold_points = warm_points);
  (* Lifecycle subcommands against the populated cache. *)
  let code, _, err = run_xenergy [ "cache"; "stats"; dir ^ ".nosuch" ] in
  check Alcotest.int "stats on a missing dir exits 123" 123 code;
  check Alcotest.bool "missing dir named on stderr" true
    (contains err ".nosuch");
  let code, out, _ = run_xenergy [ "cache"; "stats"; dir; "--json" ] in
  check Alcotest.int "cache stats exits 0" 0 code;
  let entries_of out = Obs.Json.(to_int (member "entries" (parse out))) in
  let entries = entries_of out in
  check Alcotest.bool "stats sees the sweep's entries" true (entries > 0);
  (* gc sweeps a planted orphan and a foreign file. *)
  let orphan = Filename.concat dir "cachedead.tmp" in
  let stray = Filename.concat dir "stray.dat" in
  List.iter
    (fun f ->
      let oc = open_out f in
      output_string oc "litter";
      close_out oc)
    [ orphan; stray ];
  let code, out, _ = run_xenergy [ "cache"; "gc"; dir ] in
  check Alcotest.int "cache gc exits 0" 0 code;
  check Alcotest.bool "gc reports the orphan" true (contains out "1 orphan");
  check Alcotest.bool "orphan removed" false (Sys.file_exists orphan);
  check Alcotest.bool "foreign file removed" false (Sys.file_exists stray);
  let code, out, _ = run_xenergy [ "cache"; "verify"; dir ] in
  check Alcotest.int "cache verify exits 0" 0 code;
  check Alcotest.bool "verify re-parses every entry" true
    (contains out (Printf.sprintf "%d entries ok" entries));
  (* Prune to a smaller bound, then check the sweep still reproduces the
     cold points from the surviving + recomputed entries. *)
  let keep = entries / 2 in
  let code, _, _ =
    run_xenergy
      [ "cache"; "prune"; dir; "--max-entries"; string_of_int keep ]
  in
  check Alcotest.int "cache prune exits 0" 0 code;
  let code, out, _ = run_xenergy [ "cache"; "stats"; dir; "--json" ] in
  check Alcotest.int "stats after prune exits 0" 0 code;
  check Alcotest.int "prune leaves exactly the bound" keep (entries_of out);
  let rewarm_code, rewarm_out, _ = sweep () in
  check Alcotest.int "re-warm sweep exits 0" 0 rewarm_code;
  let _, rewarm_points = parse rewarm_out in
  check Alcotest.bool "re-warm points bit-identical to cold" true
    (cold_points = rewarm_points);
  (* Scrub the scratch cache. *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* End-to-end audit: fit once, audit against the reference with the full
   observability surface on (JSON report, structured log, OpenMetrics
   exposition), then gate — self-baseline passes, a seeded tight
   baseline fails with a non-zero exit. *)
let test_audit_smoke () =
  let model = Filename.temp_file "xenergy_model" ".txt" in
  let report = Filename.temp_file "xenergy_accuracy" ".json" in
  let log = Filename.temp_file "xenergy_log" ".jsonl" in
  let om = Filename.temp_file "xenergy_om" ".txt" in
  let tight = Filename.temp_file "xenergy_tight" ".json" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xenergy_cli_audit.%d" (Unix.getpid ()))
  in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ model; report; log; om; tight ];
    try
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let code, _, _ = run_xenergy [ "characterize"; "-j"; "2"; "-o"; model ] in
  check Alcotest.int "characterize exits 0" 0 code;
  let code, out, _ =
    run_xenergy
      [ "audit"; "-m"; model; "-j"; "2"; "--cache-dir"; dir; "-o"; report;
        "--log-file"; log; "--openmetrics"; om ]
  in
  check Alcotest.int "audit exits 0" 0 code;
  check Alcotest.bool "table reports the mean" true
    (contains out "mean |error|");
  (* The written report is the committed-baseline format. *)
  let slurp path = In_channel.with_open_text path In_channel.input_all in
  let j = Obs.Json.parse (slurp report) in
  check Alcotest.string "report format tag" "xenergy-accuracy"
    Obs.Json.(to_string (member "format" j));
  check Alcotest.bool "report lists programs" true
    Obs.Json.(to_list (member "programs" j) <> []);
  (* The structured log is one parseable JSON record per line, with the
     audit lifecycle events present. *)
  let records =
    String.split_on_char '\n' (slurp log)
    |> List.filter (fun l -> l <> "")
    |> List.map Obs.Json.parse
  in
  check Alcotest.bool "log has records" true (records <> []);
  let events =
    List.map (fun r -> Obs.Json.(to_string (member "event" r))) records
  in
  List.iter
    (fun e ->
      check Alcotest.bool ("log has " ^ e) true (List.mem e events))
    [ "audit:start"; "audit:done" ];
  (* The OpenMetrics exposition carries the audit gauges and terminates
     properly. *)
  let exposition = slurp om in
  check Alcotest.bool "exposition has the audit gauge" true
    (contains exposition "audit_mean_abs_error_percent");
  check Alcotest.bool "exposition terminated" true
    (Filename.check_suffix exposition "# EOF\n");
  (* Gate against the report itself: passes, warm cache. *)
  let code, out, _ =
    run_xenergy
      [ "audit"; "-m"; model; "--cache-dir"; dir; "--baseline"; report;
        "--tolerance"; "1.5" ]
  in
  check Alcotest.int "self gate exits 0" 0 code;
  check Alcotest.bool "self gate passes" true (contains out "PASS");
  (* A deliberately tight baseline must fail the gate loudly. *)
  Out_channel.with_open_text tight (fun oc ->
      Out_channel.output_string oc
        "{\"format\": \"xenergy-accuracy\", \"version\": 1,\n\
        \ \"mean_abs_error_percent\": 1e-6, \"max_abs_error_percent\": 1e-6,\n\
        \ \"rms_error_percent\": 1e-6, \"wall_seconds\": 0.0,\n\
        \ \"programs\": []}\n");
  let code, out, _ =
    run_xenergy
      [ "audit"; "-m"; model; "--cache-dir"; dir; "--baseline"; tight ]
  in
  check Alcotest.int "regression gate exits 123" 123 code;
  check Alcotest.bool "gate verdict printed" true (contains out "FAIL");
  (* A corrupt baseline is a hard error, named on stderr. *)
  Out_channel.with_open_text tight (fun oc ->
      Out_channel.output_string oc "not json");
  let code, _, err =
    run_xenergy
      [ "audit"; "-m"; model; "--cache-dir"; dir; "--baseline"; tight ]
  in
  check Alcotest.int "corrupt baseline exits 123" 123 code;
  check Alcotest.bool "corrupt baseline named" true (contains err "baseline")

(* Heartbeats on stderr, frontier attribution on stdout. *)
let test_explore_progress_explain_smoke () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xenergy_cli_explain.%d" (Unix.getpid ()))
  in
  let cleanup () =
    try
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let code, out, err =
    run_xenergy
      [ "explore"; "--space"; "rs"; "--cache-dir"; dir; "--progress";
        "--explain"; "-j"; "2" ]
  in
  check Alcotest.int "explore exits 0" 0 code;
  check Alcotest.bool "heartbeats on stderr" true (contains err "explore: [");
  check Alcotest.bool "evaluate phase reported" true
    (contains err "[evaluate]");
  check Alcotest.bool "attribution on stdout" true
    (contains out "model energy by variable:");
  check Alcotest.bool "shares rendered" true (contains out "%")

(* Profiler smoke through the binary: hottest-blocks table, JSON form
   whose per-block rows close over the run totals (the conservation
   oracle, checked on the wire format), and the flame-graph collapsed
   file. *)
let test_profile_smoke () =
  let model = Filename.temp_file "xenergy_model" ".txt" in
  let folded = Filename.temp_file "xenergy_folded" ".txt" in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ model; folded ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let code, _, _ = run_xenergy [ "characterize"; "-j"; "2"; "-o"; model ] in
  check Alcotest.int "characterize exits 0" 0 code;
  let code, out, err =
    run_xenergy
      [ "profile"; "call_tree"; "-m"; model; "--top"; "3"; "--per-opcode" ]
  in
  check Alcotest.int "profile exits 0" 0 code;
  check Alcotest.string "table keeps stderr clean" "" err;
  List.iter
    (fun needle ->
      check Alcotest.bool ("table mentions " ^ needle) true
        (contains out needle))
    [ "call_tree"; "basic blocks"; "rank"; "cum%"; "energy uJ"; "opcode" ];
  let code, out, err =
    run_xenergy
      [ "profile"; "call_tree"; "-m"; model; "--json"; "--folded"; folded ]
  in
  check Alcotest.int "profile --json exits 0" 0 code;
  check Alcotest.bool "folded path echoed on stderr" true
    (contains err "folded stacks");
  let j = Obs.Json.parse out in
  let cycles = Obs.Json.(to_int (member "cycles" j)) in
  let total = Obs.Json.(to_float (member "total_energy_pj" j)) in
  let blocks = Obs.Json.(to_list (member "blocks" j)) in
  let cycle_sum =
    List.fold_left
      (fun acc b -> acc + Obs.Json.(to_int (member "cycles" b)))
      0 blocks
  in
  let energy_sum =
    List.fold_left
      (fun acc b -> acc +. Obs.Json.(to_float (member "energy_pj" b)))
      0.0 blocks
  in
  check Alcotest.int "block cycles sum to the run exactly" cycles cycle_sum;
  check Alcotest.bool "block energies sum to the estimate" true
    (Float.abs (energy_sum -. total) /. Float.max (Float.abs total) 1.0
     < 1e-6);
  check Alcotest.(float 1e-9) "cycle gap reported as zero" 0.0
    Obs.Json.(to_float (member "cycle_gap" j));
  (* The folded file is flamegraph.pl input: `stack count` lines with
     ;-separated frames rooted at the workload. *)
  let body = In_channel.with_open_text folded In_channel.input_all in
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' body)
  in
  check Alcotest.bool "folded output is non-empty" true (lines <> []);
  List.iter
    (fun l ->
      check Alcotest.bool "line is rooted at the workload" true
        (contains l "call_tree");
      match String.rindex_opt l ' ' with
      | None -> fail ("malformed folded line: " ^ l)
      | Some i ->
        let count = String.sub l (i + 1) (String.length l - i - 1) in
        check Alcotest.bool ("count is numeric: " ^ count) true
          (int_of_string_opt count <> None))
    lines

(* Client-mode smoke against a live daemon: spawn `xenergy serve` in the
   background, drive it through the client flags (ping, two estimates,
   scrape, stop), and check the preloaded-registry hit, the warm cache,
   and the correlated structured log. *)
let test_serve_client_smoke () =
  let model = Filename.temp_file "xenergy_model" ".txt" in
  let log = Filename.temp_file "xenergy_serve" ".jsonl" in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xenergy_cli_serve.%d.sock" (Unix.getpid ()))
  in
  let daemon = ref (-1) in
  let cleanup () =
    (if !daemon > 0 then
       try
         Unix.kill !daemon Sys.sigkill;
         ignore (Unix.waitpid [] !daemon)
       with Unix.Unix_error _ -> ());
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ model; log; sock ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let code, _, _ = run_xenergy [ "characterize"; "-j"; "2"; "-o"; model ] in
  check Alcotest.int "characterize exits 0" 0 code;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process xenergy_exe
      [| xenergy_exe; "serve"; "--socket"; sock; "--model"; model;
         "--log-file"; log; "-j"; "2" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  daemon := pid;
  (* The client flags wait for the socket themselves (--wait). *)
  let code, out, _ = run_xenergy [ "serve"; "--socket"; sock; "--ping" ] in
  check Alcotest.int "ping exits 0" 0 code;
  check Alcotest.bool "ping acknowledged" true (contains out "\"ok\": true");
  let estimate () =
    run_xenergy
      [ "serve"; "--socket"; sock; "--call";
        "{\"op\": \"estimate\", \"workloads\": [\"gcd\", \"des\"]}" ]
  in
  let code, cold, _ = estimate () in
  check Alcotest.int "estimate exits 0" 0 code;
  check Alcotest.bool "preloaded model serves from the registry" true
    (contains cold "\"registry_hit\": true");
  let code, warm, _ = estimate () in
  check Alcotest.int "second estimate exits 0" 0 code;
  check Alcotest.bool "warm rows served from the evaluation cache" true
    (contains warm "\"cached\": true");
  let code, om, _ = run_xenergy [ "serve"; "--socket"; sock; "--scrape" ] in
  check Alcotest.int "scrape exits 0" 0 code;
  check Alcotest.bool "registry residency exported" true
    (contains om "serve_registry_models 1");
  check Alcotest.bool "request counters exported" true
    (contains om "serve_requests_total");
  check Alcotest.bool "exposition terminated" true (contains om "# EOF");
  (* Live introspection: the status op over the client flag, then one
     frame of the top dashboard (piped, so it prints plainly). *)
  let code, st, _ = run_xenergy [ "serve"; "--socket"; sock; "--status" ] in
  check Alcotest.int "status exits 0" 0 code;
  let sj = Obs.Json.parse st in
  check Alcotest.bool "status acknowledged" true (contains st "\"ok\": true");
  check Alcotest.bool "status reports per-op rows" true
    Obs.Json.(to_list (member "ops" sj) <> []);
  check Alcotest.bool "status reports registry residency" true
    Obs.Json.(to_int (member "models" (member "registry" sj)) >= 1);
  let code, top, _ =
    run_xenergy [ "top"; "--socket"; sock; "--iterations"; "1" ]
  in
  check Alcotest.int "top exits 0" 0 code;
  check Alcotest.bool "top renders the header" true
    (contains top "xenergy top - pid");
  check Alcotest.bool "top renders the op table" true (contains top "P99ms");
  check Alcotest.bool "top lists the ping row" true (contains top "ping");
  let code, _, _ = run_xenergy [ "serve"; "--socket"; sock; "--stop" ] in
  check Alcotest.int "stop exits 0" 0 code;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "daemon did not exit cleanly");
  daemon := -1;
  check Alcotest.bool "socket unlinked on shutdown" false
    (Sys.file_exists sock);
  let body = In_channel.with_open_text log In_channel.input_all in
  List.iter
    (fun needle ->
      check Alcotest.bool ("log has " ^ needle) true (contains body needle))
    [ "serve:start"; "serve:request"; "serve:stop" ];
  (* One id per request: every request line carries its trace id. *)
  let requests =
    List.filter
      (fun line -> contains line "\"event\": \"serve:request\"")
      (String.split_on_char '\n' body)
  in
  check Alcotest.bool "serve:request lines carry the trace id" true
    (requests <> []
    && List.for_all (fun line -> contains line "\"trace_id\": \"") requests)

let () =
  if not (Sys.file_exists xenergy_exe) then
    (* Outside the dune sandbox (e.g. a bare `./test_cli.exe` run) the
       binary is not staged; skip rather than fail spuriously. *)
    print_endline "test_cli: xenergy.exe not found, skipping"
  else
    Alcotest.run "cli"
      [ ( "streams",
          [ Alcotest.test_case "unknown workload" `Quick
              test_unknown_workload_clean_stdout;
            Alcotest.test_case "list" `Quick test_list_succeeds_on_stdout;
            Alcotest.test_case "attribute unknown workload" `Quick
              test_attribute_unknown_workload;
            Alcotest.test_case "unknown backend" `Quick
              test_backend_bad_name;
            Alcotest.test_case "simulator fault is one diagnostic" `Quick
              test_simulator_fault;
            Alcotest.test_case "messages shared with the daemon" `Quick
              test_shared_messages ] );
        ( "backend",
          [ Alcotest.test_case "check-mode estimate" `Slow
              test_backend_check_smoke;
            Alcotest.test_case "check-mode compare" `Slow
              test_compare_reports_checks ] );
        ( "observability",
          [ Alcotest.test_case "trace + metrics + attribute" `Slow
              test_characterize_trace_metrics_attribute ] );
        ( "explore",
          [ Alcotest.test_case "cold/warm sweep" `Slow test_explore_smoke;
            Alcotest.test_case "progress + explain" `Slow
              test_explore_progress_explain_smoke ] );
        ( "audit",
          [ Alcotest.test_case "report + gate" `Slow test_audit_smoke ] );
        ( "profile",
          [ Alcotest.test_case "hotspot table + json + folded" `Slow
              test_profile_smoke ] );
        ( "serve",
          [ Alcotest.test_case "client-mode smoke" `Slow
              test_serve_client_smoke ] ) ]
