type row = {
  a_name : string;
  a_estimate_pj : float;
  a_reference_pj : float;
  a_error_percent : float;
  a_cycles : int;
  a_cached : bool;
}

type report = {
  a_rows : row list;
  a_mean_abs : float;
  a_max_abs : float;
  a_rms : float;
  a_wall_seconds : float;
}

module M = struct
  let mean_abs =
    lazy
      (Obs.Metrics.gauge ~help:"audit mean absolute model error, percent"
         "audit_mean_abs_error_percent")

  let max_abs =
    lazy
      (Obs.Metrics.gauge ~help:"audit worst absolute model error, percent"
         "audit_max_abs_error_percent")

  let rms =
    lazy
      (Obs.Metrics.gauge ~help:"audit RMS model error, percent"
         "audit_rms_error_percent")

  let programs =
    lazy (Obs.Metrics.gauge ~help:"programs audited" "audit_programs")
end

let summarize ~t0 rows =
  let n = float_of_int (List.length rows) in
  let mean_abs =
    List.fold_left (fun s r -> s +. Float.abs r.a_error_percent) 0.0 rows /. n
  in
  let max_abs =
    List.fold_left (fun m r -> Float.max m (Float.abs r.a_error_percent)) 0.0
      rows
  in
  let rms =
    sqrt
      (List.fold_left
         (fun s r -> s +. (r.a_error_percent *. r.a_error_percent))
         0.0 rows
      /. n)
  in
  Obs.Metrics.set (Lazy.force M.mean_abs) mean_abs;
  Obs.Metrics.set (Lazy.force M.max_abs) max_abs;
  Obs.Metrics.set (Lazy.force M.rms) rms;
  Obs.Metrics.set (Lazy.force M.programs) (float_of_int (List.length rows));
  { a_rows = rows;
    a_mean_abs = mean_abs;
    a_max_abs = max_abs;
    a_rms = rms;
    a_wall_seconds = Unix.gettimeofday () -. t0 }

let run ?jobs ?(cache = Eval_cache.create ()) ?(config = Sim.Config.default)
    model cases =
  if cases = [] then invalid_arg "Audit: no cases";
  let t0 = Unix.gettimeofday () in
  Obs.Trace.with_span ~cat:"audit" "audit" @@ fun () ->
  Obs.Log.event "audit:start"
    [ ("programs", Obs.Trace.I (List.length cases)) ];
  (* One simulation per distinct program, the reference estimator
     riding it, so each cache entry holds both the variable vector and
     the measured energy. *)
  let entries, _ = Eval_cache.collect ?jobs cache ~with_ref:true ~config cases in
  Eval_cache.flush cache;
  let rows =
    List.map2
      (fun (c : Extract.case) ((e : Eval_cache.entry), cached) ->
        let est = Template.energy model e.Eval_cache.e_variables in
        let reference = Option.get e.Eval_cache.e_measured_pj in
        let err =
          if Float.abs reference < 1e-12 then 0.0
          else 100.0 *. (est -. reference) /. reference
        in
        Obs.Log.event ~level:Obs.Log.Debug "audit:program"
          [ ("name", Obs.Trace.S c.Extract.case_name);
            ("estimate_pj", Obs.Trace.F est);
            ("reference_pj", Obs.Trace.F reference);
            ("error_percent", Obs.Trace.F err);
            ("cached", Obs.Trace.B cached) ];
        { a_name = c.Extract.case_name;
          a_estimate_pj = est;
          a_reference_pj = reference;
          a_error_percent = err;
          a_cycles = e.Eval_cache.e_cycles;
          a_cached = cached })
      cases entries
  in
  let r = summarize ~t0 rows in
  Obs.Log.event "audit:done"
    [ ("programs", Obs.Trace.I (List.length rows));
      ("mean_abs_error_percent", Obs.Trace.F r.a_mean_abs);
      ("max_abs_error_percent", Obs.Trace.F r.a_max_abs);
      ("wall_s", Obs.Trace.F r.a_wall_seconds) ];
  r

(* --- JSON round trip ------------------------------------------------------ *)

let to_json r =
  let module J = Obs.Json in
  let row a =
    J.Obj
      [ ("name", J.Str a.a_name);
        ("estimate_pj", J.Num a.a_estimate_pj);
        ("reference_pj", J.Num a.a_reference_pj);
        ("error_percent", J.Num a.a_error_percent);
        ("cycles", J.int a.a_cycles);
        ("cached", J.Bool a.a_cached) ]
  in
  J.Obj
    [ ("format", J.Str "xenergy-accuracy");
      ("version", J.int 1);
      ( "units",
        J.Obj [ ("error", J.Str "percent"); ("energy_pj", J.Str "picojoules") ]
      );
      ("mean_abs_error_percent", J.Num r.a_mean_abs);
      ("max_abs_error_percent", J.Num r.a_max_abs);
      ("rms_error_percent", J.Num r.a_rms);
      ("wall_seconds", J.Num r.a_wall_seconds);
      ("programs", J.Arr (List.map row r.a_rows)) ]

let of_json s =
  let j = Obs.Json.parse s in
  let num f = Obs.Json.(to_float (member f j)) in
  if Obs.Json.(to_string (member "format" j)) <> "xenergy-accuracy" then
    failwith "accuracy report: bad format";
  if Obs.Json.(to_int (member "version" j)) <> 1 then
    failwith "accuracy report: unsupported version";
  let rows =
    Obs.Json.(to_list (member "programs" j))
    |> List.map (fun p ->
           let num f = Obs.Json.(to_float (member f p)) in
           { a_name = Obs.Json.(to_string (member "name" p));
             a_estimate_pj = num "estimate_pj";
             a_reference_pj = num "reference_pj";
             a_error_percent = num "error_percent";
             a_cycles = Obs.Json.(to_int (member "cycles" p));
             a_cached =
               (match Obs.Json.member "cached" p with
               | Obs.Json.Bool b -> b
               | _ -> failwith "accuracy report: bad cached flag") })
  in
  { a_rows = rows;
    a_mean_abs = num "mean_abs_error_percent";
    a_max_abs = num "max_abs_error_percent";
    a_rms = num "rms_error_percent";
    a_wall_seconds = num "wall_seconds" }

(* --- Regression gate ------------------------------------------------------ *)

type gate_result = {
  g_pass : bool;
  g_mean_abs : float;
  g_baseline_mean_abs : float;
  g_allowed : float;
}

let gate ?(tolerance = 2.0) ~baseline current =
  if tolerance <= 0.0 then invalid_arg "Audit.gate: tolerance must be > 0";
  let allowed = baseline.a_mean_abs *. tolerance in
  { g_pass = current.a_mean_abs <= allowed;
    g_mean_abs = current.a_mean_abs;
    g_baseline_mean_abs = baseline.a_mean_abs;
    g_allowed = allowed }

(* --- Rendering ------------------------------------------------------------ *)

let pp ppf r =
  Format.fprintf ppf "@[<v>%-24s %12s %12s %9s %7s@," "program"
    "model (uJ)" "ref (uJ)" "error" "cached";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-24s %12.3f %12.3f %8.2f%% %7s@," row.a_name
        (row.a_estimate_pj /. 1.0e6)
        (row.a_reference_pj /. 1.0e6)
        row.a_error_percent
        (if row.a_cached then "yes" else "-"))
    r.a_rows;
  Format.fprintf ppf
    "%d program%s: mean |error| %.2f%%, max |error| %.2f%%, RMS %.2f%%@,"
    (List.length r.a_rows)
    (if List.length r.a_rows = 1 then "" else "s")
    r.a_mean_abs r.a_max_abs r.a_rms;
  Format.fprintf ppf "wall time %.2f s@]" r.a_wall_seconds

let pp_gate ppf g =
  Format.fprintf ppf "accuracy gate: %s — mean |error| %.2f%% vs baseline \
                      %.2f%% (allowed <= %.2f%%)"
    (if g.g_pass then "PASS" else "FAIL")
    g.g_mean_abs g.g_baseline_mean_abs g.g_allowed
