(* End-to-end tests of the paper's flow: characterize on the full
   25-program suite, then check that the reproduction-quality targets
   hold (fitting error, Table II accuracy, Fig. 4 relative accuracy,
   macro-model speed advantage). *)

let check = Alcotest.check
let fail = Alcotest.fail

(* Characterization is deterministic, so fit once and share. *)
let fit =
  lazy (Core.Characterize.run (Workloads.Suite.characterization ()))

let model () = (Lazy.force fit).Core.Characterize.model

let test_fit_quality () =
  let f = Lazy.force fit in
  check Alcotest.int "25 samples" 25 (List.length f.Core.Characterize.samples);
  if f.Core.Characterize.rms_percent > 6.0 then
    fail
      (Printf.sprintf "fitting rms %.2f%% exceeds 6%%"
         f.Core.Characterize.rms_percent);
  if f.Core.Characterize.max_abs_percent > 20.0 then
    fail
      (Printf.sprintf "max fitting error %.2f%% exceeds 20%%"
         f.Core.Characterize.max_abs_percent);
  if f.Core.Characterize.r_squared < 0.995 then fail "R^2 below 0.995"

let test_coefficients_physical () =
  let m = model () in
  Array.iter
    (fun c -> if c < 0.0 then fail "negative energy coefficient")
    m.Core.Template.coefficients;
  (* Cache misses must dwarf per-instruction costs. *)
  let v id = Core.Template.coefficient m id in
  check Alcotest.bool "icache miss costs more than an instruction" true
    (v Core.Variables.Icache_miss > 4.0 *. v Core.Variables.Arith);
  check Alcotest.bool "every instruction class was characterized" true
    (v Core.Variables.Arith > 0.0
     && v Core.Variables.Load > 0.0
     && v Core.Variables.Store > 0.0
     && v Core.Variables.Jump > 0.0
     && v Core.Variables.Branch_taken > 0.0
     && v Core.Variables.Branch_untaken > 0.0)

let test_structural_coefficients_near_paper () =
  (* The shape criterion: fitted structural coefficients within a factor
     of two of the paper's Table I (the reference estimator is calibrated
     towards them, the regression has to recover them). *)
  let m = model () in
  List.iter
    (fun (id, paper) ->
      let fitted = Core.Template.coefficient m id in
      if fitted < paper /. 2.5 || fitted > paper *. 2.5 then
        fail
          (Printf.sprintf "%s: fitted %.1f vs paper %.1f"
             (Core.Variables.name id) fitted paper))
    Core.Template.paper_reference

let test_table2_accuracy () =
  let report =
    Core.Audit.run ~jobs:1 (model ()) (Workloads.Suite.applications ())
  in
  check Alcotest.int "ten applications" 10
    (List.length report.Core.Audit.a_rows);
  if report.Core.Audit.a_mean_abs > 6.0 then
    fail
      (Printf.sprintf "mean application error %.2f%% exceeds 6%%"
         report.Core.Audit.a_mean_abs);
  if report.Core.Audit.a_max_abs > 12.0 then
    fail
      (Printf.sprintf "max application error %.2f%% exceeds 12%%"
         report.Core.Audit.a_max_abs);
  (* The paper's Table II has errors of both signs. *)
  let signs =
    List.map (fun r -> r.Core.Audit.a_error_percent > 0.0)
      report.Core.Audit.a_rows
  in
  check Alcotest.bool "errors are mixed-sign" true
    (List.mem true signs && List.mem false signs)

let test_fig4_relative_accuracy () =
  let report =
    Core.Audit.run ~jobs:1 (model ())
      (Workloads.Suite.reed_solomon_choices ())
  in
  check Alcotest.bool "profiles track (correlation > 0.999)" true
    (Core.Evaluate.correlation report > 0.999);
  (* The macro-model must rank the clearly-separated designs correctly:
     software is the most energy-hungry, any hardware choice wins. *)
  let uj name =
    let row =
      List.find (fun r -> r.Core.Audit.a_name = name) report.Core.Audit.a_rows
    in
    Power.Report.to_uj row.Core.Audit.a_estimate_pj
  in
  check Alcotest.bool "software variant costs the most" true
    (uj "rs_soft" > uj "rs_gfmul"
     && uj "rs_soft" > uj "rs_gfmac"
     && uj "rs_soft" > uj "rs_gfmul4")

let test_speedup () =
  (* Timed against the event-by-event reference ([Power.Oracle]), whose
     word-packed nets narrowed the gap from ~80x to under 10x: the bound
     guards the macro model's advantage, not the reference's absolute
     cost. *)
  let t =
    Core.Evaluate.time_case ~repeats:2 (model ())
      (Workloads.Suite.find "bubsort")
  in
  if t.Core.Evaluate.speedup < 4.0 then
    fail
      (Printf.sprintf "macro-model speedup %.1fx below 4x"
         t.Core.Evaluate.speedup)

let test_estimation_without_reference () =
  (* Step 9-11 of the flow: estimating a brand-new application (not in
     any suite) uses only the ISS; no synthesis, no reference run. *)
  let open Isa.Builder in
  let b = create "fresh_app" in
  label b "main";
  movi b a2 12;
  movi b a3 34;
  loop_n b ~cnt:a4 100 (fun () ->
      custom b "gfmul" ~dst:a5 [ a2; a3 ];
      addi b a2 a2 1);
  halt b;
  let case =
    Core.Extract.case ~extension:Workloads.Tie_lib.gf_ext "fresh_app"
      (Isa.Program.assemble (seal b))
  in
  let est = Core.Estimate.run (model ()) case in
  check Alcotest.bool "positive energy" true (est.Core.Estimate.energy_pj > 0.0);
  (* And it should still be accurate against the reference. *)
  let ref_pj, _ =
    Power.Estimator.estimate_program ~extension:Workloads.Tie_lib.gf_ext
      case.Core.Extract.asm
  in
  let err =
    100.0 *. Float.abs (est.Core.Estimate.energy_pj -. ref_pj) /. ref_pj
  in
  if err > 15.0 then
    fail (Printf.sprintf "unseen-application error %.1f%%" err)

let test_config_variation () =
  (* The flow also works on a differently configured processor. *)
  let config =
    { Sim.Config.default with
      Sim.Config.icache =
        { Sim.Config.default_cache with Sim.Config.size_bytes = 8 * 1024 };
      dcache =
        { Sim.Config.default_cache with Sim.Config.size_bytes = 8 * 1024 } }
  in
  let f =
    Core.Characterize.run ~config (Workloads.Suite.characterization ())
  in
  if f.Core.Characterize.rms_percent > 8.0 then
    fail
      (Printf.sprintf "8KB-cache configuration fit rms %.2f%%"
         f.Core.Characterize.rms_percent)

let () =
  Alcotest.run "integration"
    [ ( "characterization",
        [ Alcotest.test_case "fit quality" `Quick test_fit_quality;
          Alcotest.test_case "physical coefficients" `Quick
            test_coefficients_physical;
          Alcotest.test_case "Table I shape" `Quick
            test_structural_coefficients_near_paper ] );
      ( "evaluation",
        [ Alcotest.test_case "Table II accuracy" `Quick test_table2_accuracy;
          Alcotest.test_case "Fig 4 relative accuracy" `Quick
            test_fig4_relative_accuracy;
          Alcotest.test_case "speedup" `Slow test_speedup;
          Alcotest.test_case "unseen application" `Quick
            test_estimation_without_reference;
          Alcotest.test_case "other configuration" `Slow
            test_config_variation ] ) ]
