(* Tests for the reference power model: activity primitives, gate-level
   unit models, the RTL activity simulator and the estimator. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Activity ------------------------------------------------------------ *)

let naive_popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0 v

let qcheck_popcount =
  QCheck.Test.make ~name:"popcount matches naive loop" ~count:500
    QCheck.(int_bound max_int)
    (fun v -> Power.Activity.popcount v = naive_popcount v)

let test_toggles () =
  check Alcotest.int "identical values" 0 (Power.Activity.toggles 0xffff 0xffff);
  check Alcotest.int "one bit" 1 (Power.Activity.toggles 0 1);
  check Alcotest.int "byte flip" 8 (Power.Activity.toggles 0x00 0xff)

let test_density () =
  check (Alcotest.float 1e-9) "half ones" 0.5
    (Power.Activity.density 0x0f ~width:8);
  check (Alcotest.float 1e-9) "empty width" 0.0
    (Power.Activity.density 0xff ~width:0)

(* --- Gates --------------------------------------------------------------- *)

let test_adder_stability () =
  let st = Power.Gates.adder_create 32 in
  ignore (Power.Gates.adder_eval st 123 456);
  check Alcotest.int "repeated inputs do not toggle" 0
    (Power.Gates.adder_eval st 123 456);
  check Alcotest.bool "new inputs toggle" true
    (Power.Gates.adder_eval st 999 111 > 0)

let test_mult_scales_with_width () =
  let mean w =
    let st = Power.Gates.mult_create w in
    let g = Workloads.Prng.create 5 in
    let acc = ref 0 in
    for _ = 1 to 200 do
      acc :=
        !acc
        + Power.Gates.mult_eval st
            (Workloads.Prng.int32 g land Power.Activity.mask w)
            (Workloads.Prng.int32 g land Power.Activity.mask w)
    done;
    float_of_int !acc /. 200.0
  in
  check Alcotest.bool "32-bit multiplier toggles ~4x the 16-bit one" true
    (mean 32 /. mean 16 > 3.0)

let test_table_determinism () =
  let st1 = Power.Gates.table_create ~entries:256 ~width:8 in
  let st2 = Power.Gates.table_create ~entries:256 ~width:8 in
  let seq = [ (3, 7); (200, 1); (3, 7); (77, 99) ] in
  List.iter
    (fun (i, v) ->
      check Alcotest.int "same sequence, same toggles"
        (Power.Gates.table_eval st1 i v)
        (Power.Gates.table_eval st2 i v))
    seq

(* --- Rtl ----------------------------------------------------------------- *)

let test_rtl_hold_cycles_do_not_toggle () =
  let rtl = Power.Rtl.create Sim.Config.default in
  let t1 =
    Power.Rtl.cycle_activity rtl ~word:0x123456 ~pc:0x2000 ~op1:1 ~op2:2
      ~result:3
  in
  check Alcotest.bool "first edge toggles" true (t1 > 0);
  (* Identical inputs: the new stage-0 latch holds, but stages 1..4 shift
     old contents; after five identical edges everything is stable. *)
  for _ = 1 to 5 do
    ignore
      (Power.Rtl.cycle_activity rtl ~word:0x123456 ~pc:0x2000 ~op1:1 ~op2:2
         ~result:3)
  done;
  check Alcotest.int "pipeline full of identical state" 0
    (Power.Rtl.cycle_activity rtl ~word:0x123456 ~pc:0x2000 ~op1:1 ~op2:2
       ~result:3)

let test_rtl_evaluation_cost () =
  let rtl = Power.Rtl.create Sim.Config.default in
  let before = Power.Rtl.evaluations rtl in
  ignore
    (Power.Rtl.cycle_activity rtl ~word:1 ~pc:0x2000 ~op1:0 ~op2:0 ~result:0);
  Power.Rtl.idle_unit_evaluations rtl;
  Power.Rtl.regfile_cells rtl ~write:None;
  let per_cycle = Power.Rtl.evaluations rtl - before in
  (* A compiled-RTL cycle must evaluate thousands of nets. *)
  check Alcotest.bool "thousands of net evaluations per cycle" true
    (per_cycle > 4000)

let test_rtl_cache_activity () =
  let rtl = Power.Rtl.create Sim.Config.default in
  let a1 = Power.Rtl.icache_activity rtl 0x2000 in
  check Alcotest.bool "first access exercises the arrays" true
    (a1.Power.Rtl.array_toggles > 0);
  let a2 = Power.Rtl.icache_activity rtl 0x2000 in
  check Alcotest.int "repeated access leaves arrays quiet" 0
    a2.Power.Rtl.array_toggles

(* --- Estimator ----------------------------------------------------------- *)

let run_with_estimator ?extension build =
  let b = Isa.Builder.create "p" in
  Isa.Builder.label b "main";
  build b;
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  Power.Estimator.estimate_program ?extension asm

let test_energy_positive_and_monotonic () =
  let open Isa.Builder in
  let short, _ =
    run_with_estimator (fun b -> loop_n b ~cnt:a2 10 (fun () -> nop b))
  in
  let long, _ =
    run_with_estimator (fun b -> loop_n b ~cnt:a2 100 (fun () -> nop b))
  in
  check Alcotest.bool "positive" true (short > 0.0);
  check Alcotest.bool "more work, more energy" true (long > 2.0 *. short)

let test_breakdown_sums_to_total () =
  let open Isa.Builder in
  let b = Isa.Builder.create "p" in
  Isa.Builder.label b "main";
  movi b a2 0x11000;
  l32i b a3 a2 0;
  s32i b a3 a2 4;
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let est = Power.Estimator.create Sim.Config.default in
  let _ =
    Sim.Backend.run_program ~observers:[ Power.Estimator.observer est ] asm
  in
  let total = Power.Estimator.total_energy est in
  let sum =
    List.fold_left (fun acc (_, e) -> acc +. e)
      0.0 (Power.Estimator.breakdown est)
  in
  check (Alcotest.float 1e-6) "breakdown is a partition" total sum;
  check Alcotest.bool "major blocks present" true
    (List.mem_assoc "icache" (Power.Estimator.breakdown est)
     && List.mem_assoc "dcache" (Power.Estimator.breakdown est)
     && List.mem_assoc "clock" (Power.Estimator.breakdown est))

let test_custom_energy_charged () =
  let open Isa.Builder in
  let with_custom, _ =
    run_with_estimator ~extension:Workloads.Tie_lib.mac_ext (fun b ->
        movi b a2 5;
        movi b a3 9;
        loop_n b ~cnt:a4 50 (fun () -> custom b "mac" [ a2; a3 ]))
  in
  let without, _ =
    run_with_estimator (fun b ->
        movi b a2 5;
        movi b a3 9;
        loop_n b ~cnt:a4 50 (fun () -> nop b))
  in
  check Alcotest.bool "custom instructions cost extra" true
    (with_custom > without)

let test_idle_side_effect_charged () =
  let open Isa.Builder in
  (* Identical base-only code; the extension differs.  With bus-facing
     custom hardware installed, base instructions must cost more. *)
  let body b =
    movi b a2 123;
    movi b a3 77;
    loop_n b ~cnt:a4 100 (fun () ->
        add b a5 a2 a3;
        xor b a6 a5 a2)
  in
  let with_ext, _ =
    run_with_estimator ~extension:(Workloads.Tie_lib.coverage
                                     Tie.Component.Shifter) body
  in
  let without, _ = run_with_estimator body in
  check Alcotest.bool "bus-facing idle hardware consumes energy" true
    (with_ext > without *. 1.02)

let test_estimator_determinism () =
  let open Isa.Builder in
  let run () =
    run_with_estimator ~extension:Workloads.Tie_lib.gf_ext (fun b ->
        movi b a2 0x5a;
        movi b a3 0x13;
        loop_n b ~cnt:a4 20 (fun () ->
            custom b "gfmul" ~dst:a5 [ a2; a3 ];
            addi b a2 a2 1))
    |> fst
  in
  check (Alcotest.float 1e-9) "bit-identical energy across runs" (run ())
    (run ())

let test_estimator_reset () =
  let open Isa.Builder in
  let b = Isa.Builder.create "p" in
  (* Non-trivial data so every unit ends the run with dirty nets. *)
  Isa.Builder.words b "rdata" [| 0x5a5aa5a5; 0x13371337 |];
  Isa.Builder.label b "main";
  l32r b a2 "rdata_ptr";
  l32i b a3 a2 0;
  l32i b a5 a2 4;
  mull b a4 a3 a5;
  slli b a6 a4 7;
  add b a7 a6 a3;
  Isa.Builder.halt b;
  Isa.Builder.lit_addr b "rdata_ptr" "rdata";
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let est = Power.Estimator.create Sim.Config.default in
  let run () =
    ignore
      (Sim.Backend.run_program
         ~observers:[ Power.Estimator.observer est ]
         asm);
    Power.Estimator.total_energy est
  in
  let first = run () in
  Power.Estimator.reset est;
  let second = run () in
  check (Alcotest.float 1e-9) "reset restores the initial state" first second

let test_paper_table1_reference () =
  check Alcotest.int "ten structural reference coefficients" 10
    (List.length Power.Blocks.paper_table1_custom);
  List.iter
    (fun (_, v) ->
      if v <= 0.0 then fail "non-positive reference coefficient")
    Power.Blocks.paper_table1_custom

let test_report_units () =
  check Alcotest.string "pJ" "500.0 pJ"
    (Format.asprintf "%a" Power.Report.pp_energy 500.0);
  check Alcotest.string "nJ" "2.50 nJ"
    (Format.asprintf "%a" Power.Report.pp_energy 2500.0);
  check Alcotest.string "uJ" "3.00 uJ"
    (Format.asprintf "%a" Power.Report.pp_energy 3.0e6);
  check (Alcotest.float 1e-12) "pJ to uJ" 1.5 (Power.Report.to_uj 1.5e6)

let () =
  Alcotest.run "power"
    [ ( "activity",
        [ QCheck_alcotest.to_alcotest qcheck_popcount;
          Alcotest.test_case "toggles" `Quick test_toggles;
          Alcotest.test_case "density" `Quick test_density ] );
      ( "gates",
        [ Alcotest.test_case "adder stability" `Quick test_adder_stability;
          Alcotest.test_case "mult width scaling" `Quick
            test_mult_scales_with_width;
          Alcotest.test_case "table determinism" `Quick
            test_table_determinism ] );
      ( "rtl",
        [ Alcotest.test_case "hold cycles quiet" `Quick
            test_rtl_hold_cycles_do_not_toggle;
          Alcotest.test_case "evaluation cost" `Quick
            test_rtl_evaluation_cost;
          Alcotest.test_case "cache activity" `Quick
            test_rtl_cache_activity ] );
      ( "estimator",
        [ Alcotest.test_case "monotonic" `Quick
            test_energy_positive_and_monotonic;
          Alcotest.test_case "breakdown partition" `Quick
            test_breakdown_sums_to_total;
          Alcotest.test_case "custom energy" `Quick
            test_custom_energy_charged;
          Alcotest.test_case "idle side effect" `Quick
            test_idle_side_effect_charged;
          Alcotest.test_case "determinism" `Quick
            test_estimator_determinism;
          Alcotest.test_case "reset" `Quick test_estimator_reset;
          Alcotest.test_case "paper reference" `Quick
            test_paper_table1_reference;
          Alcotest.test_case "report units" `Quick test_report_units ] ) ]
