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

(* --- Compiled estimator = oracle ------------------------------------------ *)

let bits = Int64.bits_of_float

(* Both estimators on one event stream. *)
let both ?(config = Sim.Config.default) ?extension asm =
  let est = Power.Estimator.create ?extension config
  and oracle = Power.Oracle.create ?extension config in
  ignore
    (Sim.Backend.run_program ~config ?extension
       ~observers:[ Power.Estimator.observer est; Power.Oracle.observer oracle ]
       asm);
  (est, oracle)

let entries = List.map (fun (k, v) -> (k, bits v))

let same_estimates name est oracle =
  check Alcotest.int64 (name ^ ": total energy bits")
    (bits (Power.Oracle.total_energy oracle))
    (bits (Power.Estimator.total_energy est));
  check
    Alcotest.(list (pair string int64))
    (name ^ ": breakdown")
    (entries (Power.Oracle.breakdown oracle))
    (entries (Power.Estimator.breakdown est));
  check Alcotest.int (name ^ ": evaluations")
    (Power.Oracle.evaluations oracle)
    (Power.Estimator.evaluations est)

let program build =
  let b = Isa.Builder.create "p" in
  Isa.Builder.label b "main";
  build b;
  Isa.Builder.halt b;
  Isa.Program.assemble (Isa.Builder.seal b)

(* A fetch from the line just filled by a miss sees the new tag in its
   comparators: it must not take the repeated-hit shortcut.  Every
   program starts this way; the far jump lands on a cold line and falls
   through within it. *)
let test_fetch_after_icache_miss () =
  let asm =
    program (fun b ->
        let open Isa.Builder in
        nop b;
        nop b;
        j b "far";
        for _ = 1 to 40 do
          nop b
        done;
        label b "far";
        movi b a2 1;
        addi b a2 a2 2;
        addi b a2 a2 3)
  in
  let est, oracle = both asm in
  same_estimates "fetch after miss" est oracle

(* A data-cache miss stalls far beyond the five pipeline stages while
   its load writes a register; a tiny miss penalty keeps the stall
   inside them. *)
let test_long_stall_with_write () =
  let asm =
    program (fun b ->
        let open Isa.Builder in
        movi b a2 0x11000;
        l32i b a3 a2 0;
        l32i b a5 a2 64;
        add b a6 a3 a5;
        s32i b a6 a2 128;
        mull b a7 a6 a3;
        l32i b a8 a2 128)
  in
  let est, oracle = both asm in
  same_estimates "18-cycle miss penalty" est oracle;
  let short =
    { Sim.Config.default with
      Sim.Config.dcache = { Sim.Config.default_cache with Sim.Config.miss_penalty = 2 } }
  in
  let est, oracle = both ~config:short asm in
  same_estimates "2-cycle miss penalty" est oracle

(* [reset] in the middle of a stream: both estimators drop their state
   and agree with a fresh oracle on the rest of the stream. *)
let test_reset_mid_stream () =
  let c = Workloads.Suite.find "rs_gfmul4" in
  let extension = c.Core.Extract.extension in
  let events = ref [] in
  ignore
    (Sim.Backend.run_program ?extension
       ~observers:[ (fun e -> events := e :: !events) ]
       c.Core.Extract.asm);
  let events = Array.of_list (List.rev !events) in
  let half = Array.length events / 2 in
  let cfg = Sim.Config.default in
  let est = Power.Estimator.create ?extension cfg
  and oracle = Power.Oracle.create ?extension cfg
  and fresh = Power.Oracle.create ?extension cfg in
  Array.iteri
    (fun i e ->
      if i = half then begin
        same_estimates "first half" est oracle;
        Power.Estimator.reset est;
        Power.Oracle.reset oracle
      end;
      Power.Estimator.observe est e;
      Power.Oracle.observe oracle e;
      if i >= half then Power.Oracle.observe fresh e)
    events;
  same_estimates "after reset" est oracle;
  same_estimates "reset = fresh" est fresh

let test_suite_agrees () =
  List.iter
    (fun (c : Core.Extract.case) ->
      let est, oracle =
        both ?extension:c.Core.Extract.extension c.Core.Extract.asm
      in
      same_estimates c.Core.Extract.case_name est oracle)
    (Workloads.Suite.characterization () @ Workloads.Suite.applications ())

(* Random programs on random tiny cache geometries, with a TIE extension
   or without: the compiled estimator charges every block the oracle's
   energy to the last bit. *)
let qcheck_compiled_matches_oracle =
  let cats = Array.of_list Tie.Component.all_categories in
  let gen =
    QCheck.Gen.(
      let cache =
        map3
          (fun ways line (sets, penalty) ->
            { Sim.Config.size_bytes = ways * line * sets; ways; line_bytes = line;
              miss_penalty = penalty })
          (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 8; 16; 32; 64 ])
          (pair (oneofl [ 1; 2; 4; 8; 16 ]) (int_bound 24))
      in
      quad (int_bound 1_000_000) (int_bound (Array.length cats)) cache cache)
  in
  let print (seed, cat, (i : Sim.Config.cache_config), (d : Sim.Config.cache_config)) =
    let geom (c : Sim.Config.cache_config) =
      Printf.sprintf "%dB/%d-way/%dB lines/penalty %d" c.Sim.Config.size_bytes
        c.Sim.Config.ways c.Sim.Config.line_bytes c.Sim.Config.miss_penalty
    in
    Printf.sprintf "seed %d, extension %s, icache %s, dcache %s" seed
      (if cat < Array.length cats then Tie.Component.category_name cats.(cat)
       else "none")
      (geom i) (geom d)
  in
  QCheck.Test.make ~name:"compiled estimator = oracle, per block" ~count:25
    (QCheck.make ~print gen)
    (fun (seed, cat, icache, dcache) ->
      let category = if cat < Array.length cats then Some cats.(cat) else None in
      let c = Workloads.Synthetic.generate ~seed ?category "q" in
      let config = { Sim.Config.default with Sim.Config.icache; dcache } in
      let est, oracle =
        both ~config ?extension:c.Core.Extract.extension c.Core.Extract.asm
      in
      bits (Power.Estimator.total_energy est)
      = bits (Power.Oracle.total_energy oracle)
      && entries (Power.Estimator.breakdown est)
         = entries (Power.Oracle.breakdown oracle)
      && Power.Estimator.evaluations est = Power.Oracle.evaluations oracle)

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
          Alcotest.test_case "report units" `Quick test_report_units ] );
      ( "compiled",
        [ Alcotest.test_case "fetch after icache miss" `Quick
            test_fetch_after_icache_miss;
          Alcotest.test_case "long stall with register write" `Quick
            test_long_stall_with_write;
          Alcotest.test_case "reset mid-stream" `Quick test_reset_mid_stream;
          Alcotest.test_case "suite agrees" `Quick test_suite_agrees;
          QCheck_alcotest.to_alcotest qcheck_compiled_matches_oracle ] ) ]
