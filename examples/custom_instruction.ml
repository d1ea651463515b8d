(* Authoring a custom (TIE) instruction end to end:

   1. describe its datapath as an expression over the operands,
   2. let the TIE compiler infer widths, components and latency,
   3. use it from assembly,
   4. estimate the energy of the extended processor with the macro-model
      -- without synthesizing anything.

     dune exec examples/custom_instruction.exe *)

let fmt = Format.std_formatter

(* A saturating 16-bit add: d = min(s16 + t16, 0xffff).  The datapath is
   an adder plus a comparator and a mux. *)
let satadd16_spec =
  let open Tie.Expr in
  let widen e = Concat (Const (0, 1), e) in
  let s = Extract (Arg "s", 0, 16) and t = Extract (Arg "t", 0, 16) in
  let sum = Add (widen s, widen t) in
  let saturated =
    Mux (Extract (sum, 16, 1), Const (0xffff, 16), Extract (sum, 0, 16))
  in
  { Tie.Spec.ext_name = "satadd";
    states = [];
    tables = [];
    instructions =
      [ Tie.Spec.instruction "satadd16"
          ~ins:[ Tie.Spec.operand "s" 32; Tie.Spec.operand "t" 32 ]
          ~result:(Some saturated) ] }

let () =
  (* 2. Compile the extension and inspect what the TIE compiler found. *)
  let ext = Tie.Compile.compile satadd16_spec in
  let insn = Option.get (Tie.Compile.find ext "satadd16") in
  Format.fprintf fmt "--- TIE compilation of satadd16 ---@.";
  Format.fprintf fmt "latency: %d cycle(s)@." insn.Tie.Compile.latency;
  Format.fprintf fmt "components:@.";
  List.iter
    (fun c -> Format.fprintf fmt "  %a@." Tie.Component.pp c)
    insn.Tie.Compile.components;

  (* 3. A saturating vector accumulation using the new instruction. *)
  let open Isa.Builder in
  let b = create "sat_accumulate" in
  Workloads.Wutil.words_at b "data" ~addr:0x11000
    (Array.map (fun w -> w land 0xffff) (Workloads.Data.words ~seed:3 128));
  label b "main";
  movi b a2 0x11000;
  movi b a4 0;
  loop_n b ~cnt:a3 128 (fun () ->
      l32i b a5 a2 0;
      custom b "satadd16" ~dst:a4 [ a4; a5 ];
      addi b a2 a2 4);
  halt b;
  let case =
    Core.Extract.case ~extension:ext "sat_accumulate"
      (Isa.Program.assemble (seal b))
  in

  (* 4. Estimate with the characterized macro-model.  The key point of
     the paper: the same coefficients cover ANY extension, so adding
     satadd16 needs no re-characterization. *)
  Format.fprintf fmt "@.characterizing the base processor (once)...@.";
  let fit = Core.Characterize.run (Workloads.Suite.characterization ()) in
  let est = Core.Estimate.run fit.Core.Characterize.model case in
  Format.fprintf fmt
    "sat_accumulate: %d instructions, %d cycles, %.3f uJ (macro-model)@."
    est.Core.Estimate.instructions est.Core.Estimate.cycles
    est.Core.Estimate.energy_uj;
  let ref_pj, _ =
    Power.Estimator.estimate_program ~extension:ext case.Core.Extract.asm
  in
  Format.fprintf fmt "reference estimator: %.3f uJ (error %+.2f%%)@."
    (Power.Report.to_uj ref_pj)
    (100.0 *. (est.Core.Estimate.energy_pj -. ref_pj) /. ref_pj);
  let result =
    Sim.Cpu.reg
      (fst (Sim.Backend.run_program ~extension:ext case.Core.Extract.asm))
      (Isa.Reg.a 4)
  in
  Format.fprintf fmt "@.(functional check: saturated sum = 0x%x)@." result
