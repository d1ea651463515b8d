(* Energy-performance trade-off of an instruction-set extension: the
   same dot-product kernel written against the base ISA and against the
   MAC extension, compared for cycles and energy.

     dune exec examples/tradeoff.exe *)

let fmt = Format.std_formatter

let n = 256
let x_addr = 0x11000
let y_addr = 0x12000

let data_x = Workloads.Data.words ~seed:21 n
let data_y = Workloads.Data.words ~seed:22 n

let place b =
  Workloads.Wutil.words_at b "x"
    ~addr:x_addr (Array.map (fun w -> w land 0x7fff) data_x);
  Workloads.Wutil.words_at b "y"
    ~addr:y_addr (Array.map (fun w -> w land 0x7fff) data_y)

(* Base-ISA dot product: mul16u + add. *)
let software_version () =
  let open Isa.Builder in
  let b = create "dot_soft" in
  place b;
  label b "main";
  movi b a2 x_addr;
  movi b a3 y_addr;
  movi b a4 0;
  loop_n b ~cnt:a5 (n / 4) (fun () ->
      for k = 0 to 3 do
        l32i b a6 a2 (4 * k);
        l32i b a7 a3 (4 * k);
        mul16u b a8 a6 a7;
        add b a4 a4 a8
      done;
      addi b a2 a2 16;
      addi b a3 a3 16);
  halt b;
  Core.Extract.case "dot_soft" (Isa.Program.assemble (seal b))

(* The same kernel with the MAC custom instruction and its accumulator
   register. *)
let mac_version () =
  let open Isa.Builder in
  let b = create "dot_mac" in
  place b;
  label b "main";
  movi b a2 x_addr;
  movi b a3 y_addr;
  custom b "clracc" [];
  loop_n b ~cnt:a5 (n / 4) (fun () ->
      for k = 0 to 3 do
        l32i b a6 a2 (4 * k);
        l32i b a7 a3 (4 * k);
        custom b "mac" [ a6; a7 ]
      done;
      addi b a2 a2 16;
      addi b a3 a3 16);
  custom b "rdacc" ~dst:a4 [];
  halt b;
  Core.Extract.case ~extension:Workloads.Tie_lib.mac_ext "dot_mac"
    (Isa.Program.assemble (seal b))

let () =
  Format.fprintf fmt "characterizing the base processor...@.";
  let fit = Core.Characterize.run (Workloads.Suite.characterization ()) in
  let model = fit.Core.Characterize.model in
  let report (c : Core.Extract.case) =
    let est = Core.Estimate.run model c in
    (* Functional check: both versions compute the same dot product. *)
    let cpu, _ =
      Sim.Backend.run_program ?extension:c.Core.Extract.extension
        c.Core.Extract.asm
    in
    let value = Sim.Cpu.reg cpu (Isa.Reg.a 4) in
    Format.fprintf fmt "%-10s %8d cycles   %8.3f uJ   result 0x%08x@."
      c.Core.Extract.case_name est.Core.Estimate.cycles
      est.Core.Estimate.energy_uj value;
    (est.Core.Estimate.cycles, est.Core.Estimate.energy_uj, value)
  in
  let sc, se, sv = report (software_version ()) in
  let mc, me, mv = report (mac_version ()) in
  if sv <> mv then failwith "versions disagree";
  Format.fprintf fmt
    "@.the MAC extension is %.2fx faster and changes energy by %.2fx@."
    (float_of_int sc /. float_of_int mc)
    (me /. se);
  Format.fprintf fmt
    "(energy-performance trade-offs like this are what the macro-model@.\
     \ makes cheap to explore: no synthesis, no RTL power estimation)@."
