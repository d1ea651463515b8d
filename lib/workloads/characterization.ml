open Isa.Builder

let case = Core.Extract.case

let assemble b = Isa.Program.assemble (seal b)

(* Common data placement (away from the default data base so explicit and
   automatic blocks never collide). *)
let arr1 = 0x11000
let arr2 = 0x13000
let big = 0x20000

let words_at b name ~addr ws =
  let bytes = Array.make (4 * Array.length ws) 0 in
  Array.iteri
    (fun i w ->
      for k = 0 to 3 do
        bytes.((4 * i) + k) <- (w lsr (8 * k)) land 0xff
      done)
    ws;
  bytes_at b name ~addr bytes

(* 1. Dense ALU chains. *)
let arith_dense () =
  let b = create "arith_dense" in
  label b "main";
  movi b a4 0x1234;
  movi b a5 0x0fed;
  loop_n b ~cnt:a2 400 (fun () ->
      add b a6 a4 a5;
      sub b a7 a6 a4;
      xor b a4 a7 a5;
      addx4 b a5 a4 a6;
      or_ b a6 a5 a7;
      and_ b a7 a6 a4;
      max_ b a4 a6 a7;
      minu b a5 a4 a6;
      neg b a6 a5;
      abs_ b a7 a6;
      addi b a4 a4 3;
      subx2 b a5 a5 a4;
      nsau b a6 a5;
      sext b a7 a5 15;
      addmi b a4 a4 1);
  halt b;
  case "arith_dense" (assemble b)

(* 2. Multiplier pressure. *)
let arith_mul () =
  let b = create "arith_mul" in
  label b "main";
  movi b a4 0x7531;
  movi b a5 0x1b2c;
  loop_n b ~cnt:a2 350 (fun () ->
      mull b a6 a4 a5;
      mul16s b a7 a6 a4;
      mul16u b a4 a7 a5;
      addi b a5 a5 17;
      mull b a6 a5 a4;
      add b a4 a6 a7);
  halt b;
  case "arith_mul" (assemble b)

(* 3. Shifter pressure. *)
let shift_mix () =
  let b = create "shift_mix" in
  label b "main";
  movi b a4 0x4d2f;
  movi b a5 11;
  movi b a3 0x5ace;
  loop_n b ~cnt:a2 350 (fun () ->
      slli b a6 a4 3;
      srli b a7 a4 5;
      xor b a4 a4 a7;       (* keep operand entropy alive *)
      ssl b a5;
      sll b a6 a4;
      ssr b a5;
      srl b a7 a6;
      src b a3 a6 a7;
      ssai b 7;
      sra b a6 a4;
      extui b a7 a6 4 12;
      xor b a4 a4 a3;
      addi b a4 a4 0x35;
      addi b a5 a5 3);
  halt b;
  case "shift_mix" (assemble b)

(* 4/5. Memory streams.  The footprint (2 KB) fits in the data cache so
   the load/store columns stay decoupled from the miss column; stored
   values evolve so bus and array toggling is realistic. *)
let stream name ~loads ~stores =
  let b = create name in
  words_at b "src" ~addr:arr1 (Data.words ~seed:41 256);
  label b "main";
  movi b a6 0x3c96_a55a;
  loop_n b ~cnt:a2 5 (fun () ->
      movi b a4 arr1;
      movi b a5 arr2;
      loop_n b ~cnt:a3 256 (fun () ->
          if loads then l32i b a6 a4 0 else xor b a6 a6 a4;
          if loads then l32i b a7 a4 4 else addx2 b a7 a6 a3;
          (if stores then begin
             s32i b a6 a5 0;
             s32i b a7 a5 4
           end);
          addi b a4 a4 8;
          addi b a5 a5 8));
  halt b;
  case name (assemble b)

let load_stream () = stream "load_stream" ~loads:true ~stores:false
let store_stream () = stream "store_stream" ~loads:false ~stores:true

(* 7. Taken-branch pressure. *)
let branch_taken () =
  let b = create "branch_taken" in
  label b "main";
  movi b a4 0;
  movi b a5 0;
  loop_n b ~cnt:a2 400 (fun () ->
      let l1 = fresh b "t" in
      let l2 = fresh b "t" in
      let l3 = fresh b "t" in
      beq b a4 a5 l1;       (* always taken *)
      addi b a4 a4 1;       (* skipped *)
      label b l1;
      bgez b a4 l2;         (* always taken *)
      addi b a5 a5 1;
      label b l2;
      bnei b a4 99999 l3;   (* always taken *)
      nop b;
      label b l3;
      addi b a6 a6 1);
  halt b;
  case "branch_taken" (assemble b)

(* 8. Untaken-branch pressure. *)
(* Branch operands vary every iteration while every condition stays
   false by construction: a4 is a positive 16-bit value (bit 30 clear),
   a6 = a4 + 2^30 and a7 = lnot a4. *)
let branch_untaken () =
  let b = create "branch_untaken" in
  label b "main";
  movi b a3 0x2b67;
  movi b a8 0x4000_0000;
  movi b a9 (-1);
  let skip = fresh b "end" in
  loop_n b ~cnt:a2 400 (fun () ->
      addi b a3 a3 12345;
      extui b a4 a3 0 16;
      addi b a4 a4 1;
      add b a6 a4 a8;
      xor b a7 a4 a9;
      beq b a4 a6 skip;
      bltz b a4 skip;
      beqz b a4 skip;
      bgeu b a4 a6 skip;
      beqi b a4 (-5) skip;
      bany b a4 a7 skip;
      bbsi b a4 30 skip);
  label b skip;
  halt b;
  case "branch_untaken" (assemble b)

(* 9. Windowed call tree (forces overflow/underflow spills). *)
let call_tree () =
  let b = create "call_tree" in
  label b "main";
  movi b a1 0x80000;
  loop_n b ~cnt:a2 40 (fun () -> call8 b "f1");
  halt b;
  let chain n next =
    label b (Printf.sprintf "f%d" n);
    entry b a1 16;
    addi b a10 a10 1;
    (match next with
     | Some m -> call8 b (Printf.sprintf "f%d" m)
     | None -> ());
    addi b a11 a10 2;
    retw b
  in
  for i = 1 to 9 do
    chain i (if i < 9 then Some (i + 1) else None)
  done;
  case "call_tree" (assemble b)

(* 10. Jumps, indirect jumps and non-windowed calls. *)
let jump_mix () =
  let b = create "jump_mix" in
  label b "main";
  movi b a1 0x80000;
  loop_n b ~cnt:a2 300 (fun () ->
      let mid = fresh b "mid" in
      let after = fresh b "after" in
      j b mid;
      nop b;
      label b mid;
      call0 b "leaf";
      l32r b a6 "after_addr";
      jx b a6;
      nop b;
      label b after;
      lit_addr b "after_addr" after;
      addi b a7 a7 1);
  halt b;
  label b "leaf";
  addi b a4 a4 1;
  ret b;
  case "jump_mix" (assemble b)

(* 11. Instruction-cache thrash: straight-line body larger than the
   16 KB instruction cache, iterated. *)
let icache_thrash () =
  let b = create "icache_thrash" in
  label b "main";
  movi b a4 1;
  movi b a5 3;
  movi b a2 8;
  label b "outer";
  for i = 0 to 6499 do
    match i mod 5 with
    | 0 -> add b a6 a4 a5
    | 1 -> xor b a7 a6 a4
    | 2 -> addi b a4 a4 1
    | 3 -> sub b a5 a7 a6
    | _ -> or_ b a6 a5 a4
  done;
  addi b a2 a2 (-1);
  bnez b a2 "outer";
  halt b;
  case "icache_thrash" (assemble b)

(* 12. Data-cache thrash: conflict-stride walks (all map to one set). *)
let dcache_thrash () =
  let b = create "dcache_thrash" in
  words_at b "bigarr" ~addr:big (Data.words ~seed:42 64);
  label b "main";
  loop_n b ~cnt:a2 200 (fun () ->
      movi b a4 big;
      loop_n b ~cnt:a3 8 (fun () ->
          l32i b a5 a4 0;
          s32i b a5 a4 4;
          addmi b a4 a4 16 (* stride 4096: same cache set every time *)))
  ;
  halt b;
  case "dcache_thrash" (assemble b)

(* 13. Code in the uncached region. *)
let uncached_code () =
  let b = create "uncached_code" in
  label b "main";
  movi b a4 0;
  loop_n b ~cnt:a2 150 (fun () ->
      addi b a4 a4 1;
      xor b a5 a4 a2;
      add b a6 a5 a4);
  halt b;
  let p = seal b in
  let asm =
    Isa.Program.assemble ~code_base:Sim.Config.default.Sim.Config.uncached_base
      ~data_base:(Sim.Config.default.Sim.Config.uncached_base + 0x10000) p
  in
  case "uncached_code" asm

(* 14. Load-use and multiply-use interlock chains. *)
let interlock_chain () =
  let b = create "interlock_chain" in
  words_at b "ptrs" ~addr:arr1 (Data.words ~seed:43 256);
  label b "main";
  movi b a4 arr1;
  loop_n b ~cnt:a2 256 (fun () ->
      l32i b a5 a4 0;
      addi b a6 a5 1;        (* load-use interlock *)
      l32i b a7 a4 4;
      add b a5 a7 a6;        (* load-use interlock *)
      mull b a6 a5 a7;
      add b a7 a6 a5;        (* mull-use interlock *)
      addi b a4 a4 8);
  halt b;
  case "interlock_chain" (assemble b)

(* 16-25. Custom-component coverage: one program per primary category.
   Each program also sprinkles in the next category's instruction so
   every structural column appears in at least two programs at different
   densities — without that, the side-effect variable and the structural
   columns are pairwise collinear and the regression cannot split them. *)
let emit_cover_custom b cat ~dst srcs =
  let cname = Tie_lib.coverage_insn_name cat in
  let need n =
    if List.length srcs < n then
      invalid_arg "emit_cover_custom: not enough source registers"
  in
  match cat with
  | Tie.Component.Custom_register ->
    need 1;
    custom b "xregw" [ List.nth srcs 0 ];
    custom b "xregbump" [];
    custom b "xregr" ~dst []
  | Tie.Component.Tie_mac | Tie.Component.Tie_add | Tie.Component.Tie_csa ->
    need 3;
    custom b cname ~dst [ List.nth srcs 0; List.nth srcs 1; List.nth srcs 2 ]
  | Tie.Component.Table ->
    need 1;
    custom b cname ~dst [ List.nth srcs 0 ]
  | Tie.Component.Multiplier | Tie.Component.Adder | Tie.Component.Logic
  | Tie.Component.Shifter | Tie.Component.Tie_mult ->
    need 2;
    custom b cname ~dst [ List.nth srcs 0; List.nth srcs 1 ]

let coverage_case cat ~companion ~iters ~seed =
  let ext = Tie_lib.coverage_pair cat companion in
  let cname = Tie_lib.coverage_insn_name cat in
  let b = create ("cover_" ^ cname) in
  words_at b "cdata" ~addr:arr1 (Data.words ~seed (2 * iters));
  label b "main";
  movi b a4 arr1;
  movi b a5 0x1357;
  loop_n b ~cnt:a2 iters (fun () ->
      l32i b a6 a4 0;
      l32i b a7 a4 4;
      emit_cover_custom b cat ~dst:a5 [ a6; a7; a5 ];
      emit_cover_custom b cat ~dst:a3 [ a7; a5; a6 ];
      emit_cover_custom b cat ~dst:a5 [ a5; a6; a7 ];
      emit_cover_custom b companion ~dst:a3 [ a6; a3; a7 ];
      add b a5 a5 a3;
      addi b a4 a4 8);
  halt b;
  case ~extension:ext ("cover_" ^ cname) (assemble b)

(* Custom-mix programs: extensions spanning several component categories
   at once, with component-to-side-effect ratios different from the
   single-category coverage programs.  They break the rank deficiency
   between the regfile side-effect variable and the structural columns. *)
let custom_mix_gf () =
  let b = create "custom_mix_gf" in
  words_at b "gfd" ~addr:arr1
    (Array.map (fun w -> w land 0xff) (Data.words ~seed:61 600));
  label b "main";
  movi b a4 arr1;
  custom b "clrsyn" [];
  loop_n b ~cnt:a2 300 (fun () ->
      l32i b a5 a4 0;
      l32i b a6 a4 4;
      custom b "gfmul" ~dst:a7 [ a5; a6 ];
      custom b "gfmacc" ~imm:29 [ a7 ];
      add b a5 a5 a7;
      addi b a4 a4 8);
  custom b "rdsyn" ~dst:a3 [];
  halt b;
  case ~extension:Tie_lib.gfmac_ext "custom_mix_gf" (assemble b)

let custom_mix_mac () =
  let b = create "custom_mix_mac" in
  words_at b "macd" ~addr:arr1
    (Array.map (fun w -> w land 0xffff) (Data.words ~seed:62 700));
  label b "main";
  movi b a4 arr1;
  custom b "clracc" [];
  loop_n b ~cnt:a2 320 (fun () ->
      l32i b a5 a4 0;
      l32i b a6 a4 4;
      custom b "mac" [ a5; a6 ];
      custom b "mac" [ a6; a5 ];
      custom b "rdacc" ~dst:a7 [];
      xor b a5 a5 a7;
      addi b a4 a4 8);
  halt b;
  case ~extension:Tie_lib.mac_ext "custom_mix_mac" (assemble b)

let categories_with_iters =
  (* (primary, companion, iterations, data seed); companions rotate so
     every category appears both as a primary (three per loop) and as
     another program's companion (one per loop). *)
  let cats =
    [ (Tie.Component.Multiplier, 320, 51);
      (Tie.Component.Adder, 500, 52);
      (Tie.Component.Logic, 450, 53);
      (Tie.Component.Shifter, 280, 54);
      (Tie.Component.Custom_register, 260, 55);
      (Tie.Component.Tie_mult, 330, 56);
      (Tie.Component.Tie_mac, 300, 57);
      (Tie.Component.Tie_add, 420, 58);
      (Tie.Component.Tie_csa, 380, 59);
      (Tie.Component.Table, 360, 60) ]
  in
  let n = List.length cats in
  List.mapi
    (fun i (cat, iters, seed) ->
      let companion, _, _ = List.nth cats ((i + 1) mod n) in
      (cat, companion, iters, seed))
    cats

let suite () =
  [ arith_dense (); arith_mul (); shift_mix ();
    load_stream (); store_stream ();
    branch_taken (); branch_untaken ();
    call_tree (); jump_mix ();
    icache_thrash (); dcache_thrash (); uncached_code ();
    interlock_chain () ]
  @ List.map
      (fun (cat, companion, iters, seed) ->
        coverage_case cat ~companion ~iters ~seed)
      categories_with_iters
  @ [ custom_mix_gf (); custom_mix_mac () ]
