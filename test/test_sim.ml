(* Tests for the instruction-set simulator: memory, caches, the windowed
   register file and the CPU's instruction semantics, cycle accounting
   and event stream. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Memory -------------------------------------------------------------- *)

let test_memory_roundtrip () =
  let m = Sim.Memory.create () in
  Sim.Memory.store32 m 0x1000 0xdeadbeef;
  check Alcotest.int "word" 0xdeadbeef (Sim.Memory.load32 m 0x1000);
  check Alcotest.int "low byte" 0xef (Sim.Memory.load8 m 0x1000);
  check Alcotest.int "half" 0xbeef (Sim.Memory.load16 m 0x1000);
  Sim.Memory.store8 m 0x1003 0x11;
  check Alcotest.int "byte patch" 0x11adbeef (Sim.Memory.load32 m 0x1000);
  check Alcotest.int "cold memory reads zero" 0 (Sim.Memory.load32 m 0x9000)

let test_memory_alignment () =
  let m = Sim.Memory.create () in
  (match Sim.Memory.load32 m 0x1002 with
   | exception Invalid_argument _ -> ()
   | _ -> fail "misaligned load accepted");
  match Sim.Memory.store16 m 0x1001 3 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "misaligned store accepted"

let test_memory_page_crossing () =
  let m = Sim.Memory.create () in
  Sim.Memory.store32 m 0xffc 0x12345678;
  check Alcotest.int "straddles pages" 0x12345678 (Sim.Memory.load32 m 0xffc)

let qcheck_memory =
  QCheck.Test.make ~name:"store32/load32 round trip" ~count:200
    QCheck.(pair (int_bound 0xfffff) (int_bound 0xffffffff))
    (fun (addr, v) ->
      let addr = addr land lnot 3 in
      let m = Sim.Memory.create () in
      Sim.Memory.store32 m addr v;
      Sim.Memory.load32 m addr = v land 0xffffffff)

(* --- Cache --------------------------------------------------------------- *)

let small_cache =
  { Sim.Config.size_bytes = 256; ways = 2; line_bytes = 32; miss_penalty = 10 }

let test_cache_basics () =
  let c = Sim.Cache.create small_cache in
  check Alcotest.int "4 sets" 4 (Sim.Cache.sets c);
  check Alcotest.bool "first access misses" true
    (Sim.Cache.access c 0x100 = Sim.Cache.Miss);
  check Alcotest.bool "second access hits" true
    (Sim.Cache.access c 0x100 = Sim.Cache.Hit);
  check Alcotest.bool "same line hits" true
    (Sim.Cache.access c 0x11f = Sim.Cache.Hit);
  check Alcotest.bool "next line misses" true
    (Sim.Cache.access c 0x120 = Sim.Cache.Miss);
  let st = Sim.Cache.stats c in
  check Alcotest.int "accesses" 4 st.Sim.Cache.accesses;
  check Alcotest.int "hits" 2 st.Sim.Cache.hits;
  check Alcotest.int "misses" 2 st.Sim.Cache.misses

let test_cache_lru () =
  let c = Sim.Cache.create small_cache in
  (* Set stride = 4 sets * 32B = 128B; these three addresses map to the
     same 2-way set, so the third evicts the least recently used. *)
  ignore (Sim.Cache.access c 0x000);
  ignore (Sim.Cache.access c 0x080);
  ignore (Sim.Cache.access c 0x000);   (* touch: 0x080 becomes LRU *)
  ignore (Sim.Cache.access c 0x100);   (* evicts 0x080 *)
  check Alcotest.bool "recently used line survives" true
    (Sim.Cache.resident c 0x000);
  check Alcotest.bool "LRU line evicted" false (Sim.Cache.resident c 0x080);
  check Alcotest.bool "new line resident" true (Sim.Cache.resident c 0x100)

let test_cache_reset () =
  let c = Sim.Cache.create small_cache in
  ignore (Sim.Cache.access c 0x40);
  Sim.Cache.reset c;
  check Alcotest.bool "flushed" false (Sim.Cache.resident c 0x40);
  check Alcotest.int "stats cleared" 0 (Sim.Cache.stats c).Sim.Cache.accesses

let qcheck_cache_resident_after_access =
  QCheck.Test.make ~name:"address is resident right after access" ~count:200
    QCheck.(small_list (int_bound 0xffff))
    (fun addrs ->
      let c = Sim.Cache.create small_cache in
      List.for_all
        (fun a ->
          ignore (Sim.Cache.access c a);
          Sim.Cache.resident c a)
        addrs)

let test_way_tags () =
  let c = Sim.Cache.create small_cache in
  ignore (Sim.Cache.access c 0x000);
  let tags = Sim.Cache.way_tags c 0x000 in
  check Alcotest.int "two ways" 2 (Array.length tags);
  check Alcotest.bool "installed tag present" true (Array.exists (( = ) 0) tags)

(* --- Regfile ------------------------------------------------------------- *)

let test_regfile_window () =
  let rf = Sim.Regfile.create () in
  Sim.Regfile.write rf (Isa.Reg.a 8) 42;
  ignore (Sim.Regfile.push_window rf);
  (* After +8 rotation the caller's a8 is the callee's a0. *)
  check Alcotest.int "a8 becomes a0" 42 (Sim.Regfile.read rf (Isa.Reg.a 0));
  Sim.Regfile.write rf (Isa.Reg.a 0) 43;   (* callee's a0 aliases it *)
  ignore (Sim.Regfile.pop_window rf);
  check Alcotest.int "caller sees the aliased write" 43
    (Sim.Regfile.read rf (Isa.Reg.a 8))

let test_regfile_spill_refill () =
  let rf = Sim.Regfile.create () in
  (* Mark the base frame, then push deep enough to force spills. *)
  Sim.Regfile.write rf (Isa.Reg.a 2) 1234;
  let spills = ref 0 in
  for _ = 1 to 9 do
    if Sim.Regfile.push_window rf then incr spills
  done;
  check Alcotest.bool "deep call stack spilled" true (!spills > 0);
  let refills = ref 0 in
  for _ = 1 to 9 do
    if Sim.Regfile.pop_window rf then incr refills
  done;
  check Alcotest.int "spills were refilled" !spills !refills;
  check Alcotest.int "base frame value restored" 1234
    (Sim.Regfile.read rf (Isa.Reg.a 2))

let qcheck_regfile_lifo =
  QCheck.Test.make ~name:"window values survive any LIFO call depth"
    ~count:100
    QCheck.(int_range 1 20)
    (fun depth ->
      let rf = Sim.Regfile.create () in
      (* Each frame writes a distinctive value into its a4. *)
      let rec descend d =
        Sim.Regfile.write rf (Isa.Reg.a 4) (1000 + d);
        let inner_ok =
          if d < depth then begin
            ignore (Sim.Regfile.push_window rf);
            let ok = descend (d + 1) in
            ignore (Sim.Regfile.pop_window rf);
            ok
          end
          else true
        in
        inner_ok && Sim.Regfile.read rf (Isa.Reg.a 4) = 1000 + d
      in
      descend 0)

(* --- CPU semantics ------------------------------------------------------- *)

let run_asm ?config ?extension build =
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  build b;
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let cpu, outcome =
    Sim.Backend.run_program ~backend:Sim.Backend.Interp ?config ?extension asm
  in
  (match outcome with
   | Sim.Cpu.Halted -> ()
   | Sim.Cpu.Watchdog -> fail "program hit the watchdog");
  cpu

let reg cpu n = Sim.Cpu.reg cpu (Isa.Reg.a n)

let test_alu_semantics () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a2 7;
        movi b a3 (-3);
        add b a4 a2 a3;           (* 4 *)
        sub b a5 a3 a2;           (* -10 *)
        mull b a6 a2 a2;          (* 49 *)
        abs_ b a7 a3;             (* 3 *)
        min_ b a8 a2 a3;          (* -3 *)
        maxu b a9 a2 a3;          (* unsigned max = 0xfffffffd *)
        addx4 b a10 a2 a2;        (* 7*4+7 = 35 *)
        nsau b a11 a2)            (* clz(7) = 29 *)
  in
  check Alcotest.int "add" 4 (reg cpu 4);
  check Alcotest.int "sub" 0xfffffff6 (reg cpu 5);
  check Alcotest.int "mull" 49 (reg cpu 6);
  check Alcotest.int "abs" 3 (reg cpu 7);
  check Alcotest.int "min signed" 0xfffffffd (reg cpu 8);
  check Alcotest.int "maxu" 0xfffffffd (reg cpu 9);
  check Alcotest.int "addx4" 35 (reg cpu 10);
  check Alcotest.int "nsau" 29 (reg cpu 11)

let test_mul16_and_sext () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a2 0xffff;          (* -1 as 16-bit *)
        movi b a3 5;
        mul16s b a4 a2 a3;         (* -5 *)
        mul16u b a5 a2 a3;         (* 0x4fffb *)
        sext b a6 a2 7)            (* 0xffffffff *)
  in
  check Alcotest.int "mul16s" 0xfffffffb (reg cpu 4);
  check Alcotest.int "mul16u" (0xffff * 5) (reg cpu 5);
  check Alcotest.int "sext" 0xffffffff (reg cpu 6)

let test_shift_semantics () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a2 0x80000001;
        slli b a3 a2 4;           (* 0x10 *)
        srli b a4 a2 28;          (* 8 *)
        srai b a5 a2 28;          (* 0xfffffff8 *)
        ssai b 8;
        srl b a6 a2;              (* 0x00800000 *)
        movi b a7 0xf0;
        ssr b a7;                 (* sar = 0x10 land 31 = 16 *)
        sll b a8 a2;              (* 0x00010000 *)
        extui b a9 a2 28 4)       (* 8 *)
  in
  check Alcotest.int "slli" 0x10 (reg cpu 3);
  check Alcotest.int "srli" 8 (reg cpu 4);
  check Alcotest.int "srai" 0xfffffff8 (reg cpu 5);
  check Alcotest.int "srl via sar" 0x00800000 (reg cpu 6);
  check Alcotest.int "sll via sar" 0x00010000 (reg cpu 8);
  check Alcotest.int "extui" 8 (reg cpu 9)

let test_memory_instructions () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a2 0x11000;
        movi b a3 0x8765;
        s16i b a3 a2 0;
        l16si b a4 a2 0;          (* sign extended: 0xffff8765 *)
        l16ui b a5 a2 0;          (* 0x8765 *)
        movi b a6 0xfe;
        s8i b a6 a2 4;
        l8ui b a7 a2 4)
  in
  check Alcotest.int "l16si" 0xffff8765 (reg cpu 4);
  check Alcotest.int "l16ui" 0x8765 (reg cpu 5);
  check Alcotest.int "l8ui" 0xfe (reg cpu 7)

let test_branch_and_cmov () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a2 5;
        movi b a3 5;
        movi b a4 0;
        beq b a2 a3 "taken";
        movi b a4 111;            (* skipped *)
        label b "taken";
        addi b a4 a4 1;           (* a4 = 1 *)
        movi b a5 0;
        movi b a6 77;
        moveqz b a5 a6 a4;        (* a4 <> 0: no move *)
        movi b a7 0;
        moveqz b a7 a6 a7)        (* 0 = 0: wait, t is a7 itself *)
  in
  check Alcotest.int "branch taken skips" 1 (reg cpu 4);
  check Alcotest.int "moveqz false" 0 (reg cpu 5)

let test_call0_and_ret () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a4 0;
        call0 b "leaf";
        addi b a4 a4 100;
        j b "end";
        label b "leaf";
        addi b a4 a4 1;
        ret b;
        label b "end";
        nop b)
  in
  check Alcotest.int "leaf ran once then returned" 101 (reg cpu 4)

let test_call8_windows () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        movi b a1 0x80000;
        movi b a4 11;             (* caller local *)
        movi b a10 55;            (* callee sees this as a2 *)
        call8 b "callee";
        j b "done";
        label b "callee";
        entry b a1 16;
        addi b a2 a2 1;           (* caller's a10 += 1 *)
        movi b a4 999;            (* callee local: must not clobber caller a4 *)
        retw b;
        label b "done";
        nop b)
  in
  check Alcotest.int "caller local preserved" 11 (reg cpu 4);
  check Alcotest.int "callee wrote through the overlap" 56 (reg cpu 10)

let test_jx_indirect () =
  let open Isa.Builder in
  let cpu =
    run_asm (fun b ->
        l32r b a2 "dest";
        jx b a2;
        movi b a3 1;              (* skipped *)
        label b "target";
        movi b a4 9;
        lit_addr b "dest" "target")
  in
  check Alcotest.int "jumped over" 0 (reg cpu 3);
  check Alcotest.int "landed" 9 (reg cpu 4)

(* --- Cycle accounting and events ----------------------------------------- *)

let collect_events ?config ?extension build =
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  build b;
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let events = ref [] in
  let cpu, _ =
    Sim.Backend.run_program ~backend:Sim.Backend.Interp ?config ?extension
      ~observers:[ (fun e -> events := e :: !events) ]
      asm
  in
  (cpu, List.rev !events)

let test_interlock_detection () =
  let open Isa.Builder in
  let _, events =
    collect_events (fun b ->
        movi b a2 0x11000;
        l32i b a6 a2 0;          (* warms the line (miss absorbs latency) *)
        nop b;
        nop b;
        l32i b a3 a2 0;          (* hit *)
        addi b a4 a3 1;          (* load-use: must stall *)
        nop b;
        addi b a5 a3 1)          (* far enough: no stall *)
  in
  let stalled =
    List.filter (fun e -> e.Sim.Event.interlock) events
  in
  check Alcotest.int "exactly one interlock" 1 (List.length stalled)

let test_branch_penalty_cycles () =
  let open Isa.Builder in
  let cpu_taken, _ =
    collect_events (fun b ->
        movi b a2 0;
        beqz b a2 "t";
        nop b;
        label b "t";
        nop b)
  in
  let cpu_untaken, _ =
    collect_events (fun b ->
        movi b a2 1;
        beqz b a2 "t";
        nop b;
        label b "t";
        nop b)
  in
  (* The taken path executes one instruction fewer but pays the
     redirect penalty. *)
  check Alcotest.int "taken costs the penalty"
    (Sim.Cpu.cycles cpu_untaken + Sim.Config.default.Sim.Config.branch_taken_penalty - 1)
    (Sim.Cpu.cycles cpu_taken)

let test_icache_miss_counting () =
  let open Isa.Builder in
  let _, events =
    collect_events (fun b ->
        Isa.Builder.loop_n b ~cnt:a2 3 (fun () ->
            nop b;
            nop b))
  in
  let misses =
    List.length
      (List.filter
         (fun e ->
           (not e.Sim.Event.fetch.Sim.Event.funcached)
           && not e.Sim.Event.fetch.Sim.Event.fhit)
         events)
  in
  (* All code fits in one or two lines: misses only on first touch. *)
  check Alcotest.bool "compulsory misses only" true
    (misses >= 1 && misses <= 2)

let test_uncached_fetch () =
  let b = Isa.Builder.create "u" in
  Isa.Builder.label b "main";
  Isa.Builder.nop b;
  Isa.Builder.halt b;
  let base = Sim.Config.default.Sim.Config.uncached_base in
  let asm =
    Isa.Program.assemble ~code_base:base ~data_base:(base + 0x1000)
      (Isa.Builder.seal b)
  in
  let stats = Sim.Stats.create Sim.Config.default in
  let _ =
    Sim.Backend.run_program ~backend:Sim.Backend.Interp
      ~observers:[ Sim.Stats.observer stats ] asm
  in
  check Alcotest.int "every fetch uncached" 2
    stats.Sim.Stats.uncached_fetches

let test_custom_instruction_events () =
  let open Isa.Builder in
  let ext = Workloads.Tie_lib.mac_ext in
  let cpu, events =
    collect_events ~extension:ext (fun b ->
        movi b a2 6;
        movi b a3 7;
        custom b "clracc" [];
        custom b "mac" [ a2; a3 ];
        custom b "rdacc" ~dst:a4 [])
  in
  check Alcotest.int "mac result readable" 42 (reg cpu 4);
  let customs =
    List.filter
      (fun e -> e.Sim.Event.clazz = Isa.Instr.Custom_class)
      events
  in
  check Alcotest.int "three custom events" 3 (List.length customs);
  List.iter
    (fun e ->
      match e.Sim.Event.custom with
      | Some info ->
        check Alcotest.bool "state values exposed" true
          (List.length info.Sim.Event.cstates = 1)
      | None -> fail "custom info missing")
    customs

let test_unknown_custom_rejected () =
  let open Isa.Builder in
  match
    run_asm (fun b -> custom b "no_such_insn" [ a2 ])
  with
  | exception Sim.Cpu.Sim_error _ -> ()
  | _ -> fail "unknown custom instruction accepted"

let test_watchdog () =
  let b = Isa.Builder.create "spin" in
  Isa.Builder.label b "main";
  Isa.Builder.j b "main";
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let config = { Sim.Config.default with Sim.Config.max_cycles = 1000 } in
  let _, outcome =
    Sim.Backend.run_program ~backend:Sim.Backend.Interp ~config asm
  in
  check Alcotest.bool "watchdog fires" true (outcome = Sim.Cpu.Watchdog)

(* Differential test: random straight-line ALU programs executed by the
   CPU and by an independent Int32-based oracle must agree on every
   register.  This exercises 32-bit wrap-around, signedness and shift
   semantics through a completely separate code path. *)

type alu_op =
  | O_add | O_sub | O_and | O_or | O_xor
  | O_addx2 | O_addx4 | O_addx8
  | O_min | O_max | O_minu | O_maxu
  | O_mull | O_mul16u | O_mul16s
  | O_abs | O_neg | O_nsau
  | O_addi of int
  | O_slli of int | O_srli of int | O_srai of int
  | O_extui of int * int
  | O_sext of int

let gen_alu_op =
  let open QCheck.Gen in
  frequency
    [ (3, oneofl [ O_add; O_sub; O_and; O_or; O_xor ]);
      (2, oneofl [ O_addx2; O_addx4; O_addx8 ]);
      (2, oneofl [ O_min; O_max; O_minu; O_maxu ]);
      (2, oneofl [ O_mull; O_mul16u; O_mul16s ]);
      (1, oneofl [ O_abs; O_neg; O_nsau ]);
      (2, map (fun n -> O_addi n) (int_range (-100) 100));
      (1, map (fun n -> O_slli n) (int_range 0 31));
      (1, map (fun n -> O_srli n) (int_range 0 31));
      (1, map (fun n -> O_srai n) (int_range 0 31));
      (1, map2 (fun sh w -> O_extui (sh, w)) (int_range 0 23) (int_range 1 8));
      (1, map (fun b -> O_sext b) (int_range 7 22)) ]

(* Programs use a2..a9; each step writes one of them from two others. *)
type alu_step = { op : alu_op; dst : int; src1 : int; src2 : int }

let gen_step =
  let open QCheck.Gen in
  let reg = int_range 2 9 in
  map3
    (fun op dst (src1, src2) -> { op; dst; src1; src2 })
    gen_alu_op reg (pair reg reg)

let gen_program =
  QCheck.Gen.(pair (array_size (return 8) (int_bound 0xfff))
                (list_size (int_range 5 40) gen_step))

let emit_step b { op; dst; src1; src2 } =
  let r n = Isa.Reg.a n in
  let open Isa.Builder in
  let d = r dst and s = r src1 and t = r src2 in
  match op with
  | O_add -> add b d s t
  | O_sub -> sub b d s t
  | O_and -> and_ b d s t
  | O_or -> or_ b d s t
  | O_xor -> xor b d s t
  | O_addx2 -> addx2 b d s t
  | O_addx4 -> addx4 b d s t
  | O_addx8 -> addx8 b d s t
  | O_min -> min_ b d s t
  | O_max -> max_ b d s t
  | O_minu -> minu b d s t
  | O_maxu -> maxu b d s t
  | O_mull -> mull b d s t
  | O_mul16u -> mul16u b d s t
  | O_mul16s -> mul16s b d s t
  | O_abs -> abs_ b d s
  | O_neg -> neg b d s
  | O_nsau -> nsau b d s
  | O_addi n -> addi b d s n
  | O_slli n -> slli b d s n
  | O_srli n -> srli b d s n
  | O_srai n -> srai b d s n
  | O_extui (sh, w) -> extui b d s sh w
  | O_sext bn -> sext b d s bn

(* The independent oracle: Int32 arithmetic. *)
let oracle_step regs { op; dst; src1; src2 } =
  let open Int32 in
  let s = regs.(src1 - 2) and t = regs.(src2 - 2) in
  let ulty a b =
    (* unsigned less-than on Int32 *)
    let flip x = logxor x min_int in
    compare (flip a) (flip b) < 0
  in
  let v =
    match op with
    | O_add -> add s t
    | O_sub -> sub s t
    | O_and -> logand s t
    | O_or -> logor s t
    | O_xor -> logxor s t
    | O_addx2 -> add (shift_left s 1) t
    | O_addx4 -> add (shift_left s 2) t
    | O_addx8 -> add (shift_left s 3) t
    | O_min -> if compare s t < 0 then s else t
    | O_max -> if compare s t > 0 then s else t
    | O_minu -> if ulty s t then s else t
    | O_maxu -> if ulty s t then t else s
    | O_mull -> mul s t
    | O_mul16u ->
      mul (logand s 0xffffl) (logand t 0xffffl)
    | O_mul16s ->
      let sx v = shift_right (shift_left v 16) 16 in
      mul (sx s) (sx t)
    | O_abs -> Int32.abs s
    | O_neg -> Int32.neg s
    | O_nsau ->
      let rec clz n x =
        if n = 32 then 32l
        else if logand x 0x80000000l <> 0l then of_int n
        else clz (n + 1) (shift_left x 1)
      in
      if s = 0l then 32l else clz 0 s
    | O_addi n -> add s (of_int n)
    | O_slli n -> shift_left s n
    | O_srli n -> shift_right_logical s n
    | O_srai n -> shift_right s n
    | O_extui (sh, w) ->
      logand (shift_right_logical s sh) (of_int ((1 lsl w) - 1))
    | O_sext bn ->
      shift_right (shift_left s (31 - bn)) (31 - bn)
  in
  regs.(dst - 2) <- v

let qcheck_cpu_matches_int32_oracle =
  QCheck.Test.make ~name:"CPU agrees with the Int32 oracle" ~count:300
    (QCheck.make gen_program)
    (fun (inits, steps) ->
      let b = Isa.Builder.create "diff" in
      Isa.Builder.label b "main";
      Array.iteri
        (fun i v -> Isa.Builder.movi b (Isa.Reg.a (i + 2)) v)
        inits;
      List.iter (emit_step b) steps;
      Isa.Builder.halt b;
      let asm = Isa.Program.assemble (Isa.Builder.seal b) in
      (* Check mode: the threaded result is compared with the oracle,
         the interpreter's event stream with the threaded one. *)
      let cpu, outcome =
        Sim.Backend.run_program ~backend:Sim.Backend.Check asm
      in
      if outcome <> Sim.Cpu.Halted then false
      else begin
        let regs = Array.map Int32.of_int inits in
        List.iter (oracle_step regs) steps;
        Array.for_all
          (fun i ->
            let sim = Sim.Cpu.reg cpu (Isa.Reg.a (i + 2)) in
            let expect =
              Int32.to_int regs.(i) land 0xffff_ffff
            in
            sim = expect)
          [| 0; 1; 2; 3; 4; 5; 6; 7 |]
      end)

let test_stats_totals () =
  let open Isa.Builder in
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  movi b a2 3;
  label b "loop";
  addi b a2 a2 (-1);
  bnez b a2 "loop";
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let stats = Sim.Stats.create Sim.Config.default in
  let cpu, _ =
    Sim.Backend.run_program ~backend:Sim.Backend.Interp
      ~observers:[ Sim.Stats.observer stats ] asm
  in
  check Alcotest.int "instruction total" (Sim.Cpu.instructions cpu)
    stats.Sim.Stats.instructions;
  check Alcotest.int "cycle total" (Sim.Cpu.cycles cpu)
    stats.Sim.Stats.total_cycles;
  check Alcotest.int "two taken branches"
    (2 * (1 + Sim.Config.default.Sim.Config.branch_taken_penalty))
    stats.Sim.Stats.branch_taken_cycles;
  check Alcotest.int "one untaken branch" 1
    stats.Sim.Stats.branch_untaken_cycles

let test_observer_registration_order () =
  (* Observers must be notified in registration order on every event:
     downstream observers (e.g. the power estimator) may rely on state
     accumulated by upstream ones. *)
  let open Isa.Builder in
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  movi b a2 4;
  label b "loop";
  addi b a2 a2 (-1);
  bnez b a2 "loop";
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let cpu = Sim.Cpu.create asm in
  let calls = ref [] in
  let nobs = 10 in
  for i = 0 to nobs - 1 do
    Sim.Cpu.add_observer cpu (fun _ -> calls := i :: !calls)
  done;
  let events = ref 0 in
  let rec go () =
    match Sim.Cpu.step cpu with
    | `Step _ ->
      incr events;
      go ()
    | `Done _ -> ()
  in
  go ();
  check Alcotest.bool "program produced events" true (!events > 0);
  let expected =
    List.concat (List.init !events (fun _ -> List.init nobs (fun i -> i)))
  in
  check (Alcotest.list Alcotest.int) "registration order per event" expected
    (List.rev !calls)

let test_late_observer_registration_fails () =
  (* Satellite contract: an observer registered after execution began
     would silently miss the events already published, so the simulator
     refuses it loudly instead (see the cpu.mli ordering contract). *)
  let open Isa.Builder in
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  movi b a2 2;
  addi b a2 a2 1;
  Isa.Builder.halt b;
  let asm = Isa.Program.assemble (Isa.Builder.seal b) in
  let cpu = Sim.Cpu.create asm in
  (* Before the first step, registration is fine. *)
  Sim.Cpu.add_observer cpu (fun _ -> ());
  (match Sim.Cpu.step cpu with
   | `Step _ -> ()
   | `Done _ -> fail "program ended before the first instruction");
  (match Sim.Cpu.add_observer cpu (fun _ -> ()) with
   | exception Sim.Cpu.Sim_error _ -> ()
   | () -> fail "late observer registration accepted");
  (* The refusal also applies to a finished run. *)
  let rec drain () =
    match Sim.Cpu.step cpu with `Step _ -> drain () | `Done _ -> ()
  in
  drain ();
  match Sim.Cpu.add_observer cpu (fun _ -> ()) with
  | exception Sim.Cpu.Sim_error _ -> ()
  | () -> fail "post-run observer registration accepted"

(* --- Execution backends --------------------------------------------------- *)

(* One retire-hook call with a copy of the channel's contents. *)
type call = {
  slot : int; start : int; cycles : int; stall : int; flags : int;
  bus1 : int; bus2 : int; result : int; addr : int; data : int;
  cin1 : int; cin2 : int; busy : int;
}

let record_hook calls : Sim.Cpu.hook =
 fun slot start cycles stall flags (ch : Sim.Cpu.channel) ->
  calls :=
    { slot; start; cycles; stall; flags;
      bus1 = ch.Sim.Cpu.bus1; bus2 = ch.Sim.Cpu.bus2;
      result = ch.Sim.Cpu.result; addr = ch.Sim.Cpu.addr;
      data = ch.Sim.Cpu.data; cin1 = ch.Sim.Cpu.cin1;
      cin2 = ch.Sim.Cpu.cin2; busy = ch.Sim.Cpu.busy }
    :: !calls

(* A run's outcome, clocks, hook-and-channel stream and machine. *)
let run_hooked runner (c : Core.Extract.case) =
  let cpu =
    Sim.Cpu.create ?extension:c.Core.Extract.extension c.Core.Extract.asm
  in
  let calls = ref [] in
  Sim.Cpu.set_hook cpu (record_hook calls);
  let outcome = runner cpu in
  (outcome, Sim.Cpu.cycles cpu, Sim.Cpu.instructions cpu, List.rev !calls, cpu)

(* The architectural state two machines finish in, part by part. *)
let same_final_state name m1 m2 =
  let same what a b = check Alcotest.bool (name ^ ": " ^ what) true (a = b) in
  same "registers and window" (Sim.Cpu.regfile m1) (Sim.Cpu.regfile m2);
  check Alcotest.bool (name ^ ": memory") true
    (Sim.Memory.equal (Sim.Cpu.memory m1) (Sim.Cpu.memory m2));
  same "sar" (Sim.Cpu.sar m1) (Sim.Cpu.sar m2);
  same "pc" (Sim.Cpu.pc m1) (Sim.Cpu.pc m2);
  let tie m = Option.map Tie.Compile.state_values (Sim.Cpu.tie_state m) in
  same "TIE state" (tie m1) (tie m2)

(* The interpreter and [runner] agree on the outcome, the clocks, every
   hook call with its channel contents, and the final state. *)
let same_as_interpreter runner (c : Core.Extract.case) =
  let name = c.Core.Extract.case_name in
  let o1, cy1, in1, calls1, m1 = run_hooked Sim.Cpu.run c in
  let o2, cy2, in2, calls2, m2 = run_hooked runner c in
  check Alcotest.bool (name ^ ": outcome") true (o1 = o2);
  check Alcotest.int (name ^ ": cycles") cy1 cy2;
  check Alcotest.int (name ^ ": instructions") in1 in2;
  check Alcotest.int (name ^ ": one hook call per retirement") in1
    (List.length calls2);
  check Alcotest.bool (name ^ ": identical hook and channel stream") true
    (calls1 = calls2);
  same_final_state name m1 m2

let test_backend_names () =
  List.iter
    (fun b ->
      match Sim.Backend.of_string (Sim.Backend.name b) with
      | Some b' when b = b' -> ()
      | _ -> fail ("name does not round-trip: " ^ Sim.Backend.name b))
    Sim.Backend.all;
  (match Sim.Backend.of_string "INTERPRETER" with
   | Some Sim.Backend.Interp -> ()
   | _ -> fail "\"interpreter\" alias not accepted");
  (match Sim.Backend.of_string " Threaded " with
   | Some Sim.Backend.Threaded -> ()
   | _ -> fail "case/whitespace-insensitive parse failed");
  match Sim.Backend.of_string "jit" with
  | None -> ()
  | Some _ -> fail "unknown backend name accepted"

(* Paths the workloads leave cold: every conditional move both ways,
   SAR shifts of a negative value, sub-word loads and stores, and
   windowed recursion deep enough to spill and reload frames. *)
let edge_ops () =
  let open Isa.Builder in
  let b = Isa.Builder.create "edge_ops" in
  Isa.Builder.label b "main";
  movi b a5 (-8);
  movi b a6 0;
  movi b a7 1;
  moveqz b a8 a5 a6;
  movnez b a9 a5 a6;
  movltz b a10 a7 a5;
  movgez b a11 a7 a5;
  ssai b 3;
  sra b a12 a5;
  srl b a13 a5;
  sll b a14 a5;
  src b a15 a5 a7;
  srai b a12 a5 2;
  movi b a2 0x11000;
  s16i b a5 a2 0;
  l16si b a3 a2 0;
  l16ui b a4 a2 0;
  s8i b a5 a2 3;
  l8ui b a3 a2 3;
  movi b a10 12;
  call8 b "rec";
  j b "done";
  label b "rec";
  entry b a1 32;
  beqz b a2 "leaf";
  addi b a10 a2 (-1);
  call8 b "rec";
  label b "leaf";
  retw b;
  label b "done";
  Isa.Builder.halt b;
  Core.Extract.case "edge_ops" (Isa.Program.assemble (Isa.Builder.seal b))

(* Programs whose hook streams the threaded loop must reproduce: the
   cold paths of [edge_ops], branches, calls, memory traffic and cache
   pressure, and custom instructions with zero to three register
   operands, with and without results, over custom state. *)
let stream_cases () =
  edge_ops ()
  :: List.map Workloads.Suite.find
       [ "gcd"; "call_tree"; "icache_thrash"; "dcache_thrash"; "uncached_code";
         "custom_mix_gf"; "custom_mix_mac"; "cover_xtmac"; "cover_xregw";
         "rs_gfmul4" ]

let test_backend_threaded_equivalence () =
  List.iter
    (same_as_interpreter (fun m -> Sim.Cpu.run_threaded m))
    (stream_cases ())

let test_backend_unobserved_fast_path () =
  (* The threaded backend builds no events; the machine it leaves
     behind must match the interpreter's in every piece of architectural
     state, over the characterization suite, the ten applications and
     the cold paths of [edge_ops]. *)
  (edge_ops () :: Workloads.Suite.characterization ())
  @ Workloads.Suite.applications ()
  |> List.iter (fun (c : Core.Extract.case) ->
         let name = c.Core.Extract.case_name in
         let mk () =
           Sim.Cpu.create ?extension:c.Core.Extract.extension
             c.Core.Extract.asm
         in
         (* The interpreter run records what the program wrote. *)
         let written = ref [] in
         let ref_cpu = mk () in
         Sim.Cpu.add_observer ref_cpu (fun e ->
             match e.Sim.Event.mem with
             | Some mi when mi.Sim.Event.mwrite ->
               written := (mi.Sim.Event.maddr, mi.Sim.Event.msize) :: !written
             | Some _ | None -> ());
         let o1 = Sim.Cpu.run ref_cpu in
         let bare = mk () in
         let o2 = Sim.Cpu.run_threaded bare in
         let same what a b =
           check Alcotest.bool (name ^ ": " ^ what) true (a = b)
         in
         same "outcome" o1 o2;
         check Alcotest.int (name ^ ": cycles") (Sim.Cpu.cycles ref_cpu)
           (Sim.Cpu.cycles bare);
         check Alcotest.int (name ^ ": instructions")
           (Sim.Cpu.instructions ref_cpu) (Sim.Cpu.instructions bare);
         let rf1 = Sim.Cpu.regfile ref_cpu and rf2 = Sim.Cpu.regfile bare in
         same "physical registers" rf1.Sim.Regfile.phys rf2.Sim.Regfile.phys;
         same "window base" rf1.Sim.Regfile.base rf2.Sim.Regfile.base;
         same "spilled frames" rf1.Sim.Regfile.saved rf2.Sim.Regfile.saved;
         same "sar" (Sim.Cpu.sar ref_cpu) (Sim.Cpu.sar bare);
         same "pc" (Sim.Cpu.pc ref_cpu) (Sim.Cpu.pc bare);
         List.iter
           (fun (addr, size) ->
             for k = 0 to size - 1 do
               same
                 (Printf.sprintf "memory byte 0x%x" (addr + k))
                 (Sim.Memory.load8 (Sim.Cpu.memory ref_cpu) (addr + k))
                 (Sim.Memory.load8 (Sim.Cpu.memory bare) (addr + k))
             done)
           !written;
         same "icache stats"
           (Sim.Cache.stats (Sim.Cpu.icache ref_cpu))
           (Sim.Cache.stats (Sim.Cpu.icache bare));
         same "dcache stats"
           (Sim.Cache.stats (Sim.Cpu.dcache ref_cpu))
           (Sim.Cache.stats (Sim.Cpu.dcache bare));
         match (c.Core.Extract.extension, Sim.Cpu.tie_state ref_cpu,
                Sim.Cpu.tie_state bare) with
         | Some ext, Some s1, Some s2 ->
           List.iter
             (fun st ->
               let v s = Tie.Compile.state_value s st.Tie.Spec.sname in
               same ("TIE state " ^ st.Tie.Spec.sname) (v s1) (v s2))
             (Tie.Compile.spec ext).Tie.Spec.states
         | None, None, None -> ()
         | _ -> fail (name ^ ": TIE state present on one machine only"))

let test_backend_forced_fallback () =
  (* covered = (fun _ -> false) sends every slot through the
     interpreter fallback; coverage is a performance property, never a
     semantic one. *)
  let c = Workloads.Suite.find "gcd" in
  let stats =
    Sim.Cpu.decode_stats
      ~covered:(fun _ -> false)
      (Sim.Cpu.create ?extension:c.Core.Extract.extension c.Core.Extract.asm)
  in
  check Alcotest.int "nothing compiled" 0 stats.Sim.Cpu.d_compiled;
  check Alcotest.bool "slots still decoded" true (stats.Sim.Cpu.d_ops > 0);
  List.iter
    (same_as_interpreter (Sim.Cpu.run_threaded ~covered:(fun _ -> false)))
    (c :: stream_cases ())

let test_backend_decode_coverage () =
  let c = Workloads.Suite.find "des" in
  let mk () =
    Sim.Cpu.create ?extension:c.Core.Extract.extension c.Core.Extract.asm
  in
  let stats = Sim.Cpu.decode_stats (mk ()) in
  check Alcotest.bool "has blocks" true (stats.Sim.Cpu.d_blocks > 0);
  check Alcotest.bool "compiles most slots" true
    (stats.Sim.Cpu.d_compiled > stats.Sim.Cpu.d_ops / 2);
  check Alcotest.bool "never more compiled than decoded" true
    (stats.Sim.Cpu.d_compiled <= stats.Sim.Cpu.d_ops)

let test_backend_check_oracle () =
  (* A checked run of the custom-instruction workloads with an
     observer: the observer rides the interpreter half and must see
     exactly one stream. *)
  [ "custom_mix_gf"; "custom_mix_mac"; "cover_xtmac" ]
  |> List.iter (fun name ->
         let c = Workloads.Suite.find name in
         let before = Sim.Backend.checks_run () in
         let events = ref 0 in
         let cpu, outcome =
           Sim.Backend.run_program ~backend:Sim.Backend.Check
             ?extension:c.Core.Extract.extension
             ~observers:[ (fun _ -> incr events) ]
             c.Core.Extract.asm
         in
         check Alcotest.bool (name ^ ": halted") true
           (outcome = Sim.Cpu.Halted);
         check Alcotest.int (name ^ ": one dual run performed") (before + 1)
           (Sim.Backend.checks_run ());
         check Alcotest.int (name ^ ": observer saw exactly one stream")
           (Sim.Cpu.instructions cpu) !events)

(* Check compares the threaded backend's tally with the one the
   interpreter's events fold into.  The hook runs after the machine's
   fold and only on the threaded side, so a hook that nudges the
   caller's tally is a divergence only that comparison can see: the
   hook streams stay identical. *)
let test_backend_check_tally () =
  let c = Workloads.Suite.find "custom_mix_mac" in
  let ext = c.Core.Extract.extension in
  let code = c.Core.Extract.asm.Isa.Program.code in
  (* The nudge lands on the final retirement, so no later add can
     round it away. *)
  let run corrupt =
    let tally =
      Sim.Tally.create ~weights:(Core.Resource.weights ext)
        Sim.Config.default
    in
    Sim.Backend.run_program ~backend:Sim.Backend.Check ?extension:ext ~tally
      ~hook:(fun slot _ _ _ _ _ ->
        if code.(slot).Isa.Program.instr = Isa.Instr.Break then corrupt tally)
      c.Core.Extract.asm
  in
  let before = Sim.Backend.checks_run () in
  ignore (run (fun _ -> ()));
  check Alcotest.int "agreeing tallies pass" (before + 1)
    (Sim.Backend.checks_run ());
  let expect_mismatch what corrupt =
    match run corrupt with
    | _ -> Alcotest.fail (what ^ ": tally divergence not detected")
    | exception Sim.Backend.Mismatch msg ->
      check Alcotest.bool (what ^ ": names the tally") true
        (String.length msg > 0
        && List.exists
             (fun w -> w = "tally")
             (String.split_on_char ' ' msg))
  in
  expect_mismatch "integer counter" (fun ta ->
      let st = Sim.Tally.stats ta in
      st.Sim.Stats.interlocks <- st.Sim.Stats.interlocks + 1);
  expect_mismatch "one ulp on an accumulator" (fun ta ->
      let acc = Sim.Tally.acc ta in
      let i = ref 0 in
      Array.iteri (fun k v -> if v <> 0.0 then i := k) acc;
      check Alcotest.bool "some category active" true
        (acc.(!i) <> 0.0);
      acc.(!i) <- Float.succ acc.(!i));
  check Alcotest.int "failed checks are not counted" (before + 1)
    (Sim.Backend.checks_run ())

(* Overrides are per thread: while thread A runs under
   [with_current Interp], thread B still sees the process default. *)
let test_backend_thread_isolation () =
  let m = Mutex.create () and cv = Condition.create () in
  let stage = ref 0 in
  let advance n =
    Mutex.lock m;
    stage := n;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let await n =
    Mutex.lock m;
    while !stage < n do Condition.wait cv m done;
    Mutex.unlock m
  in
  let in_a = ref Sim.Backend.Threaded and in_b = ref Sim.Backend.Interp in
  let a =
    Thread.create
      (fun () ->
        Sim.Backend.with_current Sim.Backend.Interp (fun () ->
            advance 1;
            await 2;
            in_a := Sim.Backend.current ()))
      ()
  in
  let b =
    Thread.create
      (fun () ->
        await 1;
        in_b := Sim.Backend.current ();
        advance 2)
      ()
  in
  Thread.join a;
  Thread.join b;
  check Alcotest.string "thread B keeps the default while A overrides"
    "threaded" (Sim.Backend.name !in_b);
  check Alcotest.string "thread A sees its override" "interp"
    (Sim.Backend.name !in_a)

let test_backend_selection () =
  check Alcotest.bool "initial default is the threaded backend" true
    (Sim.Backend.current () = Sim.Backend.Threaded);
  (match
     Sim.Backend.with_current Sim.Backend.Interp (fun () ->
         check Alcotest.bool "scoped override visible" true
           (Sim.Backend.current () = Sim.Backend.Interp);
         failwith "boom")
   with
   | exception Failure _ -> ()
   | _ -> fail "exception swallowed by with_current");
  check Alcotest.bool "default restored after exception" true
    (Sim.Backend.current () = Sim.Backend.Threaded);
  (* Environment seeding: a valid value applies, an invalid one warns
     and keeps the current selection. *)
  Unix.putenv Sim.Backend.env_var "interp";
  Sim.Backend.init_from_env ();
  check Alcotest.bool "env value applied" true
    (Sim.Backend.current () = Sim.Backend.Interp);
  Sim.Backend.set_current Sim.Backend.Threaded;
  Unix.putenv Sim.Backend.env_var "bogus";
  Sim.Backend.init_from_env ();
  check Alcotest.bool "bad env value keeps the default" true
    (Sim.Backend.current () = Sim.Backend.Threaded);
  Unix.putenv Sim.Backend.env_var ""

let test_backend_check_metrics () =
  (* A checked run simulates twice, but only the run whose events reach
     the caller may count in the retirement metrics. *)
  let c = Workloads.Suite.find "gcd" in
  let counter = Obs.Metrics.counter "sim_instructions_total" in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let before = Obs.Metrics.counter_value counter in
      let cpu, _ =
        Sim.Backend.run_program ~backend:Sim.Backend.Check
          ?extension:c.Core.Extract.extension c.Core.Extract.asm
      in
      check Alcotest.int "each retirement counted once"
        (Sim.Cpu.instructions cpu)
        (Obs.Metrics.counter_value counter - before))

(* --- Retire hook -------------------------------------------------------------- *)

(* Every hook call of a run, in order, with its backend's machine. *)
let hook_calls ?(observers = []) backend (c : Core.Extract.case) =
  let calls = ref [] in
  let cpu, _ =
    Sim.Backend.run_program ~backend ?extension:c.Core.Extract.extension
      ~hook:(record_hook calls) ~observers c.Core.Extract.asm
  in
  (List.rev !calls, cpu)

(* Both backends report the same retirements to the hook, with the same
   channel contents, once each (a checked run notifies from its threaded
   half only; an observed run executes on the interpreter), and the
   reports add up to the run. *)
let test_hook_stream () =
  List.iter
    (fun name ->
      let c = Workloads.Suite.find name in
      let want, cpu = hook_calls Sim.Backend.Interp c in
      check Alcotest.int (name ^ ": one call per retirement")
        (Sim.Cpu.instructions cpu) (List.length want);
      check Alcotest.int (name ^ ": cycles add up") (Sim.Cpu.cycles cpu)
        (List.fold_left (fun a k -> a + k.cycles) 0 want);
      check Alcotest.int (name ^ ": stalls add up")
        (Sim.Tally.stats (Sim.Cpu.tally cpu)).Sim.Stats.stall_cycles
        (List.fold_left (fun a k -> a + k.stall) 0 want);
      List.iter
        (fun (backend, observers) ->
          let got, _ = hook_calls ~observers backend c in
          check Alcotest.bool
            (Printf.sprintf "%s: %s%s calls = interpreter's" name
               (Sim.Backend.name backend)
               (if observers = [] then "" else " (observed)"))
            true (got = want))
        [ (Sim.Backend.Threaded, []);
          (Sim.Backend.Threaded, [ (fun _ -> ()) ]);
          (Sim.Backend.Check, []) ])
    [ "gcd"; "des"; "rs_gfmac"; "custom_mix_mac"; "drawline" ]

let hook_program () =
  let open Isa.Builder in
  let b = Isa.Builder.create "t" in
  Isa.Builder.label b "main";
  movi b a2 2;
  addi b a2 a2 1;
  Isa.Builder.halt b;
  Isa.Program.assemble (Isa.Builder.seal b)

(* The hook follows the observer contract: installed before the first
   retirement or refused, and not carried by a clone. *)
let test_hook_contract () =
  let cpu = Sim.Cpu.create (hook_program ()) in
  let calls = ref 0 in
  Sim.Cpu.set_hook cpu (fun _ _ _ _ _ _ -> incr calls);
  let shadow = Sim.Cpu.clone cpu in
  ignore (Sim.Cpu.run_threaded shadow);
  check Alcotest.int "a clone does not notify" 0 !calls;
  (match Sim.Cpu.step cpu with
   | `Step _ -> ()
   | `Done _ -> fail "program ended before the first instruction");
  check Alcotest.int "a step notifies" 1 !calls;
  (match Sim.Cpu.set_hook cpu (fun _ _ _ _ _ _ -> ()) with
   | exception Sim.Cpu.Sim_error _ -> ()
   | () -> fail "late hook accepted");
  ignore (Sim.Cpu.run cpu);
  check Alcotest.int "the original hook keeps notifying"
    (Sim.Cpu.instructions cpu) !calls;
  match Sim.Cpu.set_hook cpu (fun _ _ _ _ _ _ -> ()) with
  | exception Sim.Cpu.Sim_error _ -> ()
  | () -> fail "hook accepted after the run finished"

exception Hook_fault

(* A hook that raises mid-run stops the threaded loop with the machine
   exactly where the interpreter is after as many steps: the tally
   settled through the faulting retirement (class cycles included), the
   icache's counter-only hits flushed, and the retirement metrics
   counted. *)
let test_hook_fault () =
  let c = Workloads.Suite.find "rs_gfmac" in
  let ext = c.Core.Extract.extension in
  let weights = Core.Resource.weights ext in
  let n = 777 in
  let counter = Obs.Metrics.counter "sim_instructions_total" in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let before = Obs.Metrics.counter_value counter in
  let cpu =
    Sim.Cpu.create ?extension:ext
      ~tally:(Sim.Tally.create ~weights Sim.Config.default)
      c.Core.Extract.asm
  in
  let calls = ref 0 in
  Sim.Cpu.set_hook cpu (fun _ _ _ _ _ _ ->
      incr calls;
      if !calls = n then raise Hook_fault);
  (match Sim.Cpu.run_threaded cpu with
   | exception Hook_fault -> ()
   | _ -> fail "the hook's exception was swallowed");
  check Alcotest.int "metrics count the retired prefix" n
    (Obs.Metrics.counter_value counter - before);
  let reference =
    Sim.Cpu.create ?extension:ext
      ~tally:(Sim.Tally.create ~weights Sim.Config.default)
      c.Core.Extract.asm
  in
  for _ = 1 to n do
    ignore (Sim.Cpu.step reference)
  done;
  check Alcotest.int "retired" n (Sim.Cpu.instructions cpu);
  check Alcotest.int "cycles" (Sim.Cpu.cycles reference) (Sim.Cpu.cycles cpu);
  check Alcotest.(option string) "tally settled" None
    (Sim.Tally.diff (Sim.Cpu.tally reference) (Sim.Cpu.tally cpu));
  let ic m = Sim.Cache.stats (Sim.Cpu.icache m) in
  check Alcotest.int "icache accesses flushed"
    (ic reference).Sim.Cache.accesses (ic cpu).Sim.Cache.accesses;
  check Alcotest.int "icache hits flushed" (ic reference).Sim.Cache.hits
    (ic cpu).Sim.Cache.hits

(* Metrics never force events: the [sim_*] counters a run adds are the
   same on the threaded backend (counted once at the end) as with a
   no-op observer (which runs on the interpreter) and on the interpreter
   unobserved (per event). *)
let test_metrics_without_events () =
  let names =
    [ "sim_instructions_total"; "sim_cycles_total"; "sim_stall_cycles_total";
      "sim_interlocks_total"; "sim_icache_misses_total";
      "sim_dcache_misses_total" ]
  in
  let counters =
    List.map (fun n -> (n, Obs.Metrics.counter n)) names
    @ List.map
        (fun cl ->
          ( "class " ^ cl,
            Obs.Metrics.counter ~labels:[ ("class", cl) ]
              "sim_class_instructions_total" ))
        [ "arith"; "load"; "store"; "jump"; "branch"; "custom" ]
  in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  List.iter
    (fun name ->
      let c = Workloads.Suite.find name in
      let delta backend observers =
        let before =
          List.map (fun (_, k) -> Obs.Metrics.counter_value k) counters
        in
        ignore
          (Sim.Backend.run_program ~backend ?extension:c.Core.Extract.extension
             ~observers c.Core.Extract.asm);
        List.map2
          (fun (n, k) b -> (n, Obs.Metrics.counter_value k - b))
          counters before
      in
      let events = delta Sim.Backend.Threaded [ (fun _ -> ()) ] in
      check Alcotest.bool (name ^ ": something counted") true
        (List.assoc "sim_instructions_total" events > 0);
      List.iter
        (fun (what, got) ->
          List.iter2
            (fun (n, want) (_, v) ->
              check Alcotest.int
                (Printf.sprintf "%s %s: %s" name what n)
                want v)
            events got)
        [ ("unobserved", delta Sim.Backend.Threaded []);
          ("interpreted", delta Sim.Backend.Interp []) ])
    [ "gcd"; "des"; "rs_gfmac"; "custom_mix_mac" ]

(* --- Observers ------------------------------------------------------------- *)

(* An event with its custom payload's compiled instruction replaced by
   its name, so that streams compare structurally. *)
let event_key (e : Sim.Event.t) =
  ( { e with Sim.Event.custom = None },
    Option.map
      (fun (ci : Sim.Event.custom_info) ->
        ( ci.Sim.Event.cinsn.Tie.Compile.def.Tie.Spec.iname,
          ci.Sim.Event.coperands,
          ci.Sim.Event.cresult,
          ci.Sim.Event.cstates ))
      e.Sim.Event.custom )

(* Only the interpreter builds events: the threaded loop refuses an
   observed machine, and an observed [run_program] hands its observers
   the interpreter's exact stream on every backend. *)
let test_observers_interpreter_only () =
  let c = Workloads.Suite.find "gcd" in
  let cpu = Sim.Cpu.create c.Core.Extract.asm in
  Sim.Cpu.add_observer cpu (fun _ -> ());
  (match Sim.Cpu.run_threaded cpu with
   | exception Sim.Cpu.Sim_error _ -> ()
   | _ -> fail "run_threaded accepted an observed machine");
  check Alcotest.int "nothing retired" 0 (Sim.Cpu.instructions cpu);
  List.iter
    (fun (c : Core.Extract.case) ->
      let name = c.Core.Extract.case_name in
      let extension = c.Core.Extract.extension in
      let reference = Sim.Cpu.create ?extension c.Core.Extract.asm in
      let want = ref [] in
      Sim.Cpu.add_observer reference (fun e -> want := event_key e :: !want);
      ignore (Sim.Cpu.run reference);
      List.iter
        (fun backend ->
          let got = ref [] in
          let cpu, _ =
            Sim.Backend.run_program ~backend ?extension
              ~observers:[ (fun e -> got := event_key e :: !got) ]
              c.Core.Extract.asm
          in
          let name = name ^ " on " ^ Sim.Backend.name backend in
          check Alcotest.bool (name ^ ": the interpreter's event stream") true
            (!got = !want);
          same_final_state name reference cpu)
        Sim.Backend.all)
    (stream_cases ())

(* --- Shared cases ------------------------------------------------------------ *)

(* A daemon's connection threads simulate the one cached case per name,
   so a compiled extension must carry no scratch state: runs on the
   shared case from four domains at once, on every backend, must be bit
   for bit what one thread gets from a freshly built case. *)
let shared_names = [ "rs_gfmul4"; "cover_xadd"; "accumulate"; "rs_gfmac" ]

let shared_model =
  Core.Template.make
    (Array.init Core.Variables.count (fun i -> 1.0 +. (0.37 *. float_of_int i)))

type shared_run = { s_vars : int64 array; s_cycles : int; s_pj : int64 }

let shared_run backend c =
  Sim.Backend.with_current backend (fun () ->
      let p = Core.Extract.profile c in
      let r = Core.Profiler.run shared_model c in
      { s_vars = Array.map Int64.bits_of_float p.Core.Extract.variables;
        s_cycles = p.Core.Extract.cycles;
        s_pj = Int64.bits_of_float r.Core.Profiler.r_total_pj })

let test_shared_case_concurrency () =
  let domains = 4 and rounds = 2 in
  List.iter
    (fun backend ->
      let expected =
        List.map
          (fun n ->
            let fresh =
              List.find
                (fun c -> c.Core.Extract.case_name = n)
                (Workloads.Suite.all ())
            in
            (n, shared_run backend fresh))
          shared_names
      in
      let shared = List.map (fun n -> (n, Workloads.Suite.find n)) shared_names in
      let go = Atomic.make false in
      let worker () =
        while not (Atomic.get go) do Domain.cpu_relax () done;
        List.concat
          (List.init rounds (fun _ ->
               List.map (fun (n, c) -> (n, shared_run backend c)) shared))
      in
      let ds = List.init domains (fun _ -> Domain.spawn worker) in
      Atomic.set go true;
      List.iter
        (fun d ->
          List.iter
            (fun (n, r) ->
              let e = List.assoc n expected in
              let what w =
                Printf.sprintf "%s on %s: %s" n (Sim.Backend.name backend) w
              in
              check Alcotest.bool (what "variables bit-identical") true
                (r.s_vars = e.s_vars);
              check Alcotest.int (what "cycles") e.s_cycles r.s_cycles;
              check Alcotest.bool (what "profiler energy bit-identical") true
                (r.s_pj = e.s_pj))
            (Domain.join d))
        ds)
    Sim.Backend.all

let () =
  Alcotest.run "sim"
    [ ( "memory",
        [ Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "alignment" `Quick test_memory_alignment;
          Alcotest.test_case "page crossing" `Quick test_memory_page_crossing;
          QCheck_alcotest.to_alcotest qcheck_memory ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          QCheck_alcotest.to_alcotest qcheck_cache_resident_after_access;
          Alcotest.test_case "way tags" `Quick test_way_tags ] );
      ( "regfile",
        [ Alcotest.test_case "window overlap" `Quick test_regfile_window;
          Alcotest.test_case "spill/refill" `Quick test_regfile_spill_refill;
          QCheck_alcotest.to_alcotest qcheck_regfile_lifo ] );
      ( "semantics",
        [ Alcotest.test_case "alu" `Quick test_alu_semantics;
          Alcotest.test_case "mul16/sext" `Quick test_mul16_and_sext;
          Alcotest.test_case "shifts" `Quick test_shift_semantics;
          Alcotest.test_case "memory ops" `Quick test_memory_instructions;
          Alcotest.test_case "branch/cmov" `Quick test_branch_and_cmov;
          Alcotest.test_case "call0/ret" `Quick test_call0_and_ret;
          Alcotest.test_case "call8 windows" `Quick test_call8_windows;
          Alcotest.test_case "indirect jump" `Quick test_jx_indirect ] );
      ( "events",
        [ Alcotest.test_case "interlock" `Quick test_interlock_detection;
          Alcotest.test_case "branch penalty" `Quick
            test_branch_penalty_cycles;
          Alcotest.test_case "icache misses" `Quick test_icache_miss_counting;
          Alcotest.test_case "uncached fetch" `Quick test_uncached_fetch;
          Alcotest.test_case "custom events" `Quick
            test_custom_instruction_events;
          Alcotest.test_case "unknown custom" `Quick
            test_unknown_custom_rejected;
          Alcotest.test_case "watchdog" `Quick test_watchdog;
          Alcotest.test_case "stats totals" `Quick test_stats_totals;
          Alcotest.test_case "observer order" `Quick
            test_observer_registration_order;
          Alcotest.test_case "late observer refused" `Quick
            test_late_observer_registration_fails ] );
      ( "backend",
        [ Alcotest.test_case "names" `Quick test_backend_names;
          Alcotest.test_case "threaded equivalence" `Quick
            test_backend_threaded_equivalence;
          Alcotest.test_case "unobserved fast path" `Quick
            test_backend_unobserved_fast_path;
          Alcotest.test_case "forced fallback" `Quick
            test_backend_forced_fallback;
          Alcotest.test_case "decode coverage" `Quick
            test_backend_decode_coverage;
          Alcotest.test_case "check counts metrics once" `Quick
            test_backend_check_metrics;
          Alcotest.test_case "check oracle" `Quick test_backend_check_oracle;
          Alcotest.test_case "check compares tallies" `Quick
            test_backend_check_tally;
          Alcotest.test_case "selection" `Quick test_backend_selection;
          Alcotest.test_case "override is per thread" `Quick
            test_backend_thread_isolation ] );
      ( "retire hook",
        [ Alcotest.test_case "same calls on every backend" `Quick
            test_hook_stream;
          Alcotest.test_case "contract" `Quick test_hook_contract;
          Alcotest.test_case "a raising hook leaves the machine settled"
            `Quick test_hook_fault;
          Alcotest.test_case "observers are interpreter-only" `Quick
            test_observers_interpreter_only;
          Alcotest.test_case "metrics without events" `Quick
            test_metrics_without_events ] );
( "shared cases",
        [ Alcotest.test_case "concurrent runs on one case" `Quick
            test_shared_case_concurrency ] );
            ( "differential",
        [ QCheck_alcotest.to_alcotest qcheck_cpu_matches_int32_oracle ] ) ]
