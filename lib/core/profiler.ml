type block = {
  b_index : int;
  b_addr : int;
  b_last : int;
  b_label : string;
  b_slots : int;
  mutable b_entries : int;
  mutable b_retired : int;
  mutable b_cycles : int;
  mutable b_stall_cycles : int;
  mutable b_icache_misses : int;
  mutable b_dcache_misses : int;
  mutable b_energy_pj : float;
}

type slot_row = {
  s_hits : int;
  s_cycles : int;
  s_energy_pj : float;
}

type opcode_row = {
  op_name : string;
  op_hits : int;
  op_cycles : int;
  op_energy_pj : float;
}

type report = {
  r_workload : string;
  r_asm : Isa.Program.asm;
  r_blocks : block array;
  r_hot : block array;
  r_slots : slot_row array;
  r_opcodes : opcode_row list;
  r_folded : (string * int * float) list;
  r_breakdown : Attribution.breakdown;
  r_cycles : int;
  r_instructions : int;
  r_total_pj : float;
  r_cycle_gap : int;
  r_energy_gap : float;
}

(* Per-slot integer accumulators, [stride] ints per slot at these
   offsets. *)
let stride = 5
let f_retired = 0
let f_cycles = 1
let f_stalls = 2
let f_imiss = 3
let f_dmiss = 4

let bump a i by = Array.unsafe_set a i (Array.unsafe_get a i + by)

type t = {
  case : Extract.case;
  attr : Attribution.t;
  marginal : float array;             (* the attribution's marginal cell *)
  dec : Sim.Decoder.t;
  block_of_slot : int array;
  counts : int array;                 (* per slot, see [stride] *)
  slot_energy : float array;
  block_energy : float array;
  op_names : string array;            (* mnemonics, first-seen order *)
  op_of_slot : int array;
  op_energy : float array;
  control : int array;
  (** per slot: 1 = call, 2 = return, 0 = other *)
  stacks : Obs.Profile.Stacks.stack;
  mutable pending : int;
  (** the previous retirement's [control]: the stack moves at the next
      one, the callee's entry or the caller's return point *)
  mutable position : int;             (* [Stacks.position] *)
  leaf_at : int array;                (* per block: the position its
                                         [leaf] was looked up at *)
  leaf : int array;                   (* per block: its stack leaf *)
  mutable leaf_cycles : int array;    (* per stack node *)
  mutable leaf_energy : float array;
}

let create ~config model (c : Extract.case) =
  let code = c.Extract.asm.Isa.Program.code in
  let n = Array.length code in
  let d = Sim.Decoder.analyze c.Extract.asm in
  let opcodes = Hashtbl.create 64 in
  let names = ref [] in
  let op_of_slot =
    Array.map
      (fun slot ->
        let m = Isa.Instr.mnemonic slot.Isa.Program.instr in
        match Hashtbl.find_opt opcodes m with
        | Some k -> k
        | None ->
          let k = Hashtbl.length opcodes in
          Hashtbl.add opcodes m k;
          names := m :: !names;
          k)
      code
  in
  let attr = Attribution.create ~config model c in
  { case = c;
    attr;
    marginal = Attribution.marginal attr;
    dec = d;
    block_of_slot = d.Sim.Decoder.block_of_slot;
    counts = Array.make (stride * n) 0;
    slot_energy = Array.make n 0.0;
    block_energy = Array.make (Array.length d.Sim.Decoder.blocks) 0.0;
    op_names = Array.of_list (List.rev !names);
    op_of_slot;
    op_energy = Array.make (Hashtbl.length opcodes) 0.0;
    control =
      Array.map
        (fun slot ->
          match slot.Isa.Program.instr with
          | Isa.Instr.Call0 _ | Isa.Instr.Callx0 _ | Isa.Instr.Call8 _
          | Isa.Instr.Callx8 _ -> 1
          | Isa.Instr.Ret | Isa.Instr.Retw -> 2
          | _ -> 0)
        code;
    stacks =
      Obs.Profile.Stacks.create ~root:c.Extract.case_name ();
    pending = 0;
    position = 0;
    leaf_at = Array.make (Array.length d.Sim.Decoder.blocks) min_int;
    leaf = Array.make (Array.length d.Sim.Decoder.blocks) 0;
    leaf_cycles = Array.make 64 0;
    leaf_energy = Array.make 64 0.0 }

(* Call/return tracking: the instruction after a call retires at the
   callee's entry, the one after a return back in the caller. *)
let move_stack t i =
  (if t.pending = 1 then
     let addr = t.case.Extract.asm.Isa.Program.code.(i).Isa.Program.addr in
     Obs.Profile.Stacks.push t.stacks
       (match Hashtbl.find_opt t.dec.Sim.Decoder.symbols addr with
        | Some s -> s
        | None -> Printf.sprintf "0x%x" addr)
   else Obs.Profile.Stacks.pop t.stacks);
  t.pending <- 0;
  t.position <- Obs.Profile.Stacks.position t.stacks

(* Block [b]'s leaf on the current stack, memoized per block until the
   stack moves away from the position it was looked up at. *)
let relocate_leaf t b =
  let id =
    Obs.Profile.Stacks.leaf t.stacks
      ~frame:t.dec.Sim.Decoder.blocks.(b).Sim.Decoder.blk_label
  in
  if id >= Array.length t.leaf_cycles then begin
    let len = max (id + 1) (2 * Array.length t.leaf_cycles) in
    let grow a zero =
      let a' = Array.make len zero in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.leaf_cycles <- grow t.leaf_cycles 0;
    t.leaf_energy <- grow t.leaf_energy 0.0
  end;
  t.leaf_at.(b) <- t.position;
  t.leaf.(b) <- id;
  id

(* The retire hook: one retirement per call.  Integer effects go
   to the slot and are resolved to blocks, lines and opcodes after the
   run; each energy accumulator gets one float add, in retirement
   order, so every sum is the one a per-event fold computes. *)
let profile_hook t : Sim.Cpu.hook =
  (* Binding [attr] first makes the result a closure of the hook's own
     arity rather than a partial application. *)
  let attr = t.attr in
  fun i start cycles stall flags _ ->
    Attribution.fold attr i start flags;
    let e = Array.unsafe_get t.marginal 0 in
    let c = t.counts and o = stride * i in
    bump c (o + f_retired) 1;
    bump c (o + f_cycles) cycles;
    bump c (o + f_stalls) stall;
    bump c (o + f_imiss)
      (Bool.to_int (flags land Sim.Cpu.flag_icache_miss <> 0));
    bump c (o + f_dmiss)
      (Bool.to_int (flags land Sim.Cpu.flag_dcache_miss <> 0));
    let se = t.slot_energy in
    Array.unsafe_set se i (Array.unsafe_get se i +. e);
    let b = Array.unsafe_get t.block_of_slot i in
    let be = t.block_energy in
    Array.unsafe_set be b (Array.unsafe_get be b +. e);
    let k = Array.unsafe_get t.op_of_slot i in
    let oe = t.op_energy in
    Array.unsafe_set oe k (Array.unsafe_get oe k +. e);
    if t.pending <> 0 then move_stack t i;
    let l =
      if Array.unsafe_get t.leaf_at b = t.position then
        Array.unsafe_get t.leaf b
      else relocate_leaf t b
    in
    let lc = t.leaf_cycles and le = t.leaf_energy in
    Array.unsafe_set lc l (Array.unsafe_get lc l + cycles);
    Array.unsafe_set le l (Array.unsafe_get le l +. e);
    t.pending <- Array.unsafe_get t.control i

let finish t ~cycles ~instructions =
  let breakdown =
    Attribution.finish t.attr ~name:t.case.Extract.case_name ~cycles
      ~instructions
  in
  let count i f = t.counts.((stride * i) + f) in
  let blocks =
    Array.map
      (fun (b : Sim.Decoder.block) ->
        let first = b.Sim.Decoder.blk_first in
        let sum f =
          let s = ref 0 in
          for i = first to first + b.Sim.Decoder.blk_slots - 1 do
            s := !s + count i f
          done;
          !s
        in
        { b_index = b.Sim.Decoder.blk_index;
          b_addr = b.Sim.Decoder.blk_addr;
          b_last = b.Sim.Decoder.blk_last;
          b_label = b.Sim.Decoder.blk_label;
          b_slots = b.Sim.Decoder.blk_slots;
          b_entries = count first f_retired;
          b_retired = sum f_retired;
          b_cycles = sum f_cycles;
          b_stall_cycles = sum f_stalls;
          b_icache_misses = sum f_imiss;
          b_dcache_misses = sum f_dmiss;
          b_energy_pj = t.block_energy.(b.Sim.Decoder.blk_index) })
      t.dec.Sim.Decoder.blocks
  in
  let slots =
    Array.mapi
      (fun i energy ->
        { s_hits = count i f_retired;
          s_cycles = count i f_cycles;
          s_energy_pj = energy })
      t.slot_energy
  in
  let op_hits = Array.make (Array.length t.op_names) 0 in
  let op_cycles = Array.make (Array.length t.op_names) 0 in
  Array.iteri
    (fun i k ->
      op_hits.(k) <- op_hits.(k) + slots.(i).s_hits;
      op_cycles.(k) <- op_cycles.(k) + slots.(i).s_cycles)
    t.op_of_slot;
  Array.iteri
    (fun id cycles ->
      let energy_pj = t.leaf_energy.(id) in
      if cycles <> 0 || energy_pj <> 0.0 then
        Obs.Profile.Stacks.record_at t.stacks id ~cycles ~energy_pj)
    t.leaf_cycles;
  let cycle_sum = Array.fold_left (fun a b -> a + b.b_cycles) 0 blocks in
  let energy_sum =
    Array.fold_left (fun a b -> a +. b.b_energy_pj) 0.0 blocks
  in
  let total = breakdown.Attribution.total_pj in
  let hot =
    Array.of_list
      (List.sort
         (fun a b -> compare (b.b_cycles, b.b_index) (a.b_cycles, a.b_index))
         (List.filter (fun b -> b.b_retired > 0) (Array.to_list blocks)))
  in
  let opcodes =
    (* Only opcodes that actually executed. *)
    List.filter_map
      (fun k ->
        if op_hits.(k) = 0 then None
        else
          Some
            { op_name = t.op_names.(k);
              op_hits = op_hits.(k);
              op_cycles = op_cycles.(k);
              op_energy_pj = t.op_energy.(k) })
      (List.init (Array.length t.op_names) Fun.id)
    |> List.sort (fun a b ->
           compare (b.op_cycles, a.op_name) (a.op_cycles, b.op_name))
  in
  { r_workload = t.case.Extract.case_name;
    r_asm = t.case.Extract.asm;
    r_blocks = blocks;
    r_hot = hot;
    r_slots = slots;
    r_opcodes = opcodes;
    r_folded = Obs.Profile.Stacks.folded t.stacks;
    r_breakdown = breakdown;
    r_cycles = cycles;
    r_instructions = instructions;
    r_total_pj = total;
    r_cycle_gap = abs (cycle_sum - cycles);
    r_energy_gap =
      Float.abs (energy_sum -. total) /. Float.max (Float.abs total) 1.0 }

let check r =
  ( float_of_int r.r_cycle_gap /. Float.max (float_of_int r.r_cycles) 1.0,
    r.r_energy_gap )

module P_metrics = struct
  let runs = lazy (Obs.Metrics.counter ~help:"profiling runs" "profile_runs_total")
  let events =
    lazy (Obs.Metrics.counter ~help:"retirements folded by the profiler"
            "profile_events_total")
  let blocks =
    lazy (Obs.Metrics.counter ~help:"basic blocks discovered"
            "profile_blocks_total")
  let seconds =
    lazy (Obs.Metrics.histogram ~help:"profiled simulation wall time"
            "profile_seconds")
end

let run ?(config = Sim.Config.default) model (c : Extract.case) =
  Obs.Trace.with_span ~cat:"profile" ("profile:" ^ c.Extract.case_name)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let t = create ~config model c in
  let cpu, _outcome =
    Sim.Backend.run_program ~config ?extension:c.Extract.extension
      ~tally:(Attribution.tally t.attr)
      ~hook:(profile_hook t)
      c.Extract.asm
  in
  let r =
    finish t ~cycles:(Sim.Cpu.cycles cpu)
      ~instructions:(Sim.Cpu.instructions cpu)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.inc (Lazy.force P_metrics.runs);
    Obs.Metrics.inc ~by:r.r_instructions (Lazy.force P_metrics.events);
    Obs.Metrics.inc ~by:(Array.length r.r_blocks)
      (Lazy.force P_metrics.blocks);
    Obs.Metrics.observe (Lazy.force P_metrics.seconds)
      (Unix.gettimeofday () -. t0)
  end;
  r

let share part whole =
  if Float.abs whole < 1e-12 then 0.0 else 100.0 *. part /. whole

let pp_table ?(top = 10) ppf r =
  let executed = Array.length r.r_hot in
  Format.fprintf ppf
    "@[<v>%s: %d instructions, %d cycles, %.3f uJ estimated@,\
     %d basic blocks (%d executed)@,@,"
    r.r_workload r.r_instructions r.r_cycles (r.r_total_pj /. 1.0e6)
    (Array.length r.r_blocks) executed;
  Format.fprintf ppf
    "%4s %-24s %8s %8s %9s %6s %6s %8s %10s %6s@," "rank" "block" "addr"
    "entries" "cycles" "cyc%" "cum%" "stalls" "energy uJ" "en%";
  let cum = ref 0.0 in
  Array.iteri
    (fun i b ->
      if i < top then begin
        let cyc_pct = share (float_of_int b.b_cycles) (float_of_int r.r_cycles) in
        cum := !cum +. cyc_pct;
        Format.fprintf ppf
          "%4d %-24s %8x %8d %9d %5.1f%% %5.1f%% %8d %10.4f %5.1f%%@,"
          (i + 1) b.b_label b.b_addr b.b_entries b.b_cycles cyc_pct !cum
          b.b_stall_cycles
          (b.b_energy_pj /. 1.0e6)
          (share b.b_energy_pj r.r_total_pj)
      end)
    r.r_hot;
  if executed > top then
    Format.fprintf ppf "     ... %d more executed blocks@," (executed - top);
  Format.fprintf ppf "@]"

let pp_opcodes ppf r =
  Format.fprintf ppf "@[<v>%-12s %10s %10s %6s %10s %6s@," "opcode" "count"
    "cycles" "cyc%" "energy uJ" "en%";
  List.iter
    (fun o ->
      Format.fprintf ppf "%-12s %10d %10d %5.1f%% %10.4f %5.1f%%@," o.op_name
        o.op_hits o.op_cycles
        (share (float_of_int o.op_cycles) (float_of_int r.r_cycles))
        (o.op_energy_pj /. 1.0e6)
        (share o.op_energy_pj r.r_total_pj))
    r.r_opcodes;
  Format.fprintf ppf "@]"

let pp_annotate ppf r =
  let asm = r.r_asm in
  let code = asm.Isa.Program.code in
  let sym_at = Sim.Decoder.code_symbols asm in
  Format.fprintf ppf "@[<v>%s: annotated disassembly (%d cycles, %.3f uJ)@,@,"
    r.r_workload r.r_cycles (r.r_total_pj /. 1.0e6);
  Format.fprintf ppf "%8s %9s %6s %6s  %s@," "count" "cycles" "cyc%" "en%"
    "instruction";
  Array.iteri
    (fun i slot ->
      let addr = slot.Isa.Program.addr in
      (match Hashtbl.find_opt sym_at addr with
       | Some s -> Format.fprintf ppf "%s:@," s
       | None -> ());
      let s = r.r_slots.(i) in
      if s.s_hits > 0 then
        Format.fprintf ppf "%8d %9d %5.1f%% %5.1f%%  %06x:  %a@," s.s_hits
          s.s_cycles
          (share (float_of_int s.s_cycles) (float_of_int r.r_cycles))
          (share s.s_energy_pj r.r_total_pj)
          addr Isa.Instr.pp slot.Isa.Program.instr
      else
        Format.fprintf ppf "%8s %9s %6s %6s  %06x:  %a@," "." "." "." "." addr
          Isa.Instr.pp slot.Isa.Program.instr)
    code;
  Format.fprintf ppf "@]"

let folded_lines ?(energy = false) r =
  let b = Buffer.create 4096 in
  List.iter
    (fun (stack, cycles, energy_pj) ->
      let count =
        if energy then int_of_float (Float.round energy_pj) else cycles
      in
      if count > 0 then Buffer.add_string b (Printf.sprintf "%s %d\n" stack count))
    r.r_folded;
  Buffer.contents b

let to_json ?top r =
  let module J = Obs.Json in
  let hot =
    match top with
    | None -> Array.to_list r.r_hot
    | Some n -> Array.to_list (Array.sub r.r_hot 0 (min n (Array.length r.r_hot)))
  in
  let block b =
    J.Obj
      [ ("label", J.Str b.b_label);
        ("addr", J.int b.b_addr);
        ("last_addr", J.int b.b_last);
        ("instructions", J.int b.b_slots);
        ("entries", J.int b.b_entries);
        ("retired", J.int b.b_retired);
        ("cycles", J.int b.b_cycles);
        ("stall_cycles", J.int b.b_stall_cycles);
        ("icache_misses", J.int b.b_icache_misses);
        ("dcache_misses", J.int b.b_dcache_misses);
        ("energy_pj", J.Num b.b_energy_pj) ]
  in
  let opcode o =
    J.Obj
      [ ("opcode", J.Str o.op_name);
        ("count", J.int o.op_hits);
        ("cycles", J.int o.op_cycles);
        ("energy_pj", J.Num o.op_energy_pj) ]
  in
  J.Obj
    [ ("workload", J.Str r.r_workload);
      ("units", J.Obj [ ("energy_pj", J.Str "picojoules") ]);
      ("cycles", J.int r.r_cycles);
      ("instructions", J.int r.r_instructions);
      ("total_energy_pj", J.Num r.r_total_pj);
      ("blocks_total", J.int (Array.length r.r_blocks));
      ("blocks_executed", J.int (Array.length r.r_hot));
      ("cycle_gap", J.int r.r_cycle_gap);
      ("energy_gap_rel", J.Num r.r_energy_gap);
      ("blocks", J.Arr (List.map block hot));
      ("opcodes", J.Arr (List.map opcode r.r_opcodes)) ]
