exception Sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

type outcome = Halted | Watchdog

type observer = Event.t -> unit

type t = {
  cfg : Config.t;
  asm : Isa.Program.asm;
  mem : Memory.t;
  icache : Cache.t;
  dcache : Cache.t;
  rf : Regfile.t;
  ext : Tie.Compile.compiled option;
  ext_state : Tie.Compile.state_store option;
  ready : int array;                 (* per-physical-register ready cycle *)
  mutable pc : int;
  mutable sar_reg : int;
  mutable cycle : int;
  mutable retired : int;
  mutable done_ : outcome option;
  mutable custom_result : int;
      (* last custom-instruction result, read back for its event *)
  counted : bool;
      (* retirements bump the [Retire_metrics] counters; false for the
         shadow copy a [Backend.Check] run compares against *)
  observers : observer Queue.t;
}

let create ?(config = Config.default) ?extension asm =
  Config.validate config;
  let mem = Memory.create () in
  Memory.load_image mem asm.Isa.Program.image;
  { cfg = config;
    asm;
    mem;
    icache = Cache.create config.Config.icache;
    dcache = Cache.create config.Config.dcache;
    rf = Regfile.create ();
    ext = extension;
    ext_state = Option.map Tie.Compile.create_state extension;
    ready = Array.make 64 0;
    pc = asm.Isa.Program.entry;
    sar_reg = 0;
    cycle = 0;
    retired = 0;
    done_ = None;
    custom_result = 0;
    counted = true;
    observers = Queue.create () }

(* O(1) per registration (the single-pass characterization engine adds
   observers on the hot path); notification keeps registration order.
   Registration is only sound before the first step: a late observer
   would silently miss the events already published (including the
   initial fetches), so it is refused loudly instead. *)
let add_observer t obs =
  if t.retired > 0 || t.done_ <> None then
    fail
      "add_observer: %d instructions already retired; observers must be \
       registered before the first step or they would miss events"
      t.retired;
  Queue.add obs t.observers

(* Retirement-loop metrics.  Handles are registered once (lazily, so a
   process that never enables metrics registers nothing) and bumped only
   when metrics recording is on: the cost on the hot path is a single
   flag check per retired instruction. *)
module Retire_metrics = struct
  let instructions = lazy (Obs.Metrics.counter "sim_instructions_total")
  let cycles = lazy (Obs.Metrics.counter "sim_cycles_total")
  let stall_cycles = lazy (Obs.Metrics.counter "sim_stall_cycles_total")
  let interlocks = lazy (Obs.Metrics.counter "sim_interlocks_total")
  let icache_misses = lazy (Obs.Metrics.counter "sim_icache_misses_total")
  let dcache_misses = lazy (Obs.Metrics.counter "sim_dcache_misses_total")

  let by_class name =
    lazy (Obs.Metrics.counter ~labels:[ ("class", name) ]
            "sim_class_instructions_total")

  let arith = by_class "arith"
  let load = by_class "load"
  let store = by_class "store"
  let jump = by_class "jump"
  let branch = by_class "branch"
  let custom = by_class "custom"

  let record (e : Event.t) =
    Obs.Metrics.inc (Lazy.force instructions);
    Obs.Metrics.inc ~by:e.Event.cycles (Lazy.force cycles);
    if e.Event.stall_cycles > 0 then
      Obs.Metrics.inc ~by:e.Event.stall_cycles (Lazy.force stall_cycles);
    if e.Event.interlock || e.Event.window_event then
      Obs.Metrics.inc (Lazy.force interlocks);
    if (not e.Event.fetch.Event.funcached) && not e.Event.fetch.Event.fhit
    then Obs.Metrics.inc (Lazy.force icache_misses);
    (match e.Event.mem with
     | Some mi when (not mi.Event.muncached) && not mi.Event.mhit ->
       Obs.Metrics.inc (Lazy.force dcache_misses)
     | Some _ | None -> ());
    Obs.Metrics.inc
      (Lazy.force
         (match e.Event.clazz with
          | Isa.Instr.Arith_class -> arith
          | Isa.Instr.Load_class -> load
          | Isa.Instr.Store_class -> store
          | Isa.Instr.Jump_class -> jump
          | Isa.Instr.Branch_class -> branch
          | Isa.Instr.Custom_class -> custom))
end

let u32 v = v land 0xffff_ffff

let s32 v =
  let v = u32 v in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let sext16 v =
  let v = v land 0xffff in
  if v land 0x8000 <> 0 then v - 0x1_0000 else v

let nsau v =
  let v = u32 v in
  if v = 0 then 32
  else
    let rec go n x = if x land 0x8000_0000 <> 0 then n else go (n + 1) (x lsl 1) in
    go 0 v

let nsa v =
  (* Redundant sign bits of a signed value (normalisation shift amount). *)
  let v = s32 v in
  if v = 0 || v = -1 then 31
  else
    let x = if v < 0 then u32 (lnot v) else v in
    nsau x - 1

let eval_binop op s t =
  let open Isa.Instr in
  match op with
  | Add -> s + t
  | Addx2 -> (s lsl 1) + t
  | Addx4 -> (s lsl 2) + t
  | Addx8 -> (s lsl 3) + t
  | Sub -> s - t
  | Subx2 -> (s lsl 1) - t
  | Subx4 -> (s lsl 2) - t
  | Subx8 -> (s lsl 3) - t
  | And_ -> s land t
  | Or_ -> s lor t
  | Xor -> s lxor t
  | Min -> if s32 s < s32 t then s else t
  | Max -> if s32 s > s32 t then s else t
  | Minu -> if u32 s < u32 t then s else t
  | Maxu -> if u32 s > u32 t then s else t
  | Mul16s -> sext16 s * sext16 t
  | Mul16u -> (s land 0xffff) * (t land 0xffff)
  | Mull -> s * t

let eval_unop op s =
  let open Isa.Instr in
  match op with
  | Abs -> abs (s32 s)
  | Neg -> -s
  | Nsa -> nsa s
  | Nsau -> nsau s

let cmov_cond op t =
  let open Isa.Instr in
  match op with
  | Moveqz -> t = 0
  | Movnez -> t <> 0
  | Movltz -> s32 t < 0
  | Movgez -> s32 t >= 0

let bcond2_holds c s t =
  let open Isa.Instr in
  match c with
  | Beq -> u32 s = u32 t
  | Bne -> u32 s <> u32 t
  | Blt -> s32 s < s32 t
  | Bge -> s32 s >= s32 t
  | Bltu -> u32 s < u32 t
  | Bgeu -> u32 s >= u32 t
  | Bany -> s land t <> 0
  | Bnone -> s land t = 0
  | Ball -> lnot s land t land 0xffff_ffff = 0
  | Bnall -> lnot s land t land 0xffff_ffff <> 0

let bcondi_holds c s n =
  let open Isa.Instr in
  match c with
  | Beqi -> s32 s = n
  | Bnei -> s32 s <> n
  | Blti -> s32 s < n
  | Bgei -> s32 s >= n
  | Bltui -> u32 s < u32 n
  | Bgeui -> u32 s >= u32 n

let bcondz_holds c s =
  let open Isa.Instr in
  match c with
  | Beqz -> u32 s = 0
  | Bnez -> u32 s <> 0
  | Bltz -> s32 s < 0
  | Bgez -> s32 s >= 0

(* Result of executing an instruction's semantics. *)
type exec = {
  next_pc : int;
  taken : bool option;
  mem_info : Event.mem_info option;
  result : int option;           (* value driven on the result bus *)
  window_event : bool;
  busy : int;
  custom : Event.custom_info option;
  halt : bool;
  extra_latency : int;           (* producer latency beyond 1 cycle *)
}

let reg t r = Regfile.read t.rf r

let set_reg t r v = Regfile.write t.rf r v

let target_of slot =
  match slot.Isa.Program.target with
  | Some a -> a
  | None -> fail "unresolved branch target at 0x%x" slot.Isa.Program.addr

let data_access t ~write ~size ~addr ~value =
  let uncached = addr >= t.cfg.Config.uncached_base in
  let hit =
    if uncached then false
    else Cache.access t.dcache addr = Cache.Hit
  in
  { Event.maddr = addr; msize = size; mwrite = write; mhit = hit;
    muncached = uncached; mvalue = u32 value }

let load_size = function
  | Isa.Instr.L8ui -> 1
  | Isa.Instr.L16si | Isa.Instr.L16ui -> 2
  | Isa.Instr.L32i -> 4

let store_size = function
  | Isa.Instr.S8i -> 1
  | Isa.Instr.S16i -> 2
  | Isa.Instr.S32i -> 4

let do_load t op base off =
  let open Isa.Instr in
  let addr = u32 (base + off) in
  let v =
    try
      match op with
      | L8ui -> Memory.load8 t.mem addr
      | L16si -> sext16 (Memory.load16 t.mem addr)
      | L16ui -> Memory.load16 t.mem addr
      | L32i -> Memory.load32 t.mem addr
    with Invalid_argument msg -> fail "load: %s" msg
  in
  (u32 v, data_access t ~write:false ~size:(load_size op) ~addr ~value:v)

let do_store t op value base off =
  let open Isa.Instr in
  let addr = u32 (base + off) in
  (try
     match op with
     | S8i -> Memory.store8 t.mem addr value
     | S16i -> Memory.store16 t.mem addr value
     | S32i -> Memory.store32 t.mem addr value
   with Invalid_argument msg -> fail "store: %s" msg);
  data_access t ~write:true ~size:(store_size op) ~addr ~value

(* Static half of custom-instruction execution: everything that depends
   only on the extension and the call site, not on register values.
   Raising here mirrors the interpreter's execution-time errors, so the
   threaded compiler must catch and defer to the fallback (a program
   carrying an unresolvable custom instruction that never executes must
   still run). *)
let resolve_custom t call =
  let ext =
    match t.ext with
    | Some e -> e
    | None -> fail "custom instruction %S but no extension installed"
                call.Isa.Instr.cname
  in
  let insn =
    match Tie.Compile.find ext call.Isa.Instr.cname with
    | Some i -> i
    | None -> fail "unknown custom instruction %S" call.Isa.Instr.cname
  in
  (* The textual assembler cannot know an instruction's signature, so it
     always treats the first register operand as the destination.
     Normalize against the compiled signature: a result-less instruction
     whose call carries a "destination" really has it as its first
     source. *)
  let dst, src_regs =
    match (call.Isa.Instr.dst, insn.Tie.Compile.def.Tie.Spec.result) with
    | (Some d, None)
      when List.length call.Isa.Instr.srcs
           < insn.Tie.Compile.regfile_reads ->
      (None, d :: call.Isa.Instr.srcs)
    | (dst, _) -> (dst, call.Isa.Instr.srcs)
  in
  (ext, insn, dst, src_regs)

(* Custom-state values after execution, in declaration order. *)
let custom_states t =
  match (t.ext, t.ext_state) with
  | Some ext, Some store ->
    List.filter_map
      (fun s ->
        match Tie.Compile.state_value store s.Tie.Spec.sname with
        | v -> Some v
        | exception Not_found -> None)
      (Tie.Compile.spec ext).Tie.Spec.states
  | _ -> []

let exec_custom t call =
  let ext, insn, dst, src_regs = resolve_custom t call in
  let store = Option.get t.ext_state in
  let srcs = List.map (reg t) src_regs in
  let result =
    Tie.Compile.execute ext store insn ~srcs ~imm:call.Isa.Instr.cimm
  in
  (match (dst, result) with
   | Some d, Some v -> set_reg t d v
   | Some _, None | None, Some _ | None, None -> ());
  let info =
    { Event.cinsn = insn; coperands = srcs; cresult = result;
      cstates = custom_states t }
  in
  (result, info, insn.Tie.Compile.latency)

let default_exec fall_through =
  { next_pc = fall_through;
    taken = None;
    mem_info = None;
    result = None;
    window_event = false;
    busy = 1;
    custom = None;
    halt = false;
    extra_latency = 0 }

let execute t slot =
  let open Isa.Instr in
  let instr = slot.Isa.Program.instr in
  let fall = slot.Isa.Program.addr + Isa.Encoding.bytes_per_instr in
  let d0 = default_exec fall in
  let setr r v =
    set_reg t r v;
    Some (u32 v)
  in
  let branch taken =
    { d0 with
      next_pc = (if taken then target_of slot else fall);
      taken = Some taken }
  in
  match instr with
  | Binop (op, d, s, tt) ->
    let v = eval_binop op (reg t s) (reg t tt) in
    let extra = match op with Mull -> 1 | _ -> 0 in
    { d0 with result = setr d v; extra_latency = extra }
  | Unop (op, d, s) -> { d0 with result = setr d (eval_unop op (reg t s)) }
  | Sext (d, s, b) ->
    let v = reg t s land ((1 lsl (b + 1)) - 1) in
    let v = if v land (1 lsl b) <> 0 then v lor (lnot ((1 lsl (b + 1)) - 1)) else v in
    { d0 with result = setr d v }
  | Cmov (op, d, s, tt) ->
    if cmov_cond op (reg t tt) then { d0 with result = setr d (reg t s) }
    else d0
  | Addi (d, s, n) -> { d0 with result = setr d (reg t s + n) }
  | Addmi (d, s, n) -> { d0 with result = setr d (reg t s + (n * 256)) }
  | Movi (d, n) -> { d0 with result = setr d n }
  | Mov (d, s) -> { d0 with result = setr d (reg t s) }
  | Extui (d, s, sh, w) ->
    { d0 with result = setr d ((u32 (reg t s) lsr sh) land ((1 lsl w) - 1)) }
  | Slli (d, s, n) -> { d0 with result = setr d (reg t s lsl (n land 31)) }
  | Srli (d, s, n) -> { d0 with result = setr d (u32 (reg t s) lsr (n land 31)) }
  | Srai (d, s, n) -> { d0 with result = setr d (s32 (reg t s) asr (n land 31)) }
  | Sll (d, s) -> { d0 with result = setr d (reg t s lsl t.sar_reg) }
  | Srl (d, s) -> { d0 with result = setr d (u32 (reg t s) lsr t.sar_reg) }
  | Sra (d, s) -> { d0 with result = setr d (s32 (reg t s) asr t.sar_reg) }
  | Src (d, s, tt) ->
    let wide = (u32 (reg t s) lsl 32) lor u32 (reg t tt) in
    { d0 with result = setr d (wide lsr t.sar_reg) }
  | Ssai n ->
    t.sar_reg <- n land 31;
    d0
  | Ssl s | Ssr s ->
    t.sar_reg <- reg t s land 31;
    d0
  | Load (op, d, base, off) ->
    let v, mi = do_load t op (reg t base) off in
    { d0 with result = setr d v; mem_info = Some mi; extra_latency = 1 }
  | L32r (d, _) ->
    let addr = target_of slot in
    let v =
      try Memory.load32 t.mem addr
      with Invalid_argument msg -> fail "l32r: %s" msg
    in
    let mi = data_access t ~write:false ~size:4 ~addr ~value:v in
    { d0 with result = setr d v; mem_info = Some mi; extra_latency = 1 }
  | Store (op, v, base, off) ->
    let mi = do_store t op (reg t v) (reg t base) off in
    { d0 with mem_info = Some mi }
  | Branch2 (c, s, tt, _) -> branch (bcond2_holds c (reg t s) (reg t tt))
  | Branchi (c, s, n, _) -> branch (bcondi_holds c (reg t s) n)
  | Branchz (c, s, _) -> branch (bcondz_holds c (reg t s))
  | Bbit (want_set, s, tt, _) ->
    branch (((u32 (reg t s) lsr (reg t tt land 31)) land 1 = 1) = want_set)
  | Bbiti (want_set, s, n, _) ->
    branch (((u32 (reg t s) lsr (n land 31)) land 1 = 1) = want_set)
  | J _ -> { d0 with next_pc = target_of slot; taken = Some true }
  | Jx s -> { d0 with next_pc = u32 (reg t s); taken = Some true }
  | Call0 _ ->
    { d0 with next_pc = target_of slot; taken = Some true;
      result = setr (Isa.Reg.a 0) fall }
  | Callx0 s ->
    let dest = u32 (reg t s) in
    { d0 with next_pc = dest; taken = Some true;
      result = setr (Isa.Reg.a 0) fall }
  | Call8 _ ->
    let result = setr (Isa.Reg.a 8) fall in
    let spilled = Regfile.push_window t.rf in
    { d0 with next_pc = target_of slot; taken = Some true; result;
      window_event = spilled }
  | Callx8 s ->
    let dest = u32 (reg t s) in
    let result = setr (Isa.Reg.a 8) fall in
    let spilled = Regfile.push_window t.rf in
    { d0 with next_pc = dest; taken = Some true; result;
      window_event = spilled }
  | Ret -> { d0 with next_pc = u32 (reg t (Isa.Reg.a 0)); taken = Some true }
  | Retw ->
    let dest = u32 (reg t (Isa.Reg.a 0)) in
    let reloaded = Regfile.pop_window t.rf in
    { d0 with next_pc = dest; taken = Some true; window_event = reloaded }
  | Entry (sp, n) -> { d0 with result = setr sp (reg t sp - n) }
  | Nop | Memw | Extw | Isync -> d0
  | Break -> { d0 with halt = true }
  | Custom call ->
    let result, info, latency = exec_custom t call in
    { d0 with
      result;
      busy = latency;
      custom = Some info;
      extra_latency = latency - 1 }

let step t =
  match t.done_ with
  | Some o -> `Done o
  | None ->
    if t.cycle >= t.cfg.Config.max_cycles then begin
      t.done_ <- Some Watchdog;
      `Done Watchdog
    end
    else begin
      let slot =
        match Isa.Program.slot_at t.asm t.pc with
        | Some s -> s
        | None -> fail "pc 0x%x outside the code section" t.pc
      in
      let instr = slot.Isa.Program.instr in
      (* Fetch. *)
      let funcached = t.pc >= t.cfg.Config.uncached_base in
      let fhit =
        if funcached then false
        else Cache.access t.icache t.pc = Cache.Hit
      in
      let fetch_pen =
        if funcached then t.cfg.Config.uncached_fetch_penalty
        else if fhit then 0
        else Cache.miss_penalty t.icache
      in
      let fetch =
        { Event.fpc = t.pc; fword = slot.Isa.Program.word; fhit; funcached }
      in
      (* Operand-dependency interlock via the scoreboard. *)
      let src_regs = Isa.Instr.uses instr in
      let src_values = List.map (reg t) src_regs in
      let issue = t.cycle + fetch_pen in
      let stall =
        List.fold_left
          (fun acc r ->
            let ready = t.ready.(Regfile.phys_index t.rf r) in
            max acc (ready - issue))
          0 src_regs
      in
      let stall = max stall 0 in
      let start = issue + stall in
      (* Execute (also rotates the window for call8/retw, so physical
         indices of destination registers are taken afterwards). *)
      let ex = execute t slot in
      let mem_pen =
        match ex.mem_info with
        | None -> 0
        | Some mi ->
          if mi.Event.muncached then t.cfg.Config.uncached_data_penalty
          else if mi.Event.mhit then 0
          else Cache.miss_penalty t.dcache
      in
      let taken_pen =
        match ex.taken with
        | Some true -> t.cfg.Config.branch_taken_penalty
        | Some false | None -> 0
      in
      let window_pen =
        if ex.window_event then t.cfg.Config.window_penalty else 0
      in
      (* Scoreboard update for produced values. *)
      List.iter
        (fun r ->
          t.ready.(Regfile.phys_index t.rf r) <- start + 1 + ex.extra_latency)
        (Isa.Instr.defs instr);
      let total = 1 + fetch_pen + stall + mem_pen + taken_pen + window_pen in
      let event =
        { Event.index = t.retired;
          start_cycle = t.cycle;
          cycles = total;
          instr;
          clazz = Isa.Instr.class_of instr;
          taken = ex.taken;
          interlock = stall > 0;
          stall_cycles = stall;
          window_event = ex.window_event;
          fetch;
          mem = ex.mem_info;
          src_values;
          result = ex.result;
          custom = ex.custom;
          busy_cycles = ex.busy }
      in
      t.cycle <- t.cycle + total;
      t.retired <- t.retired + 1;
      t.pc <- ex.next_pc;
      if ex.halt then t.done_ <- Some Halted;
      if t.counted && Obs.Metrics.enabled () then Retire_metrics.record event;
      Queue.iter (fun obs -> obs event) t.observers;
      `Step event
    end

let run t =
  let rec go () =
    match step t with
    | `Step _ -> go ()
    | `Done o -> o
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Threaded-code backend: pre-decoded, block-at-a-time execution.      *)
(*                                                                     *)
(* The program is static, so everything [step] re-derives per retired  *)
(* instruction — operand decode, uses/defs lists, branch targets,      *)
(* immediates, latencies, custom-instruction lookup — is resolved once *)
(* at load time into a flat array of operation records, one per slot,  *)
(* each carrying one closure for the instruction's effects.            *)
(* [Decoder.analyze]'s basic-block partition (shared with the hotspot  *)
(* profiler) delimits the straight-line runs the dispatcher exploits:  *)
(* inside a run the successor is slot [i+1] by construction, so only   *)
(* control instructions pay the pc-to-slot mapping.  Instructions the  *)
(* compiler does not cover run the interpreter's [execute] through one *)
(* adapter, so coverage is a performance property, never a semantic    *)
(* one.                                                                *)
(* ------------------------------------------------------------------ *)

(* Shared [Some true]/[Some false] so retiring a branch allocates no
   option; events stay structurally identical to the interpreter's. *)
let some_true = Some true
let some_false = Some false

(* An op's closure performs the instruction's architectural effects —
   register, memory and TIE-state writes, cache accesses, window
   rotation and, for control instructions, the pc update — and returns
   a packed word: bits 0-15 hold the penalty cycles beyond fetch and
   stall (data access + taken branch + window traffic; configs keep each
   term far below the field's range), bits 16-20 the flags below, bits
   21+ the producer's latency beyond one cycle. *)
let pen_mask = 0xffff
let halt_bit = 0x1_0000
let taken_bit = 0x2_0000   (* control transfer taken *)
let window_bit = 0x4_0000  (* window spill or reload *)
let dhit_bit = 0x8_0000    (* cached data access hit *)
let result_bit = 0x10_0000 (* a value was driven on the result bus *)
let extra_shift = 21
let fhit_bit = 0x1_0000    (* in the loop's fetch word: cached fetch hit *)

type op = {
  o_slot : Isa.Program.slot;
  o_uses : int array;            (* scoreboard sources, as window-relative
                                    register indices (decode-resolved) *)
  o_uses_list : Isa.Reg.t list;  (* same registers, for [src_values] *)
  o_defs : int array;
  o_clazz : Isa.Instr.clazz;
  o_control : bool;              (* the closure sets the pc; otherwise
                                    the loop falls through *)
  o_funcached : bool;
  o_line_run : bool;
      (* reached by fall-through, this op's fetch repeats the previous
         op's icache line: a statically guaranteed hit (see
         [Cache.repeat_hit]) *)
  o_custom : (Tie.Compile.compiled_insn * Isa.Reg.t list) option;
      (* resolved custom instruction and its source registers *)
  o_run : t -> int;
  o_compiled : bool;             (* false = interpreter adapter *)
}

(* Register access with the [Regfile] representation inlined: the
   non-flambda compiler keeps cross-module calls out-of-line, and three
   nested calls per operand would dominate the hot loop. *)
let rget t i =
  let rf = t.rf in
  Array.unsafe_get rf.Regfile.phys ((rf.Regfile.base + i) land 63)

let rset t i v =
  let rf = t.rf in
  Array.unsafe_set rf.Regfile.phys
    ((rf.Regfile.base + i) land 63)
    (v land 0xffff_ffff)

(* Data-access penalty and hit flag, with the same cache-state evolution
   as [data_access].  The repeat-of-last-line hit is inlined (see
   {!Cache.t}): [access] leaves its line resident and MRU, so a repeat
   is a counters-only hit and the cross-module call is skipped.  A
   top-level function (fully applied at every call site) so building an
   op allocates nothing for it. *)
let dpen ubase udp dmiss t addr =
  if addr >= ubase then udp
  else begin
    let dc = t.dcache in
    if addr lsr dc.Cache.line_shift = dc.Cache.last_line then begin
      dc.Cache.accesses <- dc.Cache.accesses + 1;
      dc.Cache.hits <- dc.Cache.hits + 1;
      dhit_bit
    end
    else if Cache.access dc addr = Cache.Hit then dhit_bit
    else dmiss
  end

let make_branch target fall btp cond =
  match target with
  | None -> None
  | Some tgt ->
    let taken = btp lor taken_bit in
    Some
      (fun t ->
        if cond t then begin
          t.pc <- tgt;
          taken
        end
        else begin
          t.pc <- fall;
          0
        end)

(* Compile one slot to its closure, with the static work hoisted.
   [None] defers to the interpreter adapter — either the compiler does
   not cover the instruction, or static resolution failed in a way the
   interpreter only reports at execution time (unresolved targets,
   unknown custom instructions), which must stay an execution-time
   error.  Each arm mirrors the corresponding [execute] arm: the same
   effects in the same order, with no allocation. *)
let compile_op t (slot : Isa.Program.slot) : (t -> int) option =
  let open Isa.Instr in
  let ri = Isa.Reg.index in
  let fall = slot.Isa.Program.addr + Isa.Encoding.bytes_per_instr in
  let target = slot.Isa.Program.target in
  let btp = t.cfg.Config.branch_taken_penalty in
  let udp = t.cfg.Config.uncached_data_penalty in
  let wp = t.cfg.Config.window_penalty in
  let ubase = t.cfg.Config.uncached_base in
  let dmiss = Cache.miss_penalty t.dcache in
  let branch cond = make_branch target fall btp cond in
  let jump = btp lor taken_bit in
  let r = result_bit in
  (* A windowed call or return's words: without and with a spilled or
     reloaded frame. *)
  let windowed flags = (jump lor flags, (jump + wp) lor window_bit lor flags) in
  match slot.Isa.Program.instr with
  | Binop (op, d, s, tt) ->
    let di = ri d and si = ri s and ti = ri tt in
    let packed = ((match op with Mull -> 1 | _ -> 0) lsl extra_shift) lor r in
    Some
      (fun t ->
        rset t di (eval_binop op (rget t si) (rget t ti));
        packed)
  | Unop (op, d, s) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (eval_unop op (rget t si));
        r)
  | Sext (d, s, b) ->
    let di = ri d and si = ri s in
    let m = (1 lsl (b + 1)) - 1 in
    let sign = 1 lsl b in
    Some
      (fun t ->
        let v = rget t si land m in
        rset t di (if v land sign <> 0 then v lor lnot m else v);
        r)
  | Cmov (op, d, s, tt) ->
    let di = ri d and si = ri s and ti = ri tt in
    Some
      (fun t ->
        if cmov_cond op (rget t ti) then begin
          rset t di (rget t si);
          r
        end
        else 0)
  | Addi (d, s, n) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (rget t si + n);
        r)
  | Addmi (d, s, n) ->
    let di = ri d and si = ri s in
    let n = n * 256 in
    Some
      (fun t ->
        rset t di (rget t si + n);
        r)
  | Movi (d, n) ->
    let di = ri d in
    Some
      (fun t ->
        rset t di n;
        r)
  | Mov (d, s) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (rget t si);
        r)
  | Extui (d, s, sh, w) ->
    let di = ri d and si = ri s in
    let m = (1 lsl w) - 1 in
    Some
      (fun t ->
        rset t di ((u32 (rget t si) lsr sh) land m);
        r)
  | Slli (d, s, n) ->
    let di = ri d and si = ri s in
    let sh = n land 31 in
    Some
      (fun t ->
        rset t di (rget t si lsl sh);
        r)
  | Srli (d, s, n) ->
    let di = ri d and si = ri s in
    let sh = n land 31 in
    Some
      (fun t ->
        rset t di (u32 (rget t si) lsr sh);
        r)
  | Srai (d, s, n) ->
    let di = ri d and si = ri s in
    let sh = n land 31 in
    Some
      (fun t ->
        rset t di (s32 (rget t si) asr sh);
        r)
  | Sll (d, s) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (rget t si lsl t.sar_reg);
        r)
  | Srl (d, s) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (u32 (rget t si) lsr t.sar_reg);
        r)
  | Sra (d, s) ->
    let di = ri d and si = ri s in
    Some
      (fun t ->
        rset t di (s32 (rget t si) asr t.sar_reg);
        r)
  | Src (d, s, tt) ->
    let di = ri d and si = ri s and ti = ri tt in
    Some
      (fun t ->
        let wide = (u32 (rget t si) lsl 32) lor u32 (rget t ti) in
        rset t di (wide lsr t.sar_reg);
        r)
  | Ssai n ->
    let sar = n land 31 in
    Some
      (fun t ->
        t.sar_reg <- sar;
        0)
  | Ssl s | Ssr s ->
    let si = ri s in
    Some
      (fun t ->
        t.sar_reg <- rget t si land 31;
        0)
  | Load (op, d, base, off) ->
    let di = ri d and bi = ri base in
    let packed = (1 lsl extra_shift) lor r in
    Some
      (fun t ->
        let addr = u32 (rget t bi + off) in
        let v =
          try
            match op with
            | L8ui -> Memory.load8 t.mem addr
            | L16si -> sext16 (Memory.load16 t.mem addr)
            | L16ui -> Memory.load16 t.mem addr
            | L32i -> Memory.load32 t.mem addr
          with Invalid_argument msg -> fail "load: %s" msg
        in
        rset t di v;
        dpen ubase udp dmiss t addr lor packed)
  | L32r (d, _) ->
    (match target with
     | None -> None
     | Some addr ->
       let di = ri d in
       let packed = (1 lsl extra_shift) lor r in
       Some
         (fun t ->
           let v =
             try Memory.load32 t.mem addr
             with Invalid_argument msg -> fail "l32r: %s" msg
           in
           rset t di v;
           dpen ubase udp dmiss t addr lor packed))
  | Store (op, v, base, off) ->
    let vi = ri v and bi = ri base in
    Some
      (fun t ->
        let addr = u32 (rget t bi + off) in
        (try
           match op with
           | S8i -> Memory.store8 t.mem addr (rget t vi)
           | S16i -> Memory.store16 t.mem addr (rget t vi)
           | S32i -> Memory.store32 t.mem addr (rget t vi)
         with Invalid_argument msg -> fail "store: %s" msg);
        dpen ubase udp dmiss t addr)
  | Branch2 (c, s, tt, _) ->
    let si = ri s and ti = ri tt in
    branch (fun t -> bcond2_holds c (rget t si) (rget t ti))
  | Branchi (c, s, n, _) ->
    let si = ri s in
    branch (fun t -> bcondi_holds c (rget t si) n)
  | Branchz (c, s, _) ->
    let si = ri s in
    branch (fun t -> bcondz_holds c (rget t si))
  | Bbit (want_set, s, tt, _) ->
    let si = ri s and ti = ri tt in
    branch
      (fun t -> ((u32 (rget t si) lsr (rget t ti land 31)) land 1 = 1) = want_set)
  | Bbiti (want_set, s, n, _) ->
    let si = ri s in
    let sh = n land 31 in
    branch (fun t -> ((u32 (rget t si) lsr sh) land 1 = 1) = want_set)
  | J _ ->
    (match target with
     | None -> None
     | Some tgt ->
       Some
         (fun t ->
           t.pc <- tgt;
           jump))
  | Jx s ->
    let si = ri s in
    Some
      (fun t ->
        t.pc <- u32 (rget t si);
        jump)
  | Call0 _ ->
    (match target with
     | None -> None
     | Some tgt ->
       let packed = jump lor r in
       Some
         (fun t ->
           rset t 0 fall;
           t.pc <- tgt;
           packed))
  | Callx0 s ->
    let si = ri s in
    let packed = jump lor r in
    Some
      (fun t ->
        let dest = u32 (rget t si) in
        rset t 0 fall;
        t.pc <- dest;
        packed)
  | Call8 _ ->
    (match target with
     | None -> None
     | Some tgt ->
       let plain, spill = windowed r in
       Some
         (fun t ->
           rset t 8 fall;
           let spilled = Regfile.push_window t.rf in
           t.pc <- tgt;
           if spilled then spill else plain))
  | Callx8 s ->
    let si = ri s in
    let plain, spill = windowed r in
    Some
      (fun t ->
        let dest = u32 (rget t si) in
        rset t 8 fall;
        let spilled = Regfile.push_window t.rf in
        t.pc <- dest;
        if spilled then spill else plain)
  | Ret ->
    Some
      (fun t ->
        t.pc <- u32 (rget t 0);
        jump)
  | Retw ->
    let plain, reload = windowed 0 in
    Some
      (fun t ->
        let dest = u32 (rget t 0) in
        let reloaded = Regfile.pop_window t.rf in
        t.pc <- dest;
        if reloaded then reload else plain)
  | Entry (sp, n) ->
    let spi = ri sp in
    Some
      (fun t ->
        rset t spi (rget t spi - n);
        r)
  | Nop | Memw | Extw | Isync -> Some (fun _ -> 0)
  | Break -> Some (fun _ -> halt_bit)
  | Custom call ->
    (match resolve_custom t call with
     | exception Sim_error _ -> None
     | (ext, insn, dst, src_regs) ->
       let imm = call.Isa.Instr.cimm in
       let packed = (insn.Tie.Compile.latency - 1) lsl extra_shift in
       let src_idx = Array.of_list (List.map Isa.Reg.index src_regs) in
       let nsrcs = Array.length src_idx in
       let srcs = Array.make nsrcs 0 in
       let di = match dst with Some d -> Isa.Reg.index d | None -> -1 in
       (* Bind the call site now: operand routing and the immediate are
          pre-resolved.  A malformed site (too few sources, missing
          immediate) falls back to the interpreter, which reports the
          identical error at retirement time. *)
       (match
          Tie.Compile.bind ext (Option.get t.ext_state) insn ~nsrcs ~imm
        with
        | exception Tie.Compile.Tie_error _ -> None
        | exec ->
          Some
            (fun t ->
              for k = 0 to nsrcs - 1 do
                Array.unsafe_set srcs k (rget t (Array.unsafe_get src_idx k))
              done;
              let result = exec srcs in
              if result = Tie.Compile.no_result then packed
              else begin
                if di >= 0 then rset t di result;
                t.custom_result <- result;
                packed lor r
              end)))

(* The one adapter from an uncovered slot to the interpreter: run
   [execute] and pack its record into the same word. *)
let interpret t (slot : Isa.Program.slot) =
  let cfg = t.cfg in
  let dmiss = Cache.miss_penalty t.dcache in
  fun t ->
    let ex = execute t slot in
    t.pc <- ex.next_pc;
    let w = ex.extra_latency lsl extra_shift in
    let w =
      match ex.mem_info with
      | None -> w
      | Some mi when mi.Event.muncached -> w + cfg.Config.uncached_data_penalty
      | Some mi when mi.Event.mhit -> w lor dhit_bit
      | Some _ -> w + dmiss
    in
    let w =
      match ex.taken with
      | Some true -> (w + cfg.Config.branch_taken_penalty) lor taken_bit
      | Some false | None -> w
    in
    let w =
      if ex.window_event then (w + cfg.Config.window_penalty) lor window_bit
      else w
    in
    let w =
      match ex.result with
      | Some v ->
        t.custom_result <- v;
        w lor result_bit
      | None -> w
    in
    if ex.halt then w lor halt_bit else w

(* What an event needs from before an op's closure runs, which may
   overwrite a load's base register or rotate the window. *)
type pre = { p_srcs : int list; p_addr : int; p_operands : int list }

let no_pre = { p_srcs = []; p_addr = 0; p_operands = [] }

let capture t (op : op) =
  { p_srcs = List.map (reg t) op.o_uses_list;
    p_addr =
      (match op.o_slot.Isa.Program.instr with
       | Isa.Instr.Load (_, _, b, off) | Isa.Instr.Store (_, _, b, off) ->
         u32 (reg t b + off)
       | _ -> 0);
    p_operands =
      (match op.o_custom with
       | Some (_, regs) -> List.map (reg t) regs
       | None -> []) }

(* The event [step] publishes for this retirement, rebuilt from the
   decoded op, the flags of its packed word and register reads around
   its closure: [pre] before, the result and the loaded or stored value
   after. *)
let event_of t (op : op) pre ~index ~start ~fhit ~stall ~total packed =
  let open Isa.Instr in
  let slot = op.o_slot in
  let instr = slot.Isa.Program.instr in
  let flag b = packed land b <> 0 in
  let access ~write ~size addr value =
    Some
      { Event.maddr = addr; msize = size; mwrite = write;
        mhit = flag dhit_bit;
        muncached = addr >= t.cfg.Config.uncached_base;
        mvalue = value }
  in
  let result =
    if not (flag result_bit) then None
    else
      Some
        (match instr with
         | Call0 _ | Callx0 _ | Call8 _ | Callx8 _ ->
           slot.Isa.Program.addr + Isa.Encoding.bytes_per_instr
         | Custom _ -> t.custom_result
         | _ -> rget t op.o_defs.(0))
  in
  { Event.index;
    start_cycle = start;
    cycles = total;
    instr;
    clazz = op.o_clazz;
    taken =
      (if not op.o_control then None
       else if flag taken_bit then some_true
       else some_false);
    interlock = stall > 0;
    stall_cycles = stall;
    window_event = flag window_bit;
    fetch =
      { Event.fpc = slot.Isa.Program.addr;
        fword = slot.Isa.Program.word;
        fhit;
        funcached = op.o_funcached };
    mem =
      (match instr with
       | Load (lop, d, _, _) ->
         access ~write:false ~size:(load_size lop) pre.p_addr (reg t d)
       | L32r (d, _) -> access ~write:false ~size:4 (target_of slot) (reg t d)
       | Store (sop, v, _, _) ->
         access ~write:true ~size:(store_size sop) pre.p_addr (reg t v)
       | _ -> None);
    src_values = pre.p_srcs;
    result;
    custom =
      Option.map
        (fun (insn, _) ->
          { Event.cinsn = insn; coperands = pre.p_operands; cresult = result;
            cstates = custom_states t })
        op.o_custom;
    busy_cycles =
      (if op.o_clazz = Custom_class then 1 + (packed lsr extra_shift) else 1) }

type decode_stats = {
  d_blocks : int;
  d_ops : int;
  d_compiled : int;
}

(* Shared empty operand set: most instructions have no defs or no uses,
   and decode cost is dominated by how many words per slot survive into
   the op array (everything allocated here is live for the whole run,
   so it is all promoted out of the minor heap). *)
let no_regs : int array = [||]

let reg_indices l =
  match l with
  | [] -> no_regs
  | [ a ] -> [| Isa.Reg.index a |]
  | [ a; b ] -> [| Isa.Reg.index a; Isa.Reg.index b |]
  | [ a; b; c ] -> [| Isa.Reg.index a; Isa.Reg.index b; Isa.Reg.index c |]
  | l -> Array.of_list (List.map Isa.Reg.index l)

let decode ?(covered = fun _ -> true) t =
  let code = t.asm.Isa.Program.code in
  let line_shift = t.icache.Cache.line_shift in
  let uncached_base = t.cfg.Config.uncached_base in
  Array.mapi
    (fun i (slot : Isa.Program.slot) ->
      let instr = slot.Isa.Program.instr in
      let uses = Isa.Instr.uses instr in
      let compiled = if covered instr then compile_op t slot else None in
      let addr = slot.Isa.Program.addr in
      let funcached = addr >= uncached_base in
      let line_run =
        i > 0
        && (not funcached)
        && (let prev = code.(i - 1).Isa.Program.addr in
            prev < uncached_base && addr lsr line_shift = prev lsr line_shift)
      in
      { o_slot = slot;
        o_uses = reg_indices uses;
        o_uses_list = uses;
        o_defs = reg_indices (Isa.Instr.defs instr);
        o_clazz = Isa.Instr.class_of instr;
        o_control = Isa.Instr.is_control instr;
        o_funcached = funcached;
        o_line_run = line_run;
        o_custom =
          (match instr with
           | Isa.Instr.Custom call -> (
             match resolve_custom t call with
             | _, insn, _, src_regs -> Some (insn, src_regs)
             | exception Sim_error _ -> None)
           | _ -> None);
        o_run = (match compiled with Some f -> f | None -> interpret t slot);
        o_compiled = compiled <> None })
    code

let decode_stats ?covered t =
  let dec = Decoder.analyze t.asm in
  let ops = decode ?covered t in
  { d_blocks = Array.length dec.Decoder.blocks;
    d_ops = Array.length ops;
    d_compiled =
      Array.fold_left (fun n o -> if o.o_compiled then n + 1 else n) 0 ops }

let run_threaded ?covered t =
  match t.done_ with
  | Some o -> o
  | None ->
    let ops = decode ?covered t in
    let n = Array.length ops in
    let base = t.asm.Isa.Program.code_base in
    let bpi = Isa.Encoding.bytes_per_instr in
    let max_cycles = t.cfg.Config.max_cycles in
    let ufp = t.cfg.Config.uncached_fetch_penalty in
    let icache = t.icache in
    let rf = t.rf and ready = t.ready in
    let imiss_pen = Cache.miss_penalty icache in
    let observers = Array.of_seq (Queue.to_seq t.observers) in
    let nobs = Array.length observers in
    let metrics = t.counted && Obs.Metrics.enabled () in
    (* Events cost an allocation per retirement, so they are built only
       when someone is listening. *)
    let publish = nobs > 0 || metrics in
    (* pc-to-slot mapping as a table lookup: hardware division (for
       [mod]/[/] by the instruction size) costs tens of cycles and runs
       after every control transfer.  [-1] marks offsets inside an
       instruction, preserving the interpreter's misaligned-pc error. *)
    let span = n * bpi in
    let idx_table = Array.make (max span 1) (-1) in
    for i = 0 to n - 1 do
      idx_table.(i * bpi) <- i
    done;
    let index_of pc =
      let off = pc - base in
      let i =
        if off < 0 || off >= span then -1
        else Array.unsafe_get idx_table off
      in
      if i < 0 then fail "pc 0x%x outside the code section" pc else i
    in
    (* Counter-only icache hits (static line runs, or repeats of the
       line just fetched), counted locally and flushed to the cache in
       one bulk update when the run leaves the loop (also on simulation
       errors, so stats stay exact for the equivalence checker). *)
    let line_hits = ref 0 in
    (* One retirement; mirrors [step] exactly (fetch, scoreboard stall,
       execute, penalties, scoreboard update, clocks, event) and
       returns the halt flag. *)
    let retire (op : op) fall =
      let pc = t.pc in
      (* The fetch penalty, with [fhit_bit] set on a cached hit. *)
      let fetch =
        if op.o_funcached then ufp
        else if
          (fall && op.o_line_run)
          || pc lsr icache.Cache.line_shift = icache.Cache.last_line
        then begin
          incr line_hits;
          fhit_bit
        end
        else if Cache.access icache pc = Cache.Hit then fhit_bit
        else imiss_pen
      in
      let fetch_pen = fetch land pen_mask in
      let issue = t.cycle + fetch_pen in
      let uses = op.o_uses in
      let wbase = rf.Regfile.base in
      let stall = ref 0 in
      for k = 0 to Array.length uses - 1 do
        let rdy = ready.((wbase + Array.unsafe_get uses k) land 63) in
        if rdy - issue > !stall then stall := rdy - issue
      done;
      let stall = !stall in
      let pre = if publish then capture t op else no_pre in
      let packed = op.o_run t in
      let defs = op.o_defs in
      let rdy = issue + stall + 1 + (packed lsr extra_shift) in
      (* Re-read the window base: the op may have rotated it. *)
      let wbase = rf.Regfile.base in
      for k = 0 to Array.length defs - 1 do
        ready.((wbase + Array.unsafe_get defs k) land 63) <- rdy
      done;
      let start = t.cycle in
      let total = 1 + fetch_pen + stall + (packed land pen_mask) in
      t.cycle <- start + total;
      t.retired <- t.retired + 1;
      if not op.o_control then t.pc <- pc + bpi;
      let halted = packed land halt_bit <> 0 in
      if halted then t.done_ <- Some Halted;
      if publish then begin
        let event =
          event_of t op pre ~index:(t.retired - 1) ~start
            ~fhit:(fetch land fhit_bit <> 0) ~stall ~total
            packed
        in
        if metrics then Retire_metrics.record event;
        for k = 0 to nobs - 1 do
          (Array.unsafe_get observers k) event
        done
      end;
      halted
    in
    (* [i >= 0] means slot [i] is known to hold [t.pc] (fall-through
       inside a straight-line run); [-1] re-derives it from the pc after
       the watchdog check, preserving the interpreter's check order. *)
    let rec go i =
      if t.cycle >= max_cycles then begin
        t.done_ <- Some Watchdog;
        Watchdog
      end
      else begin
        let fall = i >= 0 in
        let i = if fall then i else index_of t.pc in
        let op = Array.unsafe_get ops i in
        if retire op fall then Halted
        else if op.o_control || i + 1 >= n then go (-1)
        else go (i + 1)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        if !line_hits > 0 then Cache.repeat_hits icache !line_hits)
      (fun () -> go (-1))

let clone t =
  { cfg = t.cfg;
    asm = t.asm;
    mem = Memory.copy t.mem;
    icache = Cache.copy t.icache;
    dcache = Cache.copy t.dcache;
    rf = Regfile.copy t.rf;
    ext = t.ext;
    ext_state = Option.map Tie.Compile.copy_state t.ext_state;
    ready = Array.copy t.ready;
    pc = t.pc;
    sar_reg = t.sar_reg;
    cycle = t.cycle;
    retired = t.retired;
    done_ = t.done_;
    custom_result = t.custom_result;
    counted = false;
    observers = Queue.create () }

let cycles t = t.cycle
let instructions t = t.retired
let regfile t = t.rf
let memory t = t.mem
let icache t = t.icache
let dcache t = t.dcache
let sar t = t.sar_reg
let tie_state t = t.ext_state
let config t = t.cfg
let pc t = t.pc
