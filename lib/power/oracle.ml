(* The event-by-event reference estimator: every event re-derives its
   instruction's static facts, walks the RTL model cycle by cycle and
   charges a string-keyed table.  {!Estimator} computes the same energies
   compiled; this module is the oracle it is checked against. *)

type comp_unit = {
  comp : Tie.Component.t;
  model : Gates.component;
}

let unit_for comp = { comp; model = Gates.component_create comp }

type t = {
  cfg : Sim.Config.t;
  mutable rtl : Rtl.t;
  insn_units : (string, comp_unit array) Hashtbl.t;
  bus_units : comp_unit array;
  mutable alu : Gates.adder_state;
  mutable base_shifter : Gates.shifter_state;
  mutable base_mult : Gates.mult_state;
  mutable prev_word : int;
  mutable prev_bus1 : int;
  mutable prev_bus2 : int;
  mutable prev_result : int;
  totals : (string, float ref) Hashtbl.t;
}

let charge t key e =
  (match Hashtbl.find_opt t.totals key with
   | Some r -> r := !r +. e
   | None -> Hashtbl.replace t.totals key (ref e))

let create ?extension cfg =
  let insn_units = Hashtbl.create 16 in
  let bus_units =
    match extension with
    | None -> [||]
    | Some ext ->
      List.iter
        (fun ci ->
          let arr = Array.of_list (List.map unit_for ci.Tie.Compile.components) in
          Hashtbl.replace insn_units ci.Tie.Compile.def.Tie.Spec.iname arr)
        (Tie.Compile.instructions ext);
      Array.of_list
        (List.map unit_for (Tie.Compile.bus_facing_components ext))
  in
  { cfg;
    rtl = Rtl.create cfg;
    insn_units;
    bus_units;
    alu = Gates.adder_create 32;
    base_shifter = Gates.shifter_create 32;
    base_mult = Gates.mult_create 32;
    prev_word = 0;
    prev_bus1 = 0;
    prev_bus2 = 0;
    prev_result = 0;
    totals = Hashtbl.create 24 }

let clamp lo hi v = Float.min hi (Float.max lo v)

(* Data-dependent activity factor of a custom component from its
   gate-level toggle count. *)
let activity_factor params comp toggles =
  let expected = Blocks.expected_toggles comp in
  let raw = float_of_int toggles /. Float.max 1.0 expected in
  let swing = params.Blocks.custom_data_swing in
  clamp (1.0 -. swing) (1.0 +. swing) raw

let custom_unit_energy ~cycles ~inputs u =
  let p = Blocks.default in
  let a, b =
    match inputs with
    | [] -> (0, 0)
    | [ x ] -> (x, 0)
    | x :: y :: _ -> (x, y)
  in
  let togs = Gates.component_eval u.model a b in
  let base = p.Blocks.custom_active u.comp.Tie.Component.category in
  let cx = Tie.Component.complexity u.comp in
  base *. cx *. activity_factor p u.comp togs *. float_of_int cycles

let is_mul_op (op : Isa.Instr.binop) =
  match op with
  | Isa.Instr.Mul16s | Isa.Instr.Mul16u | Isa.Instr.Mull -> true
  | _ -> false

let is_shift (i : Isa.Instr.t) =
  match i with
  | Isa.Instr.Slli _ | Isa.Instr.Srli _ | Isa.Instr.Srai _
  | Isa.Instr.Sll _ | Isa.Instr.Srl _ | Isa.Instr.Sra _ | Isa.Instr.Src _ ->
    true
  | _ -> false

let observe t (e : Sim.Event.t) =
  let p = Blocks.default in
  let cycles = e.Sim.Event.cycles in
  let fcycles = float_of_int cycles in
  (* Clock tree runs every cycle. *)
  charge t "clock" (p.Blocks.clock_tree *. fcycles);
  let word = e.Sim.Event.fetch.Sim.Event.fword in
  (* Operand buses. *)
  let bus1, bus2 =
    match e.Sim.Event.src_values with
    | [] -> (t.prev_bus1, t.prev_bus2)
    | [ x ] -> (x, t.prev_bus2)
    | x :: y :: _ -> (x, y)
  in
  let result_value =
    match e.Sim.Event.result with Some r -> r | None -> t.prev_result
  in
  let read_regs =
    List.map Isa.Reg.index (Isa.Instr.uses e.Sim.Event.instr)
  in
  let write_reg =
    match Isa.Instr.defs e.Sim.Event.instr with
    | r :: _ -> Some (Isa.Reg.index r)
    | [] -> None
  in
  (* RTL evaluation of every cycle: the issue edge latches the new
     values; hold (stall/penalty) cycles re-evaluate with unchanged
     inputs, like a compiled-RTL simulator. *)
  let latch_toggles = ref 0 in
  for k = 0 to cycles - 1 do
    latch_toggles :=
      !latch_toggles
      + Rtl.cycle_activity t.rtl ~word ~pc:e.Sim.Event.fetch.Sim.Event.fpc
          ~op1:bus1 ~op2:bus2 ~result:result_value;
    Rtl.idle_unit_evaluations t.rtl;
    let commit =
      match (k, e.Sim.Event.result, write_reg) with
      | (0, Some v, Some r) -> Some (r, v)
      | (_, _, _) -> None
    in
    Rtl.regfile_cells t.rtl ~write:commit
  done;
  charge t "pipeline"
    ((p.Blocks.pipeline_base *. fcycles)
     +. (p.Blocks.pipeline_per_toggle *. float_of_int !latch_toggles));
  if cycles > 1 then
    charge t "stall" (p.Blocks.stall_cycle *. float_of_int (cycles - 1));
  (* Fetch path. *)
  let word_toggles = Activity.toggles t.prev_word word in
  charge t "fetch"
    (p.Blocks.fetch_decode
     +. (p.Blocks.fetch_bus_per_toggle *. float_of_int word_toggles));
  t.prev_word <- word;
  let cache_energy (a : Rtl.access_activity) =
    (p.Blocks.cache_decode_per_toggle *. float_of_int a.Rtl.decode_toggles)
    +. (p.Blocks.cache_tag_per_toggle *. float_of_int a.Rtl.tag_toggles)
    +. (p.Blocks.cache_array_per_toggle *. float_of_int a.Rtl.array_toggles)
  in
  (if e.Sim.Event.fetch.Sim.Event.funcached then
     charge t "uncached" p.Blocks.uncached_access
   else begin
     let act = Rtl.icache_activity t.rtl e.Sim.Event.fetch.Sim.Event.fpc in
     charge t "icache" (p.Blocks.icache_access +. cache_energy act);
     if not e.Sim.Event.fetch.Sim.Event.fhit then
       charge t "icache" p.Blocks.icache_miss
   end);
  (* Register file ports and port decoders. *)
  let nreads = List.length e.Sim.Event.src_values in
  let dec_toggles =
    Rtl.regfile_activity t.rtl ~reads:read_regs ~write:write_reg
  in
  charge t "regfile"
    ((p.Blocks.regfile_read *. float_of_int nreads)
     +. (p.Blocks.regfile_decoder_per_toggle *. float_of_int dec_toggles));
  (match e.Sim.Event.result with
   | Some _ -> charge t "regfile" p.Blocks.regfile_write
   | None -> ());
  let bus_toggles =
    Activity.toggles t.prev_bus1 bus1 + Activity.toggles t.prev_bus2 bus2
  in
  charge t "buses"
    (p.Blocks.operand_bus_per_toggle *. float_of_int bus_toggles);
  t.prev_bus1 <- bus1;
  t.prev_bus2 <- bus2;
  (* Result bus. *)
  (match e.Sim.Event.result with
   | Some r ->
     charge t "buses"
       (p.Blocks.result_bus_per_toggle
        *. float_of_int (Activity.toggles t.prev_result r));
     t.prev_result <- r
   | None -> ());
  (* Execution units. *)
  (match e.Sim.Event.instr with
   | Isa.Instr.Binop (op, _, _, _) when is_mul_op op ->
     let togs = Gates.mult_eval t.base_mult bus1 bus2 in
     charge t "mult" (p.Blocks.mult_per_toggle *. float_of_int togs)
   | i when is_shift i ->
     let togs = Gates.shifter_eval t.base_shifter bus1 (bus2 land 31) in
     charge t "shifter" (p.Blocks.shifter_per_toggle *. float_of_int togs)
   | Isa.Instr.Custom _ -> ()
   | _ ->
     let togs = Gates.adder_eval t.alu bus1 bus2 in
     charge t "alu" (p.Blocks.alu_per_toggle *. float_of_int togs));
  (* Memory data path. *)
  (match e.Sim.Event.mem with
   | Some mi ->
     if mi.Sim.Event.muncached then charge t "uncached" p.Blocks.uncached_access
     else begin
       let act =
         Rtl.dcache_activity t.rtl mi.Sim.Event.maddr
           ~value:mi.Sim.Event.mvalue
       in
       charge t "dcache" (p.Blocks.dcache_access +. cache_energy act);
       if not mi.Sim.Event.mhit then charge t "dcache" p.Blocks.dcache_miss
     end
   | None -> ());
  (* Control. *)
  (match e.Sim.Event.taken with
   | Some taken ->
     charge t "branch" p.Blocks.branch_unit;
     if taken then charge t "branch" p.Blocks.taken_flush
   | None -> ());
  if e.Sim.Event.interlock then
    charge t "interlock"
      (p.Blocks.interlock_cycle *. float_of_int e.Sim.Event.stall_cycles);
  if e.Sim.Event.window_event then charge t "window" p.Blocks.window_op;
  (* Custom hardware. *)
  (match e.Sim.Event.custom with
   | Some info ->
     let name = info.Sim.Event.cinsn.Tie.Compile.def.Tie.Spec.iname in
     let units =
       match Hashtbl.find_opt t.insn_units name with
       | Some u -> u
       | None -> [||]
     in
     let inputs =
       info.Sim.Event.coperands
       @ (match info.Sim.Event.cresult with Some r -> [ r ] | None -> [])
       @ info.Sim.Event.cstates
     in
     Array.iter
       (fun u ->
         charge t "custom_active"
           (custom_unit_energy ~cycles:e.Sim.Event.busy_cycles ~inputs u))
       units
   | None ->
     (* Side effect: base instructions driving the operand buses toggle
        the bus-facing custom hardware. *)
     if e.Sim.Event.src_values <> [] && Array.length t.bus_units > 0 then
       Array.iter
         (fun u ->
           let active =
             custom_unit_energy ~cycles:1 ~inputs:[ bus1; bus2 ] u
           in
           charge t "custom_idle" (p.Blocks.custom_idle_fraction *. active))
         t.bus_units)

let observer t : Sim.Cpu.observer = fun e -> observe t e

let total_energy t =
  Hashtbl.fold (fun _ r acc -> acc +. !r) t.totals 0.0

let evaluations t = Rtl.evaluations t.rtl

let breakdown t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.totals []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let reset t =
  Hashtbl.reset t.totals;
  t.prev_word <- 0;
  t.prev_bus1 <- 0;
  t.prev_bus2 <- 0;
  t.prev_result <- 0;
  (* Fresh RTL state, including the shadow caches: a reset estimator must
     stay in lockstep with a freshly created simulator. *)
  t.rtl <- Rtl.create t.cfg;
  t.alu <- Gates.adder_create 32;
  t.base_shifter <- Gates.shifter_create 32;
  t.base_mult <- Gates.mult_create 32;
  Hashtbl.iter
    (fun _ units ->
      Array.iteri (fun i u -> units.(i) <- unit_for u.comp) units)
    t.insn_units;
  Array.iteri (fun i u -> t.bus_units.(i) <- unit_for u.comp) t.bus_units

let estimate_program ?config ?extension asm =
  let cfg = Option.value config ~default:Sim.Config.default in
  let est = create ?extension cfg in
  let cpu, _outcome =
    Sim.Backend.run_program ~config:cfg ?extension
      ~observers:[ observer est ] asm
  in
  (total_energy est, cpu)
