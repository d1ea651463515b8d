type case = {
  case_name : string;
  asm : Isa.Program.asm;
  extension : Tie.Compile.compiled option;
  digest_slot : Digest.t option Atomic.t;
}

let case ?extension case_name asm =
  { case_name; asm; extension; digest_slot = Atomic.make None }

(* Marshal gives a canonical byte string for these pure immutable values
   (the code words, not the unassembled source, whose labels and symbol
   table carry no semantics).  Threads sharing a case may race to fill
   the slot: every racer computes the same string and all read back the
   one that won. *)
let digest c =
  match Atomic.get c.digest_slot with
  | Some d -> d
  | None ->
    let { Isa.Program.code; entry; image; _ } = c.asm in
    let code = Array.map (fun (s : Isa.Program.slot) -> (s.addr, s.word)) code in
    let spec = Option.map Tie.Compile.spec c.extension in
    let d = Digest.string (Marshal.to_string (code, entry, image, spec) []) in
    ignore (Atomic.compare_and_set c.digest_slot None (Some d));
    Option.get (Atomic.get c.digest_slot)

type profile = {
  variables : float array;
  cycles : int;
  instructions : int;
  stall_cycles : int;
  outcome : Sim.Cpu.outcome;
  cpu : Sim.Cpu.t;
}

let vi_arith = Variables.index Variables.Arith
let vi_load = Variables.index Variables.Load
let vi_store = Variables.index Variables.Store
let vi_jump = Variables.index Variables.Jump
let vi_branch_taken = Variables.index Variables.Branch_taken
let vi_branch_untaken = Variables.index Variables.Branch_untaken
let vi_icache_miss = Variables.index Variables.Icache_miss
let vi_dcache_miss = Variables.index Variables.Dcache_miss
let vi_uncached_fetch = Variables.index Variables.Uncached_fetch
let vi_interlock = Variables.index Variables.Interlock
let vi_custom_side = Variables.index Variables.Custom_side

let category_slots =
  Array.of_list
    (List.map
       (fun cat ->
         (Variables.index (Variables.Category cat),
          Tie.Component.category_index cat))
       Tie.Component.all_categories)

let vector (st : Sim.Stats.t) (acc : float array) =
  let v = Array.make Variables.count 0.0 in
  let f = float_of_int in
  v.(vi_arith) <- f st.Sim.Stats.arith_cycles;
  v.(vi_load) <- f st.Sim.Stats.load_cycles;
  v.(vi_store) <- f st.Sim.Stats.store_cycles;
  v.(vi_jump) <- f st.Sim.Stats.jump_cycles;
  v.(vi_branch_taken) <- f st.Sim.Stats.branch_taken_cycles;
  v.(vi_branch_untaken) <- f st.Sim.Stats.branch_untaken_cycles;
  v.(vi_icache_miss) <- f st.Sim.Stats.icache_misses;
  v.(vi_dcache_miss) <- f st.Sim.Stats.dcache_misses;
  v.(vi_uncached_fetch) <- f st.Sim.Stats.uncached_fetches;
  v.(vi_interlock) <- f st.Sim.Stats.interlocks;
  v.(vi_custom_side) <- f st.Sim.Stats.custom_regfile_cycles;
  Array.iter (fun (vi, ci) -> v.(vi) <- acc.(ci)) category_slots;
  v

let variables_of_tally tally =
  vector (Sim.Tally.stats tally) (Sim.Tally.acc tally)

let variables_of_stats (st : Sim.Stats.t) (res : Resource.t) =
  vector st (Resource.totals res)

let profile ?(config = Sim.Config.default) ?complexity ?hook c =
  Obs.Trace.with_span ~cat:"extract" ("extract:" ^ c.case_name) (fun () ->
      let tally =
        Sim.Tally.create
          ~weights:(Resource.weights ?complexity c.extension)
          config
      in
      let cpu, outcome =
        Obs.Trace.with_span ~cat:"sim" ("simulate:" ^ c.case_name) (fun () ->
            Sim.Backend.run_program ~config ?extension:c.extension ~tally
              ?hook c.asm)
      in
      { variables = variables_of_tally tally;
        cycles = Sim.Cpu.cycles cpu;
        instructions = Sim.Cpu.instructions cpu;
        stall_cycles = (Sim.Tally.stats tally).Sim.Stats.stall_cycles;
        outcome;
        cpu })

let variable p id = p.variables.(Variables.index id)

let pp_profile ppf p =
  Format.fprintf ppf "@[<v>%d instructions, %d cycles@," p.instructions
    p.cycles;
  List.iter
    (fun id ->
      let x = p.variables.(Variables.index id) in
      if x <> 0.0 then
        Format.fprintf ppf "%-12s %12.2f@," (Variables.name id) x)
    Variables.all;
  Format.fprintf ppf "@]"
