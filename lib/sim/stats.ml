type t = {
  mutable arith_cycles : int;
  mutable load_cycles : int;
  mutable store_cycles : int;
  mutable jump_cycles : int;
  mutable branch_taken_cycles : int;
  mutable branch_untaken_cycles : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable uncached_fetches : int;
  mutable interlocks : int;
  mutable stall_cycles : int;
  mutable custom_regfile_cycles : int;
  mutable custom_cycles : int;
  mutable instructions : int;
  mutable total_cycles : int;
  taken_penalty : int;
}

let create (cfg : Config.t) =
  { arith_cycles = 0;
    load_cycles = 0;
    store_cycles = 0;
    jump_cycles = 0;
    branch_taken_cycles = 0;
    branch_untaken_cycles = 0;
    icache_misses = 0;
    dcache_misses = 0;
    uncached_fetches = 0;
    interlocks = 0;
    stall_cycles = 0;
    custom_regfile_cycles = 0;
    custom_cycles = 0;
    instructions = 0;
    total_cycles = 0;
    taken_penalty = cfg.Config.branch_taken_penalty }

(* Class cycles of [count] retirements of one static instruction,
   [taken] of them taken: the part of the fold both backends share.
   The interpreter adds each retirement as it happens ({!observe}); the
   threaded backend counts retirements per slot and settles them in
   bulk, which is exact because every term is an integer. *)
let add_class t clazz ~count ~taken ~busy ~regfile =
  t.instructions <- t.instructions + count;
  match clazz with
  | Isa.Instr.Arith_class -> t.arith_cycles <- t.arith_cycles + count
  | Isa.Instr.Load_class -> t.load_cycles <- t.load_cycles + count
  | Isa.Instr.Store_class -> t.store_cycles <- t.store_cycles + count
  | Isa.Instr.Jump_class ->
    t.jump_cycles <- t.jump_cycles + (count * (1 + t.taken_penalty))
  | Isa.Instr.Branch_class ->
    t.branch_taken_cycles <-
      t.branch_taken_cycles + (taken * (1 + t.taken_penalty));
    t.branch_untaken_cycles <- t.branch_untaken_cycles + (count - taken)
  | Isa.Instr.Custom_class ->
    t.custom_cycles <- t.custom_cycles + (count * busy);
    (* Custom instructions are fully pipelined, so a regfile-accessing
       custom instruction occupies the base-core issue/decode/regfile
       path for one cycle regardless of its execute latency. *)
    if regfile then
      t.custom_regfile_cycles <- t.custom_regfile_cycles + count

let touches_regfile (i : Tie.Compile.compiled_insn) =
  i.Tie.Compile.regfile_reads > 0 || i.Tie.Compile.writes_regfile

let observe t (e : Event.t) =
  add_class t e.Event.clazz ~count:1
    ~taken:(match e.Event.taken with Some true -> 1 | Some false | None -> 0)
    ~busy:e.Event.busy_cycles
    ~regfile:
      (match e.Event.custom with
       | Some info -> touches_regfile info.Event.cinsn
       | None -> false);
  t.total_cycles <- t.total_cycles + e.Event.cycles;
  let f = e.Event.fetch in
  if f.Event.funcached then t.uncached_fetches <- t.uncached_fetches + 1
  else if not f.Event.fhit then t.icache_misses <- t.icache_misses + 1;
  (match e.Event.mem with
   | Some mi when (not mi.Event.muncached) && not mi.Event.mhit ->
     t.dcache_misses <- t.dcache_misses + 1
   | Some _ | None -> ());
  if e.Event.interlock || e.Event.window_event then
    t.interlocks <- t.interlocks + 1;
  t.stall_cycles <- t.stall_cycles + e.Event.stall_cycles

let observer t e = observe t e

let copy t = { t with instructions = t.instructions }

let reset t =
  t.arith_cycles <- 0;
  t.load_cycles <- 0;
  t.store_cycles <- 0;
  t.jump_cycles <- 0;
  t.branch_taken_cycles <- 0;
  t.branch_untaken_cycles <- 0;
  t.icache_misses <- 0;
  t.dcache_misses <- 0;
  t.uncached_fetches <- 0;
  t.interlocks <- 0;
  t.stall_cycles <- 0;
  t.custom_regfile_cycles <- 0;
  t.custom_cycles <- 0;
  t.instructions <- 0;
  t.total_cycles <- 0

(* The [sim_*] retirement counters, each registered on its first bump. *)
let metrics =
  List.map
    (fun name -> lazy (Obs.Metrics.counter name))
    [ "sim_instructions_total"; "sim_cycles_total"; "sim_stall_cycles_total";
      "sim_interlocks_total"; "sim_icache_misses_total";
      "sim_dcache_misses_total" ]
  @ List.map
      (fun cls ->
        lazy
          (Obs.Metrics.counter ~labels:[ ("class", cls) ]
             "sim_class_instructions_total"))
      [ "arith"; "load"; "store"; "jump"; "branch"; "custom" ]

(* Retirements per class follow from the class cycles (a jump and a
   taken branch add [1 + taken_penalty] each), custom ones from the
   remainder. *)
let record_metrics ~before after =
  let d f = f after - f before and p = 1 + after.taken_penalty in
  let n = d (fun s -> s.instructions)
  and ar = d (fun s -> s.arith_cycles)
  and ld = d (fun s -> s.load_cycles)
  and st = d (fun s -> s.store_cycles)
  and jp = d (fun s -> s.jump_cycles) / p
  and br =
    (d (fun s -> s.branch_taken_cycles) / p)
    + d (fun s -> s.branch_untaken_cycles)
  in
  List.iter2
    (fun c by -> if by > 0 then Obs.Metrics.inc ~by (Lazy.force c))
    metrics
    [ n; d (fun s -> s.total_cycles); d (fun s -> s.stall_cycles);
      d (fun s -> s.interlocks); d (fun s -> s.icache_misses);
      d (fun s -> s.dcache_misses); ar; ld; st; jp; br;
      n - ar - ld - st - jp - br ]
