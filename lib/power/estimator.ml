(* The compiled reference estimator.  It charges exactly the energies of
   {!Oracle}, bit for bit, but splits the work the oracle redoes on every
   event into what is static and what is data:

   - A plan per static instruction holds everything the oracle
     re-derives per event: the opcode-decoder wordline, the PC
     incrementer's carry vector, the register-port wordlines and read
     count, the execution unit and the custom components.  {!hook}
     indexes plans by code slot; {!observe} keys them by fetch pc and
     validates them by the fetched word and the instruction.
   - Nets whose inputs repeat are not re-evaluated.  A hold cycle only
     shifts the pipeline registers, so their toggles over a whole event
     follow in closed form from the distances between adjacent stages,
     which are all the model needs to keep of stages 1..4.  A cache
     access to the line the previous access hit drives the same set
     decoder and tag comparators as before (and, for a fetch, the same
     array latches).  Either way [evals] still advances by every net
     {!Rtl} would evaluate.
   - Data nets are evaluated in closed form on unboxed state: packed
     pipeline fields, per-way tag comparators read straight from the
     shadow cache, and the array latches' toggles from the change of
     the line pattern alone.
   - Energy is added into a float array, one slot per block, in the
     oracle's per-event order; a block's name is registered at its first
     charge in a table built like the oracle's, so folding it visits the
     blocks in the oracle's order and [total_energy] rounds the same. *)

(* --- Energy blocks ----------------------------------------------------------- *)

let names =
  [| "clock"; "pipeline"; "stall"; "fetch"; "uncached"; "icache"; "regfile";
     "buses"; "mult"; "shifter"; "alu"; "dcache"; "branch"; "interlock";
     "window"; "custom_active"; "custom_idle" |]

let b_clock = 0
let b_pipeline = 1
let b_stall = 2
let b_fetch = 3
let b_uncached = 4
let b_icache = 5
let b_regfile = 6
let b_buses = 7
let b_mult = 8
let b_shifter = 9
let b_alu = 10
let b_dcache = 11
let b_branch = 12
let b_interlock = 13
let b_window = 14
let b_custom_active = 15
let b_custom_idle = 16

(* --- Net primitives ------------------------------------------------------------ *)

(* {!Activity.popcount} and {!Activity.toggles}, defined here so the
   hot path inlines them instead of calling through a closure: the same
   SWAR count, of [v land max_int] (the 62-bit mask they apply). *)
let[@inline] pop v =
  let x = v land max_int in
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let[@inline] toggles a b = pop (a lxor b)

let m24 = 0xff_ffff
let m32 = 0xffff_ffff
let m62 = 0x3fff_ffff_ffff_ffff

(* A one-hot decoder moving from wordline [prev] to [idx]; -1 drives
   none (every index here is in range otherwise). *)
let[@inline] onehot prev idx =
  if prev = idx then 0
  else (if prev >= 0 then 1 else 0) + if idx >= 0 then 1 else 0

(* Elementary evaluations {!Rtl} performs per clock cycle: five stages of
   pipeline registers (24 + 4 x 32 bits), the PC incrementer (2 x 32),
   the opcode decoder (128), the idle execution units
   (32 x 32 + 31 x 64 + 5 x 32 + 6 x 32) and the 64 x 32 register-file
   plane; and per event, the three register-port decoders. *)
let cycle_evals =
  (5 * (24 + (4 * 32))) + (2 * 32) + 128
  + ((32 * 32) + (31 * 64) + (5 * 32) + (6 * 32))
  + (64 * 32)

let port_evals = 3 * 64

(* --- Caches -------------------------------------------------------------------- *)

type cache_nets = {
  cache : Sim.Cache.t;           (* shadow cache, in lockstep with the ISS *)
  tag_mask : int;
  access_evals : int;            (* set decoder + comparators + array *)
  full_chunks : int;             (* 62-bit array latch chunks per line *)
  rem_mask : int;                (* the last, partial chunk (0 = none) *)
  mutable set_idx : int;
  tag_vals : int array;          (* per-way XNOR comparator nets *)
  mutable last_hit : bool;       (* the previous access hit *)
  mutable primed : bool;         (* array latches hold [pattern]'s chunks *)
  mutable pattern : int;
  (* the last access's toggles *)
  mutable dec : int;
  mutable tag : int;
  mutable arr : int;
}

let cache_nets_create cfg =
  let cache = Sim.Cache.create cfg in
  let tag_width = Sim.Cache.tag_bits cache in
  let ways = Sim.Cache.ways cache in
  let line_bits = Sim.Cache.line_bytes cache * 8 in
  { cache;
    tag_mask = Activity.mask tag_width;
    access_evals = Sim.Cache.sets cache + (ways * tag_width) + line_bits;
    full_chunks = line_bits / 62;
    rem_mask = Activity.mask (line_bits mod 62);
    set_idx = -1;
    tag_vals = Array.make ways 0;
    last_hit = false;
    primed = false;
    pattern = 0;
    dec = 0;
    tag = 0;
    arr = 0 }

(* {!Rtl}'s deterministic pseudo-contents of a line. *)
let line_pattern line =
  let x = line * 0x9e3779b1 in
  (x lxor (x lsr 13)) land max_int

(* One access, leaving its toggles in [dec]/[tag]/[arr].  Chunk [k] of
   the array latches holds [pattern lxor (62 k * 0x5bd1e995)], so once
   every chunk has been written a new pattern toggles each chunk by the
   bits the two patterns differ in. *)
let[@inline] cache_access n addr data =
  let c = n.cache in
  let line = addr lsr c.Sim.Cache.line_shift in
  if line = c.Sim.Cache.last_line && n.last_hit then begin
    (* The previous access hit this line: the set decoder, the way tags
       and hence every comparator net are unchanged. *)
    Sim.Cache.repeat_hit c;
    n.dec <- 0;
    n.tag <- 0
  end
  else begin
    let set = line land (c.Sim.Cache.nsets - 1) in
    let tag = line lsr c.Sim.Cache.set_shift in
    n.dec <- onehot n.set_idx set;
    n.set_idx <- set;
    let ways = c.Sim.Cache.nways in
    let base = set * ways in
    let tt = ref 0 in
    for w = 0 to ways - 1 do
      let stored = Array.unsafe_get c.Sim.Cache.tags (base + w) in
      let x = if stored < 0 then tag else tag lxor stored in
      tt := !tt + pop ((Array.unsafe_get n.tag_vals w lxor x) land n.tag_mask);
      Array.unsafe_set n.tag_vals w x
    done;
    n.tag <- !tt;
    n.last_hit <- Sim.Cache.access c addr = Sim.Cache.Hit
  end;
  let pattern = data lxor line_pattern line in
  if n.primed then begin
    let d = n.pattern lxor pattern in
    n.arr <- (n.full_chunks * pop (d land m62)) + pop (d land n.rem_mask)
  end
  else begin
    (* Every latch starts at zero. *)
    let k = ref 0 in
    for j = 0 to n.full_chunks - 1 do
      k := !k + pop ((pattern lxor (62 * j * 0x5bd1e995)) land m62)
    done;
    n.arr <-
      !k
      + pop
          ((pattern lxor (62 * n.full_chunks * 0x5bd1e995)) land n.rem_mask);
    n.primed <- true
  end;
  n.pattern <- pattern

(* --- Execution units in closed form ------------------------------------------- *)

(* {!Gates}' ripple adder.  Bit i of [(a + b) lxor a lxor b] is the carry
   into bit i, so shifting it down one place gives the carry-out vector,
   the top carry included, while the sum fits a native int. *)
type adder = {
  a_mask : int;
  mutable a_in1 : int;
  mutable a_in2 : int;
  mutable a_carry : int;
  mutable a_sum : int;
}

let adder_create width =
  { a_mask = Activity.mask width; a_in1 = 0; a_in2 = 0; a_carry = 0; a_sum = 0 }

let[@inline] adder_eval u a b =
  let a = a land u.a_mask and b = b land u.a_mask in
  let s = a + b in
  let carry = (s lxor a lxor b) lsr 1 and sum = s land u.a_mask in
  let t =
    pop (u.a_in1 lxor a) + pop (u.a_in2 lxor b) + pop (u.a_carry lxor carry)
    + pop (u.a_sum lxor sum)
  in
  u.a_in1 <- a;
  u.a_in2 <- b;
  u.a_carry <- carry;
  u.a_sum <- sum;
  t

(* {!Gates}' array multiplier.  Its rows and compression levels are
   functions of the last operands: row i is [a] where bit i of [b] is
   set, level i is 0, [a] or [(a lsl 1) land mask] as one or both bits
   of pair (2i, 2i+1) are set.  So their toggles count row and pair
   kinds of the old and new [b] and weigh each kind change by the
   popcount of the values it swaps. *)
type mult = {
  m_mask : int;
  m_pairs : int;                 (* bit 2i of every compression pair *)
  m_out_mask : int;
  mutable m_a : int;
  mutable m_b : int;
  mutable m_out : int;
}

let mult_create width =
  let pairs = ref 0 in
  for i = 0 to max 1 (width / 2) - 1 do
    pairs := !pairs lor (1 lsl (2 * i))
  done;
  { m_mask = Activity.mask width;
    m_pairs = !pairs;
    m_out_mask = Activity.mask (min 62 (2 * width));
    m_a = 0;
    m_b = 0;
    m_out = 0 }

let[@inline] mult_eval u a b =
  let m = u.m_mask in
  let a = a land m and b = b land m in
  let ap = u.m_a and bp = u.m_b in
  let rows =
    (pop (bp land lnot b) * pop ap)
    + (pop (b land lnot bp) * pop a)
    + (pop (bp land b) * pop (ap lxor a))
  in
  let pairs = u.m_pairs in
  let lo = bp land pairs and hi = (bp lsr 1) land pairs in
  let p1 = lo lxor hi and p2 = lo land hi in
  let p0 = pairs land lnot (lo lor hi) in
  let lo = b land pairs and hi = (b lsr 1) land pairs in
  let n1 = lo lxor hi and n2 = lo land hi in
  let n0 = pairs land lnot (lo lor hi) in
  let a2 = (a lsl 1) land m and ap2 = (ap lsl 1) land m in
  let levels =
    (pop (p0 land n1) * pop a)
    + (pop (p0 land n2) * pop a2)
    + (pop (p1 land n0) * pop ap)
    + (pop (p1 land n1) * pop (ap lxor a))
    + (pop (p1 land n2) * pop (ap lxor a2))
    + (pop (p2 land n0) * pop ap2)
    + (pop (p2 land n1) * pop (ap2 lxor a))
    + (pop (p2 land n2) * pop (ap2 lxor a2))
  in
  let out = a * b land u.m_out_mask in
  let t = rows + levels + pop (u.m_out lxor out) in
  u.m_a <- a;
  u.m_b <- b;
  u.m_out <- out;
  t

(* Adders up to 60 bits and multipliers of 2 to 60 bits run in closed
   form (wider values could reach the sign bit); every other unit is
   evaluated by its {!Gates} model. *)
type model = Adder of adder | Mult of mult | Gate of Gates.component

let model_for (c : Tie.Component.t) =
  let w = c.Tie.Component.width in
  match c.Tie.Component.category with
  | Tie.Component.Adder | Tie.Component.Tie_add | Tie.Component.Tie_csa
    when w <= 60 ->
    Adder (adder_create w)
  | Tie.Component.Multiplier | Tie.Component.Tie_mult | Tie.Component.Tie_mac
    when w >= 2 && w <= 60 ->
    Mult (mult_create w)
  | _ -> Gate (Gates.component_create c)

let[@inline] model_eval u a b =
  match u with
  | Adder x -> adder_eval x a b
  | Mult x -> mult_eval x a b
  | Gate g -> Gates.component_eval g a b

(* --- Custom hardware ---------------------------------------------------------- *)

type comp_unit = {
  comp : Tie.Component.t;
  mutable model : model;
  scale : float;                 (* per-cycle active energy x complexity *)
  denom : float;                 (* expected toggles, at least 1 *)
}

let unit_for comp =
  { comp;
    model = model_for comp;
    scale =
      Blocks.default.Blocks.custom_active comp.Tie.Component.category
      *. Tie.Component.complexity comp;
    denom = Float.max 1.0 (Blocks.expected_toggles comp) }

(* {!Oracle}'s custom-unit energy: active energy scaled by the clamped
   data-dependent activity factor, over [cycles]. *)
let[@inline] unit_energy ~swing u a b cycles =
  let togs = model_eval u.model a b in
  let af =
    Float.min (1.0 +. swing)
      (Float.max (1.0 -. swing) (float_of_int togs /. u.denom))
  in
  u.scale *. af *. float_of_int cycles

(* The components one custom instruction drives, or the bus-facing ones
   every base instruction with operands drives: all from the same two
   inputs, so equal components hold equal nets for ever.  Each distinct
   one is evaluated once per event, and its energy charged at every
   position it holds, in the oracle's order. *)
type bank = {
  models : comp_unit array;      (* the distinct components *)
  seq : int array;               (* every component, as an index in [models] *)
  energy : float array;          (* this event's energy per distinct one *)
}

let bank_create comps =
  let distinct = ref [] in
  let seq =
    List.map
      (fun c ->
        match List.find_opt (fun (d, _) -> Tie.Component.equal c d) !distinct with
        | Some (_, i) -> i
        | None ->
          let i = List.length !distinct in
          distinct := (c, i) :: !distinct;
          i)
      comps
  in
  let models = Array.of_list (List.rev_map (fun (c, _) -> unit_for c) !distinct) in
  { models; seq = Array.of_list seq; energy = Array.make (Array.length models) 0.0 }

let empty_bank = { models = [||]; seq = [||]; energy = [||] }

let bank_eval ~swing bank a b cycles =
  for i = 0 to Array.length bank.models - 1 do
    bank.energy.(i) <- unit_energy ~swing bank.models.(i) a b cycles
  done

(* --- Plans --------------------------------------------------------------------- *)

type exec = Alu | Shifter | Mult | No_unit (* custom instructions *)

type plan = {
  pc : int;
  word : int;
  instr : Isa.Instr.t;
  opcode : int;                  (* opcode-decoder wordline *)
  carry : int;                   (* PC-incrementer carry vector *)
  rd0 : int;                     (* read-port wordlines, -1 = none *)
  rd1 : int;
  wr : int;                      (* write-port wordline *)
  nreads : int;
  exec : exec;
  control : bool;                (* drives the branch unit *)
  units : bank;                  (* a custom instruction's components *)
}

let no_plan =
  { pc = -1; word = -1; instr = Isa.Instr.Nop; opcode = -1; carry = 0;
    rd0 = -1; rd1 = -1; wr = -1; nreads = 0; exec = No_unit; control = false;
    units = empty_bank }

let plan_slots = 4096

let exec_of (i : Isa.Instr.t) =
  match i with
  | Isa.Instr.Binop ((Isa.Instr.Mul16s | Isa.Instr.Mul16u | Isa.Instr.Mull), _, _, _)
    ->
    Mult
  | Isa.Instr.Slli _ | Isa.Instr.Srli _ | Isa.Instr.Srai _ | Isa.Instr.Sll _
  | Isa.Instr.Srl _ | Isa.Instr.Sra _ | Isa.Instr.Src _ ->
    Shifter
  | Isa.Instr.Custom _ -> No_unit
  | _ -> Alu

(* --- Estimator ----------------------------------------------------------------- *)

type t = {
  cfg : Sim.Config.t;
  insn_units : (string, bank) Hashtbl.t;
  bus_units : bank;
  mutable plans : plan array;
  (* [observe]'s, direct-mapped by pc; allocated at the first [observe],
     since hook-fed runs never read it *)
  energy : float array;          (* per block *)
  mutable seen : int;            (* blocks charged so far, one bit each *)
  order : (string, int) Hashtbl.t;
  mutable evals : int;
  (* stage 0 of the pipeline registers, masked and packed: word and pc,
     the two operands, the result *)
  mutable s_wp : int;
  mutable s_o1 : int;
  mutable s_o2 : int;
  mutable s_r : int;
  (* toggle distances between stages 0-1, 1-2, 2-3, 3-4 *)
  mutable d0 : int;
  mutable d1 : int;
  mutable d2 : int;
  mutable d3 : int;
  mutable pc_value : int;
  mutable pc_carry : int;
  mutable opcode : int;
  mutable rd0 : int;
  mutable rd1 : int;
  mutable wr : int;
  mutable inets : cache_nets;
  mutable dnets : cache_nets;
  mutable alu : adder;
  mutable base_shifter : Gates.shifter_state;
  mutable base_mult : mult;
  mutable prev_word : int;
  mutable prev_bus1 : int;
  mutable prev_bus2 : int;
  mutable prev_result : int;
  scratch : Sim.Cpu.channel;     (* an event unpacked for [observe] *)
}

let create ?extension cfg =
  let insn_units = Hashtbl.create 16 in
  let bus_units =
    match extension with
    | None -> empty_bank
    | Some ext ->
      List.iter
        (fun ci ->
          Hashtbl.replace insn_units ci.Tie.Compile.def.Tie.Spec.iname
            (bank_create ci.Tie.Compile.components))
        (Tie.Compile.instructions ext);
      bank_create (Tie.Compile.bus_facing_components ext)
  in
  { cfg;
    insn_units;
    bus_units;
    plans = [||];
    energy = Array.make (Array.length names) 0.0;
    seen = 0;
    order = Hashtbl.create 24;
    evals = 0;
    s_wp = 0;
    s_o1 = 0;
    s_o2 = 0;
    s_r = 0;
    d0 = 0;
    d1 = 0;
    d2 = 0;
    d3 = 0;
    pc_value = 0;
    pc_carry = 0;
    opcode = -1;
    rd0 = -1;
    rd1 = -1;
    wr = -1;
    inets = cache_nets_create cfg.Sim.Config.icache;
    dnets = cache_nets_create cfg.Sim.Config.dcache;
    alu = adder_create 32;
    base_shifter = Gates.shifter_create 32;
    base_mult = mult_create 32;
    prev_word = 0;
    prev_bus1 = 0;
    prev_bus2 = 0;
    prev_result = 0;
    scratch = Sim.Cpu.new_channel () }

let register t b =
  t.seen <- t.seen lor (1 lsl b);
  Hashtbl.replace t.order names.(b) b

let[@inline] charge t b e =
  if t.seen land (1 lsl b) <> 0 then
    Array.unsafe_set t.energy b (Array.unsafe_get t.energy b +. e)
  else begin
    register t b;
    Array.unsafe_set t.energy b e
  end

let plan_of t pc word instr =
  let port r = Isa.Reg.index r land 63 in
  let uses = Isa.Instr.uses instr in
  let rd0, rd1 =
    match uses with
    | [] -> (-1, -1)
    | [ r ] -> (port r, -1)
    | r1 :: r2 :: _ -> (port r1, port r2)
  in
  let pc32 = pc land m32 in
  { pc;
    word;
    instr;
    opcode = (word lsr 17) land 0x7f;
    carry = (lnot pc32 land (pc32 + 1)) - 1;
    rd0;
    rd1;
    wr = (match Isa.Instr.defs instr with r :: _ -> port r | [] -> -1);
    nreads = List.length uses;
    exec = exec_of instr;
    control = Isa.Instr.is_control instr;
    units =
      (match instr with
       | Isa.Instr.Custom call -> (
         match Hashtbl.find_opt t.insn_units call.Isa.Instr.cname with
         | Some u -> u
         | None -> empty_bank)
       | _ -> empty_bank) }

let[@inline] plan t pc word instr =
  let i = pc land (plan_slots - 1) in
  let pl = Array.unsafe_get t.plans i in
  if pl.pc = pc && pl.word = word && pl.instr == instr then pl
  else begin
    let pl = plan_of t pc word instr in
    Array.unsafe_set t.plans i pl;
    pl
  end

(* The pipeline registers over an event's [cycles] clock edges: the
   issue edge latches the new stage-0 values, each hold edge shifts the
   registers again with the same inputs.  Edge k toggles the stage-0
   distance [h] plus the first [4 - k] stage distances, so from edge 5
   on the registers are full of one value and nothing toggles. *)
let[@inline] pipeline_toggles t ~word ~pc ~op1 ~op2 ~result cycles =
  let wp = (word land m24) lor ((pc land m32) lsl 24) in
  let o1 = op1 land m32 and o2 = op2 land m32 and r = result land m32 in
  let h =
    pop (t.s_wp lxor wp) + pop (t.s_o1 lxor o1) + pop (t.s_o2 lxor o2)
    + pop (t.s_r lxor r)
  in
  t.s_wp <- wp;
  t.s_o1 <- o1;
  t.s_o2 <- o2;
  t.s_r <- r;
  let d0 = t.d0 and d1 = t.d1 and d2 = t.d2 and d3 = t.d3 in
  let toggles =
    ((if cycles < 5 then cycles else 5) * h)
    + ((if cycles < 4 then cycles else 4) * d0)
    + ((if cycles < 3 then cycles else 3) * d1)
    + ((if cycles < 2 then cycles else 2) * d2)
    + d3
  in
  (match cycles with
   | 1 -> t.d0 <- h; t.d1 <- d0; t.d2 <- d1; t.d3 <- d2
   | 2 -> t.d0 <- 0; t.d1 <- h; t.d2 <- d0; t.d3 <- d1
   | 3 -> t.d0 <- 0; t.d1 <- 0; t.d2 <- h; t.d3 <- d0
   | 4 -> t.d0 <- 0; t.d1 <- 0; t.d2 <- 0; t.d3 <- h
   | _ -> t.d0 <- 0; t.d1 <- 0; t.d2 <- 0; t.d3 <- 0);
  toggles

let[@inline] cache_energy p n =
  (p.Blocks.cache_decode_per_toggle *. float_of_int n.dec)
  +. (p.Blocks.cache_tag_per_toggle *. float_of_int n.tag)
  +. (p.Blocks.cache_array_per_toggle *. float_of_int n.arr)

(* One retirement of [pl]'s instruction: the hook's integers and
   channel, whichever backend or event they came from. *)
let core t pl cycles stall flags (ch : Sim.Cpu.channel) =
  let p = Blocks.default in
  let fcycles = float_of_int cycles in
  charge t b_clock (p.Blocks.clock_tree *. fcycles);
  let word = pl.word in
  let bus1 = if pl.nreads > 0 then ch.Sim.Cpu.bus1 else t.prev_bus1 in
  let bus2 = if pl.nreads > 1 then ch.Sim.Cpu.bus2 else t.prev_bus2 in
  let has_result = flags land Sim.Cpu.flag_result <> 0 in
  let result_value = if has_result then ch.Sim.Cpu.result else t.prev_result in
  (* Pipeline registers, PC incrementer and opcode decoder, which only
     the issue edge can move. *)
  let latch_toggles =
    pipeline_toggles t ~word ~pc:pl.pc ~op1:bus1 ~op2:bus2 ~result:result_value
      cycles
    + pop ((t.pc_value lxor pl.pc) land m32)
    + pop ((t.pc_carry lxor pl.carry) land m32)
    + onehot t.opcode pl.opcode
  in
  t.pc_value <- pl.pc;
  t.pc_carry <- pl.carry;
  t.opcode <- pl.opcode;
  t.evals <- t.evals + (cycles * cycle_evals) + port_evals;
  charge t b_pipeline
    ((p.Blocks.pipeline_base *. fcycles)
     +. (p.Blocks.pipeline_per_toggle *. float_of_int latch_toggles));
  if cycles > 1 then
    charge t b_stall (p.Blocks.stall_cycle *. float_of_int (cycles - 1));
  (* Fetch path. *)
  charge t b_fetch
    (p.Blocks.fetch_decode
     +. (p.Blocks.fetch_bus_per_toggle *. float_of_int (toggles t.prev_word word)));
  t.prev_word <- word;
  if flags land Sim.Cpu.flag_uncached_fetch <> 0 then
    charge t b_uncached p.Blocks.uncached_access
  else begin
    let n = t.inets in
    t.evals <- t.evals + n.access_evals;
    cache_access n pl.pc 0;
    charge t b_icache (p.Blocks.icache_access +. cache_energy p n);
    if flags land Sim.Cpu.flag_icache_miss <> 0 then
      charge t b_icache p.Blocks.icache_miss
  end;
  (* Register file ports and port decoders. *)
  let dec_toggles =
    onehot t.rd0 pl.rd0 + onehot t.rd1 pl.rd1 + onehot t.wr pl.wr
  in
  t.rd0 <- pl.rd0;
  t.rd1 <- pl.rd1;
  t.wr <- pl.wr;
  charge t b_regfile
    ((p.Blocks.regfile_read *. float_of_int pl.nreads)
     +. (p.Blocks.regfile_decoder_per_toggle *. float_of_int dec_toggles));
  if has_result then charge t b_regfile p.Blocks.regfile_write;
  charge t b_buses
    (p.Blocks.operand_bus_per_toggle
     *. float_of_int (toggles t.prev_bus1 bus1 + toggles t.prev_bus2 bus2));
  t.prev_bus1 <- bus1;
  t.prev_bus2 <- bus2;
  if has_result then begin
    charge t b_buses
      (p.Blocks.result_bus_per_toggle
       *. float_of_int (toggles t.prev_result result_value));
    t.prev_result <- result_value
  end;
  (* Execution units. *)
  (match pl.exec with
   | Mult ->
     let togs = mult_eval t.base_mult bus1 bus2 in
     charge t b_mult (p.Blocks.mult_per_toggle *. float_of_int togs)
   | Shifter ->
     let togs = Gates.shifter_eval t.base_shifter bus1 (bus2 land 31) in
     charge t b_shifter (p.Blocks.shifter_per_toggle *. float_of_int togs)
   | No_unit -> ()
   | Alu ->
     let togs = adder_eval t.alu bus1 bus2 in
     charge t b_alu (p.Blocks.alu_per_toggle *. float_of_int togs));
  (* Memory data path. *)
  if flags land Sim.Cpu.flag_uncached_data <> 0 then
    charge t b_uncached p.Blocks.uncached_access
  else if flags land (Sim.Cpu.flag_dcache_hit lor Sim.Cpu.flag_dcache_miss) <> 0
  then begin
    let n = t.dnets in
    t.evals <- t.evals + n.access_evals;
    cache_access n ch.Sim.Cpu.addr ch.Sim.Cpu.data;
    charge t b_dcache (p.Blocks.dcache_access +. cache_energy p n);
    if flags land Sim.Cpu.flag_dcache_miss <> 0 then
      charge t b_dcache p.Blocks.dcache_miss
  end;
  (* Control. *)
  if pl.control then begin
    charge t b_branch p.Blocks.branch_unit;
    if flags land Sim.Cpu.flag_taken <> 0 then
      charge t b_branch p.Blocks.taken_flush
  end;
  if stall > 0 then
    charge t b_interlock (p.Blocks.interlock_cycle *. float_of_int stall);
  if flags land Sim.Cpu.flag_window <> 0 then
    charge t b_window p.Blocks.window_op;
  (* Custom hardware. *)
  if pl.exec = No_unit then begin
    let bank = pl.units in
    if Array.length bank.seq > 0 then begin
      bank_eval ~swing:p.Blocks.custom_data_swing bank ch.Sim.Cpu.cin1
        ch.Sim.Cpu.cin2 ch.Sim.Cpu.busy;
      for i = 0 to Array.length bank.seq - 1 do
        charge t b_custom_active bank.energy.(bank.seq.(i))
      done
    end
  end
  else if pl.nreads > 0 then begin
    (* Side effect: base instructions driving the operand buses toggle
       the bus-facing custom hardware. *)
    let bank = t.bus_units in
    bank_eval ~swing:p.Blocks.custom_data_swing bank bus1 bus2 1;
    for i = 0 to Array.length bank.seq - 1 do
      charge t b_custom_idle
        (p.Blocks.custom_idle_fraction *. bank.energy.(bank.seq.(i)))
    done
  end

let observe t (e : Sim.Event.t) =
  if Array.length t.plans = 0 then t.plans <- Array.make plan_slots no_plan;
  let f = e.Sim.Event.fetch in
  let flags = Sim.Cpu.load_channel t.scratch e in
  core t
    (plan t f.Sim.Event.fpc f.Sim.Event.fword e.Sim.Event.instr)
    e.Sim.Event.cycles e.Sim.Event.stall_cycles flags t.scratch

let observer t : Sim.Cpu.observer = fun e -> observe t e

let total_energy t =
  Hashtbl.fold (fun _ b acc -> acc +. t.energy.(b)) t.order 0.0

let hook ?waveform t (asm : Isa.Program.asm) : Sim.Cpu.hook =
  let code = asm.Isa.Program.code in
  (* One plan per static slot, built at its first retirement. *)
  let plans = Array.make (Array.length code) no_plan in
  let retire i cycles stall flags ch =
    if plans.(i) == no_plan then begin
      let s : Isa.Program.slot = code.(i) in
      plans.(i) <- plan_of t s.addr s.word s.instr
    end;
    core t plans.(i) cycles stall flags ch
  in
  match waveform with
  | None -> fun i _ cycles stall flags ch -> retire i cycles stall flags ch
  | Some wf ->
    (* Cycle-resolved power: bin each retirement's incremental reference
       energy by start cycle, reproducing in software the power-over-time
       waveforms of hardware-accelerated power estimation. *)
    fun i start cycles stall flags ch ->
      let before = total_energy t in
      retire i cycles stall flags ch;
      Obs.Waveform.add wf ~cycle:start ~energy_pj:(total_energy t -. before)

let breakdown t =
  Hashtbl.fold (fun k b acc -> (k, t.energy.(b)) :: acc) t.order []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let evaluations t = t.evals

let reset t =
  Array.fill t.energy 0 (Array.length t.energy) 0.0;
  t.seen <- 0;
  Hashtbl.reset t.order;
  t.evals <- 0;
  t.s_wp <- 0;
  t.s_o1 <- 0;
  t.s_o2 <- 0;
  t.s_r <- 0;
  t.d0 <- 0;
  t.d1 <- 0;
  t.d2 <- 0;
  t.d3 <- 0;
  t.pc_value <- 0;
  t.pc_carry <- 0;
  t.opcode <- -1;
  t.rd0 <- -1;
  t.rd1 <- -1;
  t.wr <- -1;
  (* Fresh shadow caches: a reset estimator must stay in lockstep with a
     freshly created simulator. *)
  t.inets <- cache_nets_create t.cfg.Sim.Config.icache;
  t.dnets <- cache_nets_create t.cfg.Sim.Config.dcache;
  t.alu <- adder_create 32;
  t.base_shifter <- Gates.shifter_create 32;
  t.base_mult <- mult_create 32;
  let fresh u = u.model <- model_for u.comp in
  Hashtbl.iter (fun _ bank -> Array.iter fresh bank.models) t.insn_units;
  Array.iter fresh t.bus_units.models;
  t.prev_word <- 0;
  t.prev_bus1 <- 0;
  t.prev_bus2 <- 0;
  t.prev_result <- 0

(* --- Checking against the oracle ------------------------------------------- *)

let mismatch fmt = Printf.ksprintf (fun s -> raise (Sim.Backend.Mismatch s)) fmt

let check t oracle =
  let entry (k, v) = (k, Int64.bits_of_float v) in
  let mine = List.map entry (breakdown t)
  and theirs = List.map entry (Oracle.breakdown oracle) in
  if mine <> theirs then
    mismatch "reference estimator: breakdown %s, oracle %s"
      (String.concat ", " (List.map (fun (k, _) -> k) mine))
      (String.concat ", " (List.map (fun (k, _) -> k) theirs));
  if evaluations t <> Oracle.evaluations oracle then
    mismatch "reference estimator: %d net evaluations, oracle %d"
      (evaluations t) (Oracle.evaluations oracle)

let estimate_program ?config ?extension asm =
  let cfg = Option.value config ~default:Sim.Config.default in
  let est = create ?extension cfg in
  let cpu, _outcome =
    Sim.Backend.run_program ~config:cfg ?extension
      ~hook:(hook est asm) asm
  in
  (total_energy est, cpu)
