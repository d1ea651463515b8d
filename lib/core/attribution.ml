type row = {
  variable : Variables.id;
  count : float;
  coefficient_pj : float;
  energy_pj : float;
  share : float;
}

type breakdown = {
  workload : string;
  total_pj : float;
  rows : row list;
  waveform : Obs.Waveform.t;
  cycles : int;
  instructions : int;
}

(* The four per-retirement effects the retire hook flags, each moving
   its variable by one.  They are adjacent in variable order. *)
let vi_imiss = Variables.index Variables.Icache_miss
let vi_dmiss = Variables.index Variables.Dcache_miss
let vi_ufetch = Variables.index Variables.Uncached_fetch
let vi_ilk = Variables.index Variables.Interlock

let () =
  assert (vi_dmiss = vi_imiss + 1 && vi_ufetch = vi_dmiss + 1
          && vi_ilk = vi_ufetch + 1)

let flag_taken = Sim.Cpu.flag_taken
let flag_imiss = Sim.Cpu.flag_icache_miss
let flag_dmiss = Sim.Cpu.flag_dcache_miss
let flag_ufetch = Sim.Cpu.flag_uncached_fetch
let flag_ilk = Sim.Cpu.flag_interlock
let flag_effects = flag_imiss lor flag_dmiss lor flag_ufetch lor flag_ilk

(* Variable index of each category accumulator. *)
let cat_var =
  let v = Array.make (List.length Tie.Component.all_categories) 0 in
  List.iter
    (fun cat ->
      v.(Tie.Component.category_index cat) <-
        Variables.index (Variables.Category cat))
    Tie.Component.all_categories;
  v

(* The marginal model energy of one retirement is the telescoping
   increment [sum_i c_i *. (x_i' -. x_i)] over the variables it moved,
   added in variable order.  Every variable but the structural ones
   moves by an integer fixed by the slot and the hook's flags, and
   integer differences of floats are exact, so each term is computed
   from a per-slot plan instead of a refilled vector: bit for bit the
   same sum.  A plan entry is indexed [2 * slot + taken].  A sum that
   starts from [0.0] is never [-0.0], so adding a [0.0] term leaves it
   bit for bit unchanged and an absent term can be stored as [0.0]. *)
type t = {
  model : Template.model;
  tally : Sim.Tally.t;
  waveform : Obs.Waveform.t;
  bucket : int;
  coeffs : float array;
  lo : float array;         (* 0 +. the terms below the flag variables *)
  hi : float array;         (* the term above them (the side term) *)
  fixed : float array;      (* [lo +. hi]: the marginal with no flag
                               effect and no category *)
  cats : int array array;   (* per slot: the category accumulators its
                               contribution moves, in variable order *)
  acc : float array;        (* the tally's live accumulators *)
  prev : float array;       (* accumulators as of the last retirement *)
  last : float array;       (* [0]: the last retirement's marginal *)
  cell : float array;       (* [0]: energy of the current waveform bucket *)
  mutable bucket_start : int;  (* -1 before the first retirement *)
  mutable bucket_end : int;
}

(* The variables one retirement of a slot moves whatever its dynamic
   effects, as (index, delta) pairs in variable order: one class
   retirement folded into a fresh tally by {!Sim.Stats.add_class}, the
   fold both backends use. *)
let static_terms config (f : Sim.Cpu.slot_facts) ~taken =
  let tally = Sim.Tally.create config in
  Sim.Stats.add_class (Sim.Tally.stats tally) f.Sim.Cpu.f_clazz ~count:1
    ~taken ~busy:f.Sim.Cpu.f_busy ~regfile:f.Sim.Cpu.f_regfile;
  let v = Extract.variables_of_tally tally in
  let terms = ref [] in
  for i = Variables.count - 1 downto 0 do
    if v.(i) <> 0.0 then terms := (i, v.(i)) :: !terms
  done;
  !terms

let create ?bucket_cycles ~config model (c : Extract.case) =
  let weights = Resource.weights c.Extract.extension in
  let tally = Sim.Tally.create ~weights config in
  let waveform = Obs.Waveform.create ?bucket_cycles () in
  let coeffs = model.Template.coefficients in
  let facts =
    Sim.Cpu.slot_facts ?extension:c.Extract.extension weights c.Extract.asm
  in
  let n = Array.length facts in
  let lo = Array.make (2 * n) 0.0 and hi = Array.make (2 * n) 0.0 in
  let term (vi, d) = coeffs.(vi) *. d in
  (* A program's slots share a handful of distinct facts: memoize by
     them, and by the (shared) contribution for the categories. *)
  let entries = ref [] and cat_lists = ref [] in
  let entry (f : Sim.Cpu.slot_facts) taken =
    let same ((g : Sim.Cpu.slot_facts), t, _) =
      f.Sim.Cpu.f_clazz = g.Sim.Cpu.f_clazz
      && f.Sim.Cpu.f_busy = g.Sim.Cpu.f_busy
      && f.Sim.Cpu.f_regfile = g.Sim.Cpu.f_regfile
      && taken = t
    in
    match List.find_opt same !entries with
    | Some (_, _, e) -> e
    | None ->
      let terms = static_terms config f ~taken in
      List.iter (fun (vi, _) -> assert (vi < vi_imiss || vi > vi_ilk)) terms;
      let below, above = List.partition (fun (vi, _) -> vi < vi_imiss) terms in
      let e =
        ( List.fold_left (fun d x -> d +. term x) 0.0 below,
          match above with
          | [] -> 0.0
          | [ x ] -> term x
          | _ :: _ :: _ -> invalid_arg "Attribution: two side terms" )
      in
      entries := (f, taken, e) :: !entries;
      e
  in
  let cats_of (w : Sim.Tally.contribution) =
    match List.assq_opt w !cat_lists with
    | Some c -> c
    | None ->
      let c =
        Array.of_list
          (List.sort_uniq
             (fun a b -> compare cat_var.(a) cat_var.(b))
             (Array.to_list w.Sim.Tally.cats))
      in
      cat_lists := (w, c) :: !cat_lists;
      c
  in
  let cats =
    Array.mapi
      (fun i f ->
        for taken = 0 to 1 do
          let l, h = entry f taken in
          lo.((2 * i) + taken) <- l;
          hi.((2 * i) + taken) <- h
        done;
        cats_of f.Sim.Cpu.f_weights)
      facts
  in
  { model;
    tally;
    waveform;
    bucket = Obs.Waveform.bucket_cycles waveform;
    coeffs;
    lo;
    hi;
    fixed = Array.map2 ( +. ) lo hi;
    cats;
    acc = Sim.Tally.acc tally;
    prev = Array.make (Array.length (Sim.Tally.acc tally)) 0.0;
    last = [| 0.0 |];
    cell = [| 0.0 |];
    bucket_start = -1;
    bucket_end = 0 }

let tally t = t.tally

let marginal t = t.last

(* Close the current waveform bucket: its energy was accumulated in
   retirement order in [cell], exactly as per-retirement adds into the
   bucket would have. *)
let flush t =
  if t.bucket_start >= 0 then
    Obs.Waveform.add t.waveform ~cycle:t.bucket_start ~energy_pj:t.cell.(0);
  t.cell.(0) <- 0.0;
  t.bucket_start <- -1

let roll t start =
  flush t;
  t.bucket_start <- start / t.bucket * t.bucket;
  t.bucket_end <- t.bucket_start + t.bucket

let fold t i start flags =
  let k = (2 * i) + Bool.to_int (flags land flag_taken <> 0) in
  let c = t.coeffs in
  let d =
    if flags land flag_effects = 0 then Array.unsafe_get t.fixed k
    else begin
      let d = Array.unsafe_get t.lo k in
      let d = if flags land flag_imiss <> 0 then d +. c.(vi_imiss) else d in
      let d = if flags land flag_dmiss <> 0 then d +. c.(vi_dmiss) else d in
      let d = if flags land flag_ufetch <> 0 then d +. c.(vi_ufetch) else d in
      let d = if flags land flag_ilk <> 0 then d +. c.(vi_ilk) else d in
      d +. Array.unsafe_get t.hi k
    end
  in
  let last = t.last in
  last.(0) <- d;
  let cats = Array.unsafe_get t.cats i in
  for j = 0 to Array.length cats - 1 do
    let ci = Array.unsafe_get cats j in
    let nv = t.acc.(ci) and pv = t.prev.(ci) in
    if nv <> pv then begin
      last.(0) <- last.(0) +. (c.(cat_var.(ci)) *. (nv -. pv));
      t.prev.(ci) <- nv
    end
  done;
  if start >= t.bucket_end then roll t start;
  t.cell.(0) <- t.cell.(0) +. last.(0)

(* The model is linear, so the decomposition needs nothing beyond the
   variable vector — in particular no simulation: Explore uses this to
   explain frontier candidates straight from cached vectors. *)
let decompose model vars =
  let total = Template.energy model vars in
  List.map
    (fun id ->
      let i = Variables.index id in
      let c = Template.coefficient model id in
      let energy = c *. vars.(i) in
      { variable = id;
        count = vars.(i);
        coefficient_pj = c;
        energy_pj = energy;
        share = (if Float.abs total < 1e-12 then 0.0 else energy /. total) })
    Variables.all
  |> List.sort (fun a b -> Float.compare b.energy_pj a.energy_pj)

let finish t ~name ~cycles ~instructions =
  flush t;
  let vars = Extract.variables_of_tally t.tally in
  let total = Template.energy t.model vars in
  let rows = decompose t.model vars in
  { workload = name;
    total_pj = total;
    rows;
    waveform = t.waveform;
    cycles;
    instructions }

let run ?(config = Sim.Config.default) ?bucket_cycles ?hook model
    (c : Extract.case) =
  Obs.Trace.with_span ~cat:"attribute" ("attribute:" ^ c.Extract.case_name)
  @@ fun () ->
  let t = create ?bucket_cycles ~config model c in
  let cpu, _outcome =
    Sim.Backend.run_program ~config ?extension:c.Extract.extension
      ~tally:t.tally
      ~hook:
        (Sim.Cpu.chain (fun i start _ _ flags _ -> fold t i start flags) hook)
      c.Extract.asm
  in
  finish t ~name:c.Extract.case_name ~cycles:(Sim.Cpu.cycles cpu)
    ~instructions:(Sim.Cpu.instructions cpu)

let check_sum b =
  let sum = List.fold_left (fun acc r -> acc +. r.energy_pj) 0.0 b.rows in
  Float.abs (sum -. b.total_pj) /. Float.max (Float.abs b.total_pj) 1.0

let pp ppf b =
  Format.fprintf ppf
    "@[<v>%s: %d instructions, %d cycles, %.3f uJ estimated@,@,"
    b.workload b.instructions b.cycles (b.total_pj /. 1.0e6);
  Format.fprintf ppf "%-12s %-38s %12s %12s %10s %7s@," "variable"
    "description" "count" "coeff (pJ)" "energy uJ" "share";
  List.iter
    (fun r ->
      if r.count <> 0.0 then
        Format.fprintf ppf "%-12s %-38s %12.1f %12.1f %10.3f %6.1f%%@,"
          (Variables.name r.variable)
          (Variables.describe r.variable)
          r.count r.coefficient_pj
          (r.energy_pj /. 1.0e6)
          (100.0 *. r.share))
    b.rows;
  Format.fprintf ppf "@,power over time (bucket = %d cycles):@,%a@]"
    (Obs.Waveform.bucket_cycles b.waveform)
    Obs.Waveform.pp b.waveform

let to_json b =
  let module J = Obs.Json in
  let row r =
    J.Obj
      [ ("variable", J.Str (Variables.name r.variable));
        ("description", J.Str (Variables.describe r.variable));
        ("count", J.Num r.count);
        ("coefficient_pj", J.Num r.coefficient_pj);
        ("energy_pj", J.Num r.energy_pj);
        ("share", J.Num r.share) ]
  in
  J.Obj
    [ ("workload", J.Str b.workload);
      ("units", J.Obj [ ("energy_pj", J.Str "picojoules") ]);
      ("total_energy_pj", J.Num b.total_pj);
      ("cycles", J.int b.cycles);
      ("instructions", J.int b.instructions);
      ("variables", J.Arr (List.map row b.rows));
      ("waveform", Obs.Waveform.to_json b.waveform) ]
