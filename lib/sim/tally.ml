type contribution = { cats : int array; amounts : float array }

let contribution l =
  { cats = Array.of_list (List.map fst l);
    amounts = Array.of_list (List.map snd l) }

let nothing = { cats = [||]; amounts = [||] }

type weights = {
  custom : Tie.Compile.compiled_insn -> busy:int -> contribution;
  reads : contribution;
}

(* Memoised by physical identity of the instruction: an event fold asks
   once per custom retirement, and an extension has a handful of
   instructions, so the hit path is a short list walk with no
   allocation. *)
let make_weights ~custom ~reads =
  let memo = ref [] in
  let custom insn ~busy =
    let rec find = function
      | (i, b, c) :: _ when i == insn && b = busy -> c
      | _ :: rest -> find rest
      | [] ->
        let c = custom insn ~busy in
        memo := (insn, busy, c) :: !memo;
        c
    in
    find !memo
  in
  { custom; reads }

let no_weights =
  { custom = (fun _ ~busy:_ -> nothing); reads = nothing }

let custom w insn ~busy = w.custom insn ~busy

let reads w = w.reads

let of_event w (e : Event.t) =
  match e.Event.custom with
  | Some info -> w.custom info.Event.cinsn ~busy:e.Event.busy_cycles
  | None -> ( match e.Event.src_values with [] -> nothing | _ :: _ -> w.reads)

let add acc c =
  let cats = c.cats and amounts = c.amounts in
  for k = 0 to Array.length cats - 1 do
    let i = Array.unsafe_get cats k in
    acc.(i) <- acc.(i) +. Array.unsafe_get amounts k
  done

type t = { stats : Stats.t; acc : float array; weights : weights }

let create ?(weights = no_weights) config =
  { stats = Stats.create config;
    acc = Array.make (List.length Tie.Component.all_categories) 0.0;
    weights }

let stats t = t.stats
let acc t = t.acc
let weights t = t.weights

let observe t e =
  Stats.observe t.stats e;
  add t.acc (of_event t.weights e)

let copy t =
  { stats = Stats.copy t.stats; acc = Array.copy t.acc; weights = t.weights }

let counters =
  let open Stats in
  [ ("instructions", fun s -> s.instructions);
    ("total_cycles", fun s -> s.total_cycles);
    ("arith_cycles", fun s -> s.arith_cycles);
    ("load_cycles", fun s -> s.load_cycles);
    ("store_cycles", fun s -> s.store_cycles);
    ("jump_cycles", fun s -> s.jump_cycles);
    ("branch_taken_cycles", fun s -> s.branch_taken_cycles);
    ("branch_untaken_cycles", fun s -> s.branch_untaken_cycles);
    ("icache_misses", fun s -> s.icache_misses);
    ("dcache_misses", fun s -> s.dcache_misses);
    ("uncached_fetches", fun s -> s.uncached_fetches);
    ("interlocks", fun s -> s.interlocks);
    ("stall_cycles", fun s -> s.stall_cycles);
    ("custom_regfile_cycles", fun s -> s.custom_regfile_cycles);
    ("custom_cycles", fun s -> s.custom_cycles) ]

let diff a b =
  let rec ints = function
    | [] -> floats 0
    | (name, get) :: rest ->
      let x = get a.stats and y = get b.stats in
      if x <> y then Some (Printf.sprintf "%s (%d vs %d)" name x y)
      else ints rest
  and floats i =
    if i >= Array.length a.acc then None
    else
      let x = a.acc.(i) and y = b.acc.(i) in
      if Int64.bits_of_float x <> Int64.bits_of_float y then
        Some (Printf.sprintf "category %d accumulator (%h vs %h)" i x y)
      else floats (i + 1)
  in
  ints counters
