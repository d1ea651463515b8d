type slot = {
  mutable hits : int;
  mutable cycles : int;
  mutable stall_cycles : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable energy_pj : float;
}

type t = { slots : (int, slot) Hashtbl.t }

let fresh_slot () =
  { hits = 0; cycles = 0; stall_cycles = 0; icache_misses = 0;
    dcache_misses = 0; energy_pj = 0.0 }

let create () = { slots = Hashtbl.create 256 }

let slot_for t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = fresh_slot () in
    Hashtbl.add t.slots key s;
    s

let record t ?(stall_cycles = 0) ?(icache_miss = false) ?(dcache_miss = false)
    ?(energy_pj = 0.0) ~cycles key =
  let s = slot_for t key in
  s.hits <- s.hits + 1;
  s.cycles <- s.cycles + cycles;
  s.stall_cycles <- s.stall_cycles + stall_cycles;
  if icache_miss then s.icache_misses <- s.icache_misses + 1;
  if dcache_miss then s.dcache_misses <- s.dcache_misses + 1;
  s.energy_pj <- s.energy_pj +. energy_pj

let find t key = Hashtbl.find_opt t.slots key

let cardinal t = Hashtbl.length t.slots

let fold f t init = Hashtbl.fold f t.slots init

let totals t =
  let acc = fresh_slot () in
  Hashtbl.iter
    (fun _ s ->
      acc.hits <- acc.hits + s.hits;
      acc.cycles <- acc.cycles + s.cycles;
      acc.stall_cycles <- acc.stall_cycles + s.stall_cycles;
      acc.icache_misses <- acc.icache_misses + s.icache_misses;
      acc.dcache_misses <- acc.dcache_misses + s.dcache_misses;
      acc.energy_pj <- acc.energy_pj +. s.energy_pj)
    t.slots;
  acc

let reset t = Hashtbl.reset t.slots

module Stacks = struct
  type node = {
    id : int;
    frame : string;
    parent : int;                (* -1 at the root *)
    mutable n_cycles : int;
    mutable n_energy_pj : float;
  }

  type stack = {
    mutable nodes : node array;
    mutable used : int;
    children : (int * string, int) Hashtbl.t;
    mutable current : int;
    mutable cur_depth : int;
    mutable overflow : int;      (* frames pushed beyond max_depth *)
    max_depth : int;
    (* Leaf memo: events overwhelmingly hit one of the few (stack node,
       leaf frame) pairs of the loop being run, so caching the last
       [memo_size] interned leaves, matched by physical equality on the
       frame, skips the tuple-keyed hash lookup on the per-event hot
       path. *)
    memo_parent : int array;     (* -1 = empty *)
    memo_frame : string array;
    memo_id : int array;
    mutable memo_next : int;     (* round-robin replacement cursor *)
  }

  let memo_size = 8

  let create ?(max_depth = 128) ~root () =
    if max_depth < 1 then invalid_arg "Stacks.create: max_depth < 1";
    let root_node =
      { id = 0; frame = root; parent = -1; n_cycles = 0; n_energy_pj = 0.0 }
    in
    let nodes = Array.make 64 root_node in
    { nodes; used = 1; children = Hashtbl.create 256; current = 0;
      cur_depth = 0; overflow = 0; max_depth;
      memo_parent = Array.make memo_size (-1);
      memo_frame = Array.make memo_size "";
      memo_id = Array.make memo_size 0;
      memo_next = 0 }

  let intern t ~parent frame =
    match Hashtbl.find_opt t.children (parent, frame) with
    | Some id -> id
    | None ->
      let id = t.used in
      if id >= Array.length t.nodes then begin
        let nodes = Array.make (2 * Array.length t.nodes) t.nodes.(0) in
        Array.blit t.nodes 0 nodes 0 t.used;
        t.nodes <- nodes
      end;
      t.nodes.(id) <-
        { id; frame; parent; n_cycles = 0; n_energy_pj = 0.0 };
      t.used <- id + 1;
      Hashtbl.add t.children (parent, frame) id;
      id

  let push t frame =
    if t.cur_depth >= t.max_depth then t.overflow <- t.overflow + 1
    else t.current <- intern t ~parent:t.current frame;
    t.cur_depth <- t.cur_depth + 1

  let pop t =
    if t.overflow > 0 then begin
      t.overflow <- t.overflow - 1;
      t.cur_depth <- t.cur_depth - 1
    end
    else if t.current <> 0 then begin
      t.current <- t.nodes.(t.current).parent;
      t.cur_depth <- t.cur_depth - 1
    end

  let depth t = t.cur_depth

  let record_at t id ~cycles ~energy_pj =
    let n = t.nodes.(id) in
    n.n_cycles <- n.n_cycles + cycles;
    n.n_energy_pj <- n.n_energy_pj +. energy_pj

  let record t ~cycles ~energy_pj = record_at t t.current ~cycles ~energy_pj

  let rec memo_find t parent frame k =
    if k = memo_size then -1
    else if
      Array.unsafe_get t.memo_parent k = parent
      && Array.unsafe_get t.memo_frame k == frame
    then Array.unsafe_get t.memo_id k
    else memo_find t parent frame (k + 1)

  let record_leaf t ~frame ~cycles ~energy_pj =
    let id =
      if t.overflow > 0 then t.current
      else
        match memo_find t t.current frame 0 with
        | -1 ->
          let id = intern t ~parent:t.current frame in
          let k = t.memo_next in
          t.memo_parent.(k) <- t.current;
          t.memo_frame.(k) <- frame;
          t.memo_id.(k) <- id;
          t.memo_next <- (k + 1) mod memo_size;
          id
        | id -> id
    in
    record_at t id ~cycles ~energy_pj

  let path t id =
    let rec go acc id =
      if id < 0 then acc
      else
        let n = t.nodes.(id) in
        go (n.frame :: acc) n.parent
    in
    String.concat ";" (go [] id)

  let folded t =
    let rows = ref [] in
    for id = 0 to t.used - 1 do
      let n = t.nodes.(id) in
      if n.n_cycles <> 0 || n.n_energy_pj <> 0.0 then
        rows := (path t id, n.n_cycles, n.n_energy_pj) :: !rows
    done;
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
end
