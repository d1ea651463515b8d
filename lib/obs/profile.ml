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
  }

  let create ?(max_depth = 128) ~root () =
    if max_depth < 1 then invalid_arg "Stacks.create: max_depth < 1";
    let root_node =
      { id = 0; frame = root; parent = -1; n_cycles = 0; n_energy_pj = 0.0 }
    in
    let nodes = Array.make 64 root_node in
    { nodes; used = 1; children = Hashtbl.create 256; current = 0;
      cur_depth = 0; overflow = 0; max_depth }

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

  let leaf t ~frame =
    if t.overflow > 0 then t.current else intern t ~parent:t.current frame

  let position t = if t.overflow > 0 then lnot t.current else t.current

  let record_leaf t ~frame ~cycles ~energy_pj =
    record_at t (leaf t ~frame) ~cycles ~energy_pj

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
