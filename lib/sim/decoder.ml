type block = {
  blk_index : int;
  blk_addr : int;
  blk_last : int;
  blk_first : int;
  blk_slots : int;
  blk_label : string;
}

type t = {
  asm : Isa.Program.asm;
  symbols : (int, string) Hashtbl.t;
  blocks : block array;
  block_of_slot : int array;
}

let bpi = Isa.Encoding.bytes_per_instr

(* Code symbols by address; when several labels share one address the
   lexicographically smallest wins, for determinism. *)
let code_symbols (asm : Isa.Program.asm) =
  let n = Array.length asm.Isa.Program.code in
  let base = asm.Isa.Program.code_base in
  let at = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name addr ->
      if addr >= base && addr < base + (n * bpi) && (addr - base) mod bpi = 0
      then
        match Hashtbl.find_opt at addr with
        | Some other when String.compare other name <= 0 -> ()
        | Some _ | None -> Hashtbl.replace at addr name)
    asm.Isa.Program.symbols;
  at

let label_of symbols base addr =
  match Hashtbl.find_opt symbols addr with
  | Some s -> s
  | None ->
    let rec back a =
      if a < base then Printf.sprintf "0x%x" addr
      else
        match Hashtbl.find_opt symbols a with
        | Some s -> Printf.sprintf "%s+0x%x" s (addr - a)
        | None -> back (a - bpi)
    in
    back addr

(* Leader discovery: the leader set partitions the code section.  [l32r]
   also carries a resolved target (its literal) but is not control flow,
   so gating on [is_control] matters. *)
let analyze (asm : Isa.Program.asm) =
  let symbols = code_symbols asm in
  let code = asm.Isa.Program.code in
  let n = Array.length code in
  let base = asm.Isa.Program.code_base in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  let mark addr =
    if addr >= base && addr < base + (n * bpi) && (addr - base) mod bpi = 0
    then leader.((addr - base) / bpi) <- true
  in
  mark asm.Isa.Program.entry;
  Array.iteri
    (fun i slot ->
      if Isa.Instr.is_control slot.Isa.Program.instr then begin
        (match slot.Isa.Program.target with Some a -> mark a | None -> ());
        if i + 1 < n then leader.(i + 1) <- true
      end)
    code;
  Hashtbl.iter (fun addr _ -> mark addr) symbols;
  let blocks = ref [] in
  let block_of_slot = Array.make (max n 1) 0 in
  let count = ref 0 in
  let start = ref 0 in
  let close last =
    let addr = base + (!start * bpi) in
    blocks :=
      { blk_index = !count;
        blk_addr = addr;
        blk_last = base + (last * bpi);
        blk_first = !start;
        blk_slots = last - !start + 1;
        blk_label = label_of symbols base addr }
      :: !blocks;
    incr count
  in
  for i = 0 to n - 1 do
    if i > !start && leader.(i) then begin
      close (i - 1);
      start := i
    end;
    block_of_slot.(i) <- !count
  done;
  if n > 0 then close (n - 1);
  { asm; symbols; blocks = Array.of_list (List.rev !blocks); block_of_slot }
