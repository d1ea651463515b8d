(** Per-retired-instruction trace events.

    The simulator publishes one event per instruction to its observers.
    Observers implement the two consumers of the paper's flow: cheap
    statistics counting (macro-model variables) and the detailed
    reference energy estimator. *)

type fetch_info = {
  fpc : int;
  fword : int;          (** 24-bit instruction encoding *)
  fhit : bool;          (** icache hit (meaningless if uncached) *)
  funcached : bool;
}

type mem_info = {
  maddr : int;
  msize : int;          (** bytes: 1, 2 or 4 *)
  mwrite : bool;
  mhit : bool;
  muncached : bool;
  mvalue : int;         (** value loaded or stored *)
}

type custom_info = {
  cinsn : Tie.Compile.compiled_insn;
  coperands : int list; (** register operand values *)
  cresult : int option;
  cstates : int list;   (** custom-state values after execution *)
}

type t = {
  index : int;           (** retirement index, 0-based *)
  start_cycle : int;
  cycles : int;          (** total cycles consumed incl. stalls/penalties *)
  instr : Isa.Instr.t;
  clazz : Isa.Instr.clazz;
  taken : bool option;   (** branch resolution *)
  interlock : bool;      (** stalled on an operand dependency *)
  stall_cycles : int;
  window_event : bool;   (** window overflow/underflow occurred *)
  fetch : fetch_info;
  mem : mem_info option;
  src_values : int list; (** values driven on the operand buses *)
  result : int option;   (** value driven on the result bus *)
  custom : custom_info option;
  busy_cycles : int;     (** execute-stage occupancy (custom latency) *)
}

let rec nth l k =
  match l with [] -> 0 | x :: r -> if k = 0 then x else nth r (k - 1)

let custom_input info i =
  let n = List.length info.coperands in
  if i < n then nth info.coperands i
  else
    match info.cresult with
    | Some v -> if i = n then v else nth info.cstates (i - n - 1)
    | None -> nth info.cstates (i - n)
