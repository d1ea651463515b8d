exception Tie_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Tie_error s)) fmt

(* Execution plan, fully resolved at compile time: operand slots in
   positional order and the result/update expressions compiled to
   closures over (args, states).  The simulator retires custom
   instructions on its hot path, so nothing here may require a name
   lookup or width inference per execution.  The plan is immutable:
   every evaluation runs over an args array its caller owns, [p_width]
   slots long — the operands first, then each expression's hoisted
   subexpressions at the base offset it was compiled with — so one
   compiled extension serves any number of threads at once. *)
type plan = {
  p_ops : Spec.operand array;          (* def.ins, in order *)
  p_width : int;                       (* operand + scratch slots *)
  p_result : Expr.compiled_fn option;
  p_updates : (int * int * Expr.compiled_fn) array;
      (* (state index, state width, new-value expression) *)
}

type compiled_insn = {
  def : Spec.insn_def;
  components : Component.t list;
  latency : int;
  regfile_reads : int;
  writes_regfile : bool;
  bus_facing : Component.t list;
  plan : plan;
}

type compiled = {
  cspec : Spec.t;
  insns : (string * compiled_insn) list;
}

let make_ctx (spec : Spec.t) (def : Spec.insn_def) : Expr.ctx =
  let arg_width name =
    match List.find_opt (fun o -> o.Spec.oname = name) def.Spec.ins with
    | Some o -> o.Spec.owidth
    | None -> fail "%s: unknown operand %S" def.Spec.iname name
  in
  let state_width name =
    match List.find_opt (fun s -> s.Spec.sname = name) spec.Spec.states with
    | Some s -> s.Spec.swidth
    | None -> fail "%s: unknown state %S" def.Spec.iname name
  in
  let table_shape name =
    match List.find_opt (fun t -> t.Spec.tname = name) spec.Spec.tables with
    | Some t -> (Array.length t.Spec.tdata, t.Spec.telem_width)
    | None -> fail "%s: unknown table %S" def.Spec.iname name
  in
  { Expr.arg_width; state_width; table_shape }

(* Hardware component instance implied by one expression node, if any. *)
let node_component ctx e =
  let w () = Expr.width ctx e in
  match e with
  | Expr.Arg _ | Expr.Const _ | Expr.Concat _ | Expr.Extract _ -> None
  | Expr.State name ->
    Some (Component.make Component.Custom_register (ctx.Expr.state_width name))
  | Expr.Mul _ -> Some (Component.make Component.Multiplier (w ()))
  | Expr.Add _ | Expr.Sub _ | Expr.Cmp _ ->
    Some (Component.make Component.Adder (w ()))
  | Expr.And _ | Expr.Or _ | Expr.Xor _ | Expr.Not _ | Expr.Mux _
  | Expr.Reduce _ ->
    Some (Component.make Component.Logic (max (w ()) 1))
  | Expr.Shl _ | Expr.Shr _ | Expr.Sar _ ->
    Some (Component.make Component.Shifter (w ()))
  | Expr.Table (name, _) ->
    let entries, elem = ctx.Expr.table_shape name in
    Some (Component.make ~entries Component.Table elem)
  | Expr.Tie_mult _ -> Some (Component.make Component.Tie_mult (w ()))
  | Expr.Tie_mac _ -> Some (Component.make Component.Tie_mac (w ()))
  | Expr.Tie_add _ -> Some (Component.make Component.Tie_add (w ()))
  | Expr.Tie_csa _ -> Some (Component.make Component.Tie_csa (w ()))

(* Logic nodes whose width inference would yield 1 (reductions, compares)
   are still real hardware over the full input width; node_component uses
   the result width, which underestimates them.  Widen using the widest
   child. *)
let widen_by_children ctx e comp =
  match (e, comp) with
  | (Expr.Cmp (_, a, b), Some c) ->
    let w = max (Expr.width ctx a) (Expr.width ctx b) in
    Some { c with Component.width = max c.Component.width w }
  | (Expr.Reduce (_, a), Some c) ->
    Some { c with Component.width = max c.Component.width (Expr.width ctx a) }
  | (_, c) -> c

let in_reg_names (def : Spec.insn_def) =
  List.filter_map
    (fun o -> if o.Spec.okind = Spec.In_reg then Some o.Spec.oname else None)
    def.Spec.ins

let expr_components ctx regs e =
  (* Does an operand wire (possibly through pure wiring: extracts and
     concatenations) feed this node directly?  Such components sit on the
     operand buses and toggle under base instructions too. *)
  let rec wired_to_reg child =
    match child with
    | Expr.Arg name -> List.mem name regs
    | Expr.Extract (inner, _, _) -> wired_to_reg inner
    | Expr.Concat (hi, lo) -> wired_to_reg hi || wired_to_reg lo
    | _ -> false
  in
  let bus_of_node node = List.exists wired_to_reg (Expr.subexprs node) in
  Expr.fold
    (fun (comps, bus) node ->
      match widen_by_children ctx node (node_component ctx node) with
      | None -> (comps, bus)
      | Some c ->
        let bus = if bus_of_node node then c :: bus else bus in
        (c :: comps, bus))
    ([], []) e

let validate_insn (spec : Spec.t) (def : Spec.insn_def) =
  let imms =
    List.filter (fun o -> o.Spec.okind = Spec.Imm) def.Spec.ins
  in
  if List.length imms > 1 then
    fail "%s: at most one immediate operand is supported" def.Spec.iname;
  List.iter
    (fun (sname, _) ->
      if not (List.exists (fun s -> s.Spec.sname = sname) spec.Spec.states)
      then fail "%s: update of unknown state %S" def.Spec.iname sname)
    def.Spec.updates;
  let names = List.map (fun o -> o.Spec.oname) def.Spec.ins in
  let rec dup = function
    | [] -> ()
    | x :: rest ->
      if List.mem x rest then
        fail "%s: duplicate operand name %S" def.Spec.iname x
      else dup rest
  in
  dup names

let index_of_name ~what iname name extract items =
  let rec go i = function
    | [] -> fail "%s: unknown %s %S" iname what name
    | x :: rest -> if String.equal (extract x) name then i else go (i + 1) rest
  in
  go 0 items

let make_plan (spec : Spec.t) (def : Spec.insn_def) ctx =
  let arg name =
    index_of_name ~what:"operand" def.Spec.iname name
      (fun o -> o.Spec.oname) def.Spec.ins
  in
  let state name =
    index_of_name ~what:"state" def.Spec.iname name
      (fun s -> s.Spec.sname) spec.Spec.states
  in
  let table name =
    match List.find_opt (fun t -> t.Spec.tname = name) spec.Spec.tables with
    | Some t -> t.Spec.tdata
    | None -> fail "%s: unknown table %S" def.Spec.iname name
  in
  (* Each expression's scratch slots follow the previous one's. *)
  let width = ref (List.length def.Spec.ins) in
  let compile_expr e =
    let f, slots = Expr.compile ctx ~arg ~state ~table ~base:!width e in
    width := !width + slots;
    f
  in
  let p_result = Option.map compile_expr def.Spec.result in
  let p_updates =
    Array.of_list
      (List.map
         (fun (sname, e) ->
           (state sname, ctx.Expr.state_width sname, compile_expr e))
         def.Spec.updates)
  in
  { p_ops = Array.of_list def.Spec.ins; p_width = !width; p_result; p_updates }

let compile_insn (spec : Spec.t) (def : Spec.insn_def) =
  validate_insn spec def;
  let ctx = make_ctx spec def in
  let exprs =
    (match def.Spec.result with Some e -> [ e ] | None -> [])
    @ List.map snd def.Spec.updates
  in
  (* Width-check everything up front so errors surface at compile time. *)
  List.iter (fun e -> ignore (Expr.width ctx e)) exprs;
  let regs = in_reg_names def in
  let comps, bus =
    List.fold_left
      (fun (cs, bs) e ->
        let c, b = expr_components ctx regs e in
        (cs @ c, bs @ b))
      ([], []) exprs
  in
  (* A written state is hardware even if never read in this instruction. *)
  let written_states =
    List.map
      (fun (sname, _) ->
        Component.make Component.Custom_register (ctx.Expr.state_width sname))
      def.Spec.updates
  in
  let comps = comps @ written_states in
  let delay =
    List.fold_left (fun m e -> Float.max m (Expr.depth_delay e)) 0.0 exprs
  in
  let latency =
    match def.Spec.latency_override with
    | Some n ->
      if n < 1 then fail "%s: latency must be >= 1" def.Spec.iname else n
    | None -> max 1 (int_of_float (Float.ceil (delay /. 4.0)))
  in
  { def;
    components = comps;
    latency;
    regfile_reads = List.length regs;
    writes_regfile = def.Spec.result <> None;
    bus_facing = bus;
    plan = make_plan spec def ctx }

let compile spec =
  let names = List.map (fun i -> i.Spec.iname) spec.Spec.instructions in
  let rec dup = function
    | [] -> ()
    | x :: rest ->
      if List.mem x rest then fail "duplicate instruction name %S" x
      else dup rest
  in
  dup names;
  let insns =
    List.map
      (fun def -> (def.Spec.iname, compile_insn spec def))
      spec.Spec.instructions
  in
  { cspec = spec; insns }

let spec c = c.cspec

let find c name = List.assoc_opt name c.insns

let instructions c = List.map snd c.insns

let all_components c =
  (* Custom registers are physical state: one instance per declared state,
     plus the combinational instances of every instruction. *)
  let state_regs =
    List.map
      (fun s -> Component.make Component.Custom_register s.Spec.swidth)
      c.cspec.Spec.states
  in
  let non_state =
    List.concat_map
      (fun (_, i) ->
        List.filter
          (fun comp -> comp.Component.category <> Component.Custom_register)
          i.components)
      c.insns
  in
  state_regs @ non_state

let bus_facing_components c =
  List.concat_map (fun (_, i) -> i.bus_facing) c.insns

(* State values live in an array indexed by declaration order (the same
   order the per-instruction plans resolved [State] references against);
   the name index only serves the by-name [state_value] queries of
   observers and tests. *)
type state_store = {
  s_index : (string, int) Hashtbl.t;
  s_values : int array;
}

let create_state c =
  let states = c.cspec.Spec.states in
  let index = Hashtbl.create 8 in
  List.iteri (fun i s -> Hashtbl.replace index s.Spec.sname i) states;
  { s_index = index;
    s_values = Array.of_list (List.map (fun s -> s.Spec.sinit) states) }

let copy_state (store : state_store) : state_store =
  (* The name index is immutable after creation; only values change. *)
  { store with s_values = Array.copy store.s_values }

let state_value store name =
  match Hashtbl.find_opt store.s_index name with
  | Some i -> store.s_values.(i)
  | None -> raise Not_found

let state_at store k =
  if k < Array.length store.s_values then store.s_values.(k) else 0

let state_values store = Array.to_list store.s_values

let reset_state c store =
  List.iteri
    (fun i s -> store.s_values.(i) <- s.Spec.sinit)
    c.cspec.Spec.states

let mask_to w v = if w >= 63 then v else v land ((1 lsl w) - 1)

let execute _c store insn ~srcs ~imm =
  let def = insn.def in
  let p = insn.plan in
  let args = Array.make p.p_width 0 in
  let nops = Array.length p.p_ops in
  (* Bind operands positionally: register operands consume [srcs] in
     order, the immediate operand takes [imm]. *)
  let rec fill k srcs =
    if k < nops then
      let o = Array.unsafe_get p.p_ops k in
      match o.Spec.okind with
      | Spec.Imm ->
        let v =
          match imm with
          | Some v -> v
          | None -> fail "%s: missing immediate" def.Spec.iname
        in
        args.(k) <- mask_to o.Spec.owidth v;
        fill (k + 1) srcs
      | Spec.In_reg -> (
        match srcs with
        | v :: more ->
          args.(k) <- mask_to o.Spec.owidth v;
          fill (k + 1) more
        | [] -> fail "%s: not enough register operands" def.Spec.iname)
  in
  fill 0 srcs;
  let states = store.s_values in
  let result =
    match p.p_result with
    | Some f -> Some (mask_to 32 (f args states))
    | None -> None
  in
  (* Simultaneous update semantics: evaluate all new values against the
     old state, then commit. *)
  (match Array.length p.p_updates with
   | 0 -> ()
   | 1 ->
     let (i, sw, f) = p.p_updates.(0) in
     states.(i) <- mask_to sw (f args states)
   | n ->
     let staged = Array.make n 0 in
     for k = 0 to n - 1 do
       let (_, sw, f) = p.p_updates.(k) in
       staged.(k) <- mask_to sw (f args states)
     done;
     for k = 0 to n - 1 do
       let (i, _, _) = p.p_updates.(k) in
       states.(i) <- staged.(k)
     done);
  result

let no_result = -1

(* Pre-bind a call site: operand routing (which source register feeds
   which operand slot, the immediate's constant value, every operand
   mask) is resolved once, so the per-execution work is a masked copy
   loop plus the compiled expressions.  Uses a private args array —
   immediate slots are filled here and never rewritten, and the
   expressions' scratch slots follow the operands. *)
let bind _c store insn ~nsrcs ~imm =
  let def = insn.def in
  let p = insn.plan in
  let args = Array.make p.p_width 0 in
  let pos = ref [] and msk = ref [] and nreg = ref 0 in
  Array.iteri
    (fun k (o : Spec.operand) ->
      match o.Spec.okind with
      | Spec.Imm ->
        let v =
          match imm with
          | Some v -> v
          | None -> fail "%s: missing immediate" def.Spec.iname
        in
        args.(k) <- mask_to o.Spec.owidth v
      | Spec.In_reg ->
        if !nreg >= nsrcs then
          fail "%s: not enough register operands" def.Spec.iname;
        pos := k :: !pos;
        msk :=
          (if o.Spec.owidth >= 63 then -1 else (1 lsl o.Spec.owidth) - 1)
          :: !msk;
        incr nreg)
    p.p_ops;
  let pos = Array.of_list (List.rev !pos) in
  let msk = Array.of_list (List.rev !msk) in
  let nreg = !nreg in
  let states = store.s_values in
  let fill (srcs : int array) =
    for j = 0 to nreg - 1 do
      Array.unsafe_set args
        (Array.unsafe_get pos j)
        (Array.unsafe_get srcs j land Array.unsafe_get msk j)
    done
  in
  match (p.p_result, p.p_updates) with
  | Some f, [||] ->
    fun srcs ->
      fill srcs;
      mask_to 32 (f args states)
  | Some f, [| (i, sw, g) |] ->
    fun srcs ->
      fill srcs;
      let r = mask_to 32 (f args states) in
      states.(i) <- mask_to sw (g args states);
      r
  | None, [| (i, sw, g) |] ->
    fun srcs ->
      fill srcs;
      states.(i) <- mask_to sw (g args states);
      no_result
  | None, [||] -> fun srcs -> fill srcs; no_result
  | result, updates ->
    let n = Array.length updates in
    let staged = Array.make n 0 in
    fun srcs ->
      fill srcs;
      let r =
        match result with
        | Some f -> mask_to 32 (f args states)
        | None -> no_result
      in
      for k = 0 to n - 1 do
        let (_, sw, f) = Array.unsafe_get updates k in
        staged.(k) <- mask_to sw (f args states)
      done;
      for k = 0 to n - 1 do
        let (i, _, _) = Array.unsafe_get updates k in
        states.(i) <- staged.(k)
      done;
      r
