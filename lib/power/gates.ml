(* Every unit keeps the previous value of each internal net vector and
   counts Hamming toggles on re-evaluation. *)

type adder_state = {
  a_width : int;
  mutable a_sum : int;
  mutable a_carry : int;
  mutable a_in1 : int;
  mutable a_in2 : int;
}

let adder_create width =
  { a_width = width; a_sum = 0; a_carry = 0; a_in1 = 0; a_in2 = 0 }

let carry_chain a b width =
  (* Carry-out vector of a ripple adder, bit by bit. *)
  let rec go i c acc =
    if i >= width then acc
    else
      let ai = (a lsr i) land 1 and bi = (b lsr i) land 1 in
      let cout = (ai land bi) lor (ai land c) lor (bi land c) in
      go (i + 1) cout (acc lor (cout lsl i))
  in
  go 0 0 0

let adder_eval st a b =
  let m = Activity.mask st.a_width in
  let a = a land m and b = b land m in
  let carry = carry_chain a b st.a_width in
  let sum = (a + b) land m in
  let t =
    Activity.toggles st.a_in1 a
    + Activity.toggles st.a_in2 b
    + Activity.toggles st.a_carry carry
    + Activity.toggles st.a_sum sum
  in
  st.a_in1 <- a;
  st.a_in2 <- b;
  st.a_carry <- carry;
  st.a_sum <- sum;
  t

type mult_state = {
  m_width : int;
  m_rows : int array;         (* partial-product rows *)
  m_levels : int array;       (* compression-tree level outputs *)
  mutable m_out : int;
}

let mult_create width =
  { m_width = width;
    m_rows = Array.make width 0;
    m_levels = Array.make (max 1 (width / 2)) 0;
    m_out = 0 }

let mult_eval st a b =
  let m = Activity.mask st.m_width in
  let a = a land m and b = b land m in
  let t = ref 0 in
  (* Partial products: row i is a AND replicated bit i of b. *)
  for i = 0 to st.m_width - 1 do
    let row = if (b lsr i) land 1 = 1 then a else 0 in
    t := !t + Activity.toggles st.m_rows.(i) row;
    st.m_rows.(i) <- row
  done;
  (* Compression tree: pairwise carry-save sums per level (approximated
     by one combination per pair, which preserves data dependence). *)
  let nlevels = Array.length st.m_levels in
  for i = 0 to nlevels - 1 do
    let x = st.m_rows.(2 * i) and y = st.m_rows.((2 * i) + 1) in
    let level = (x lxor y) lor ((x land y) lsl 1) land m in
    t := !t + Activity.toggles st.m_levels.(i) level;
    st.m_levels.(i) <- level
  done;
  let out = a * b land Activity.mask (min 62 (2 * st.m_width)) in
  t := !t + Activity.toggles st.m_out out;
  st.m_out <- out;
  !t

type shifter_state = {
  s_width : int;
  s_stages : int array;       (* one net vector per log stage *)
}

let stages_for width =
  let rec go k v = if v <= 1 then k else go (k + 1) ((v + 1) / 2) in
  max 1 (go 0 width)

let shifter_create width =
  { s_width = width; s_stages = Array.make (stages_for width) 0 }

let shifter_eval st value amount =
  let m = Activity.mask st.s_width in
  let t = ref 0 in
  let v = ref (value land m) in
  let n = Array.length st.s_stages in
  for i = 0 to n - 1 do
    (* Stage i shifts by 2^i when the corresponding amount bit is set. *)
    if (amount lsr i) land 1 = 1 then v := (!v lsl (1 lsl i)) land m;
    t := !t + Activity.toggles st.s_stages.(i) !v;
    st.s_stages.(i) <- !v
  done;
  !t

type logic_state = {
  l_width : int;
  mutable l_out : int;
}

let logic_create width = { l_width = width; l_out = 0 }

let logic_eval st v =
  let v = v land Activity.mask st.l_width in
  let t = Activity.toggles st.l_out v in
  st.l_out <- v;
  t

type table_state = {
  t_entries : int;
  t_width : int;
  mutable t_index : int;
  mutable t_value : int;
  mutable t_wordline : int;
}

let table_create ~entries ~width =
  { t_entries = entries; t_width = width; t_index = 0; t_value = 0;
    t_wordline = 0 }

let table_eval st index value =
  let index = index mod max 1 st.t_entries in
  (* Decoder: one-hot wordline (modelled as the index plus a constant
     decode cost), output plane: the read value. *)
  let t =
    Activity.toggles st.t_index index
    + Activity.toggles st.t_wordline (1 lsl (index land 30))
    + Activity.toggles st.t_value (value land Activity.mask st.t_width)
  in
  st.t_index <- index;
  st.t_wordline <- 1 lsl (index land 30);
  st.t_value <- value land Activity.mask st.t_width;
  t

type component =
  | C_adder of adder_state
  | C_mult of mult_state
  | C_shifter of shifter_state
  | C_logic of logic_state
  | C_table of table_state

let component_create (c : Tie.Component.t) =
  let w = c.Tie.Component.width in
  match c.Tie.Component.category with
  | Tie.Component.Multiplier | Tie.Component.Tie_mult
  | Tie.Component.Tie_mac ->
    C_mult (mult_create w)
  | Tie.Component.Adder | Tie.Component.Tie_add | Tie.Component.Tie_csa ->
    C_adder (adder_create w)
  | Tie.Component.Shifter -> C_shifter (shifter_create w)
  | Tie.Component.Logic | Tie.Component.Custom_register ->
    C_logic (logic_create w)
  | Tie.Component.Table ->
    C_table (table_create ~entries:c.Tie.Component.entries ~width:w)

let component_eval u a b =
  match u with
  | C_adder st -> adder_eval st a b
  | C_mult st -> mult_eval st a b
  | C_shifter st -> shifter_eval st a (b land 63)
  | C_logic st -> logic_eval st (a lxor b)
  | C_table st -> table_eval st a b
