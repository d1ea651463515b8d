type category =
  | Multiplier
  | Adder
  | Logic
  | Shifter
  | Custom_register
  | Tie_mult
  | Tie_mac
  | Tie_add
  | Tie_csa
  | Table

type t = {
  category : category;
  width : int;
  entries : int;
}

let make ?(entries = 1) category width =
  if width <= 0 || width > 64 then
    invalid_arg "Component.make: width must be in 1..64";
  if entries <= 0 then invalid_arg "Component.make: entries must be positive";
  let entries = match category with Table -> entries | _ -> 1 in
  { category; width; entries }

let complexity c =
  let w = float_of_int c.width in
  match c.category with
  | Multiplier | Tie_mult | Tie_mac -> w *. w /. (32.0 *. 32.0)
  | Adder | Logic | Shifter | Custom_register | Tie_add | Tie_csa -> w /. 32.0
  | Table -> float_of_int c.entries *. w /. (256.0 *. 8.0)

let category_name = function
  | Multiplier -> "mult"
  | Adder -> "+/-/comp"
  | Logic -> "log/red/mux"
  | Shifter -> "shifter"
  | Custom_register -> "custom register"
  | Tie_mult -> "TIE_mult"
  | Tie_mac -> "TIE_mac"
  | Tie_add -> "TIE_add"
  | Tie_csa -> "TIE_csa"
  | Table -> "table"

let all_categories =
  [ Multiplier; Adder; Logic; Shifter; Custom_register;
    Tie_mult; Tie_mac; Tie_add; Tie_csa; Table ]

(* Direct match, not a list scan: this sits on per-event hot paths
   (resource accounting, variable extraction).  Must stay in sync with
   the order of [all_categories]. *)
let category_index = function
  | Multiplier -> 0
  | Adder -> 1
  | Logic -> 2
  | Shifter -> 3
  | Custom_register -> 4
  | Tie_mult -> 5
  | Tie_mac -> 6
  | Tie_add -> 7
  | Tie_csa -> 8
  | Table -> 9

let pp ppf c =
  if c.category = Table then
    Format.fprintf ppf "%s[%dx%d]" (category_name c.category) c.entries
      c.width
  else Format.fprintf ppf "%s[%d]" (category_name c.category) c.width

let equal c1 c2 = c1 = c2
