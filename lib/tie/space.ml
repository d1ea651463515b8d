(* A space is its axis names plus the labelled candidate list; products
   are materialised eagerly (spaces are small — tens to a few thousand
   points) which keeps enumeration order trivially deterministic. *)

type 'a t = {
  sp_axes : (string * int) list;   (* axis name, cardinality *)
  sp_elems : (string list * 'a) list;
}

let axis name values =
  if values = [] then invalid_arg "Space.axis: empty axis";
  let labels = List.map fst values in
  let rec dup = function
    | [] -> None
    | l :: rest -> if List.mem l rest then Some l else dup rest
  in
  (match dup labels with
   | Some l ->
     invalid_arg (Printf.sprintf "Space.axis: duplicate label %S on %s" l name)
   | None -> ());
  { sp_axes = [ (name, List.length values) ];
    sp_elems = List.map (fun (l, v) -> ([ l ], v)) values }

let const v = { sp_axes = []; sp_elems = [ ([], v) ] }

let map f s =
  { s with sp_elems = List.map (fun (l, v) -> (l, f v)) s.sp_elems }

let product a b =
  { sp_axes = a.sp_axes @ b.sp_axes;
    sp_elems =
      List.concat_map
        (fun (la, va) ->
          List.map (fun (lb, vb) -> (la @ lb, (va, vb))) b.sp_elems)
        a.sp_elems }

let map2 f a b = map (fun (x, y) -> f x y) (product a b)

let size s = List.length s.sp_elems

let axes s = List.map fst s.sp_axes

let enumerate s = List.map snd s.sp_elems

let enumerate_labelled s =
  List.map (fun (l, v) -> (String.concat "/" l, v)) s.sp_elems

let widths ?(prefix = "w") ws =
  if ws = [] then invalid_arg "Space.widths: empty width list";
  if List.exists (fun w -> w <= 0) ws then
    invalid_arg "Space.widths: widths must be positive";
  axis "width" (List.map (fun w -> (prefix ^ string_of_int w, w)) ws)

let describe s =
  let dims =
    List.map (fun (n, k) -> Printf.sprintf "%s(%d)" n k) s.sp_axes
  in
  let shape = if dims = [] then "point" else String.concat " x " dims in
  Printf.sprintf "%s = %d candidate%s" shape (size s)
    (if size s = 1 then "" else "s")
