type t = {
  nrows : int;
  ncols : int;
  data : float array;
}

let make nrows ncols =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Matrix.make: empty";
  { nrows; ncols; data = Array.make (nrows * ncols) 0.0 }

let rows m = m.nrows

let cols m = m.ncols

let get m i j = m.data.((i * m.ncols) + j)

let set m i j v = m.data.((i * m.ncols) + j) <- v

let of_rows arr =
  let nrows = Array.length arr in
  if nrows = 0 then invalid_arg "Matrix.of_rows: empty";
  let ncols = Array.length arr.(0) in
  if ncols = 0 then invalid_arg "Matrix.of_rows: empty row";
  let m = make nrows ncols in
  Array.iteri
    (fun i r ->
      if Array.length r <> ncols then invalid_arg "Matrix.of_rows: ragged";
      Array.iteri (fun j v -> set m i j v) r)
    arr;
  m

let copy m = { m with data = Array.copy m.data }

let identity n =
  let m = make n n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let transpose m =
  let r = make m.ncols m.nrows in
  for i = 0 to m.nrows - 1 do
    for j = 0 to m.ncols - 1 do
      set r j i (get m i j)
    done
  done;
  r

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Matrix.mul: dimension mismatch";
  let r = make a.nrows b.ncols in
  for i = 0 to a.nrows - 1 do
    for k = 0 to a.ncols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.ncols - 1 do
          set r i j (get r i j +. (aik *. get b k j))
        done
    done
  done;
  r

let mul_vec m v =
  if Array.length v <> m.ncols then invalid_arg "Matrix.mul_vec: mismatch";
  Array.init m.nrows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.ncols - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let row m i = Array.init m.ncols (fun j -> get m i j)

let map f m = { m with data = Array.map f m.data }

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.ncols - 1 do
      Format.fprintf ppf "%s%10.4g" (if j > 0 then " " else "") (get m i j)
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"
