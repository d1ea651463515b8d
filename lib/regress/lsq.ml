exception Singular

let predict x c = Matrix.mul_vec x c

let residuals x c e =
  let p = predict x c in
  Array.mapi (fun i pi -> pi -. e.(i)) p

(* Householder QR on flat arrays: [a] holds an m x n design row-major
   and [b] the right-hand side; both are reduced in place, then the
   triangle is back-substituted. *)
let qr a ~m ~n b =
  if m < n then invalid_arg "Lsq.solve_qr: underdetermined system";
  for k = 0 to n - 1 do
    (* Householder vector for column k. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let v = a.((i * n) + k) in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if norm < 1e-12 then raise Singular;
    let akk = a.((k * n) + k) in
    let alpha = if akk >= 0.0 then -.norm else norm in
    (* v = x_k - alpha e_k, stored in place of column k below the
       diagonal; v_k separately. *)
    let vk = akk -. alpha in
    let vnorm2 = ref (vk *. vk) in
    for i = k + 1 to m - 1 do
      let v = a.((i * n) + k) in
      vnorm2 := !vnorm2 +. (v *. v)
    done;
    if !vnorm2 > 1e-300 then begin
      (* Apply H = I - 2 v v^T / (v^T v) to the trailing columns and b.
         Column k itself is not transformed (its post-reflection value is
         alpha on the diagonal, zeros below, set explicitly afterwards) so
         the reflector stored in it stays intact. *)
      for j = k + 1 to n - 1 do
        let dot = ref (vk *. a.((k * n) + j)) in
        for i = k + 1 to m - 1 do
          dot := !dot +. (a.((i * n) + k) *. a.((i * n) + j))
        done;
        let scale = 2.0 *. !dot /. !vnorm2 in
        a.((k * n) + j) <- a.((k * n) + j) -. (scale *. vk);
        for i = k + 1 to m - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (scale *. a.((i * n) + k))
        done
      done;
      let dotb = ref (vk *. b.(k)) in
      for i = k + 1 to m - 1 do
        dotb := !dotb +. (a.((i * n) + k) *. b.(i))
      done;
      let scale = 2.0 *. !dotb /. !vnorm2 in
      b.(k) <- b.(k) -. (scale *. vk);
      for i = k + 1 to m - 1 do
        b.(i) <- b.(i) -. (scale *. a.((i * n) + k))
      done
    end;
    a.((k * n) + k) <- alpha;
    for i = k + 1 to m - 1 do
      a.((i * n) + k) <- 0.0
    done
  done;
  (* Back substitution on the n x n upper triangle. *)
  let c = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.((i * n) + j) *. c.(j))
    done;
    let d = a.((i * n) + i) in
    if Float.abs d < 1e-12 then raise Singular;
    c.(i) <- !acc /. d
  done;
  c

let solve_qr x e =
  let m = Matrix.rows x in
  if Array.length e <> m then invalid_arg "Lsq.solve_qr: mismatched rhs";
  qr (Matrix.to_array x) ~m ~n:(Matrix.cols x) (Array.copy e)

(* Gaussian elimination with partial pivoting on a square system. *)
let gauss_solve a b =
  let n = Array.length b in
  for k = 0 to n - 1 do
    (* Pivot. *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Matrix.get a i k) > Float.abs (Matrix.get a !piv k) then
        piv := i
    done;
    if Float.abs (Matrix.get a !piv k) < 1e-12 then raise Singular;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Matrix.get a k j in
        Matrix.set a k j (Matrix.get a !piv j);
        Matrix.set a !piv j t
      done;
      let t = b.(k) in
      b.(k) <- b.(!piv);
      b.(!piv) <- t
    end;
    for i = k + 1 to n - 1 do
      let f = Matrix.get a i k /. Matrix.get a k k in
      if f <> 0.0 then begin
        for j = k to n - 1 do
          Matrix.set a i j (Matrix.get a i j -. (f *. Matrix.get a k j))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.get a i j *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.get a i i
  done;
  x

let solve_normal ?(ridge = 0.0) x e =
  let xt = Matrix.transpose x in
  let xtx = Matrix.mul xt x in
  let n = Matrix.cols x in
  if ridge > 0.0 then
    for i = 0 to n - 1 do
      Matrix.set xtx i i (Matrix.get xtx i i +. ridge)
    done;
  let xte = Matrix.mul_vec xt e in
  gauss_solve xtx xte

let solve_once x e =
  try solve_qr x e with Singular -> solve_normal ~ridge:1e-6 x e

(* Subset least squares: fit only the columns [cols] of the m x n
   row-major design [xa] and return the full-length coefficient vector
   with zeros elsewhere. *)
let solve_subset xa ~m ~n e cols =
  let k = Array.length cols in
  let full = Array.make n 0.0 in
  if k > 0 then begin
    let sub = Array.make (m * k) 0.0 in
    for p = 0 to (m * k) - 1 do
      sub.(p) <- xa.((p / k * n) + cols.(p mod k))
    done;
    let c =
      try qr (Array.copy sub) ~m ~n:k (Array.copy e)
      with Singular ->
        let row i = Array.sub sub (i * k) k in
        solve_normal ~ridge:1e-6 (Matrix.of_rows (Array.init m row)) e
    in
    Array.iteri (fun q j -> full.(j) <- c.(q)) cols
  end;
  full

(* Lawson-Hanson non-negative least squares.  Columns enter the passive
   set one at a time by steepest descent of the residual; inner loop
   backtracks along the segment to the previous iterate whenever the
   unconstrained subset solution leaves the feasible region. *)
let nnls_solves = lazy (Obs.Metrics.counter "nnls_solves_total")
let nnls_iterations = lazy (Obs.Metrics.counter "nnls_iterations_total")

let solve_nnls x e =
  Obs.Metrics.inc (Lazy.force nnls_solves);
  let m = Matrix.rows x and n = Matrix.cols x in
  if Array.length e <> m then invalid_arg "Lsq.solve_nnls: mismatched rhs";
  let xa = Matrix.to_array x in
  let passive = Array.make n false in
  let xcur = Array.make n 0.0 in
  let r = Array.make m 0.0 and w = Array.make n 0.0 in
  (* w = X^T (e - X xcur), into [w]. *)
  let gradient () =
    for i = 0 to m - 1 do
      let p = ref 0.0 in
      for j = 0 to n - 1 do
        p := !p +. (xa.((i * n) + j) *. xcur.(j))
      done;
      r.(i) <- e.(i) -. !p
    done;
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        acc := !acc +. (xa.((i * n) + j) *. r.(i))
      done;
      w.(j) <- !acc
    done
  in
  let indices = List.init n Fun.id in
  let passive_cols () =
    Array.of_list (List.filter (fun j -> passive.(j)) indices)
  in
  let tol = 1e-7 in
  let rec outer iter =
    if iter > 3 * n then ()
    else begin
      gradient ();
      let best = ref (-1) in
      Array.iteri
        (fun j wj ->
          if (not passive.(j)) && wj > tol
             && (!best < 0 || wj > w.(!best)) then best := j)
        w;
      if !best < 0 then ()
      else begin
        passive.(!best) <- true;
        let rec inner () =
          let z = solve_subset xa ~m ~n e (passive_cols ()) in
          let negs =
            List.filter (fun j -> passive.(j) && z.(j) <= tol) indices
          in
          if negs = [] then Array.blit z 0 xcur 0 n
          else begin
            (* Step as far toward z as feasibility allows. *)
            let alpha =
              List.fold_left
                (fun a j ->
                  let d = xcur.(j) -. z.(j) in
                  if d > 1e-300 then Float.min a (xcur.(j) /. d) else a)
                1.0 negs
            in
            for j = 0 to n - 1 do
              if passive.(j) then begin
                xcur.(j) <- xcur.(j) +. (alpha *. (z.(j) -. xcur.(j)));
                if xcur.(j) <= tol then begin
                  xcur.(j) <- 0.0;
                  passive.(j) <- false
                end
              end
            done;
            if Array.exists Fun.id passive then inner ()
          end
        in
        inner ();
        Obs.Metrics.inc (Lazy.force nnls_iterations);
        outer (iter + 1)
      end
    end
  in
  outer 0;
  xcur

let solve ?(nonnegative = false) x e =
  if not nonnegative then solve_once x e else solve_nnls x e
