(* Tests for the regression library: matrices, least squares (QR, normal
   equations, NNLS) and error statistics. *)

let check = Alcotest.check
let fail = Alcotest.fail

let float_eps = Alcotest.float 1e-6

(* --- Matrix -------------------------------------------------------------- *)

let m_of = Regress.Matrix.of_rows

let test_matrix_basics () =
  let m = m_of [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  check Alcotest.int "rows" 3 (Regress.Matrix.rows m);
  check Alcotest.int "cols" 2 (Regress.Matrix.cols m);
  check float_eps "get" 4.0 (Regress.Matrix.get m 1 1);
  let t = Regress.Matrix.transpose m in
  check Alcotest.int "transpose rows" 2 (Regress.Matrix.rows t);
  check float_eps "transpose entry" 6.0 (Regress.Matrix.get t 1 2)

let test_matrix_mul () =
  let a = m_of [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Regress.Matrix.identity 2 in
  let ai = Regress.Matrix.mul a i in
  check float_eps "A*I = A" (Regress.Matrix.get a 1 0)
    (Regress.Matrix.get ai 1 0);
  let b = m_of [| [| 5.0 |]; [| 6.0 |] |] in
  let ab = Regress.Matrix.mul a b in
  check float_eps "product" 17.0 (Regress.Matrix.get ab 0 0);
  check float_eps "product" 39.0 (Regress.Matrix.get ab 1 0);
  match Regress.Matrix.mul b a with
  | exception Invalid_argument _ -> ()
  | _ -> fail "dimension mismatch accepted"

let test_matrix_vec () =
  let a = m_of [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = Regress.Matrix.mul_vec a [| 10.0; 20.0 |] in
  check float_eps "row 0" 50.0 v.(0);
  check float_eps "row 1" 110.0 v.(1)

let test_matrix_ragged () =
  match m_of [| [| 1.0 |]; [| 1.0; 2.0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "ragged rows accepted"

let qcheck_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:100
    QCheck.(
      pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let g = Workloads.Prng.create (r + (c * 17)) in
      let m =
        m_of
          (Array.init r (fun _ ->
               Array.init c (fun _ ->
                   float_of_int (Workloads.Prng.int g 1000) /. 10.0)))
      in
      let tt = Regress.Matrix.transpose (Regress.Matrix.transpose m) in
      let ok = ref true in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          if Regress.Matrix.get m i j <> Regress.Matrix.get tt i j then
            ok := false
        done
      done;
      !ok)

(* --- Least squares -------------------------------------------------------- *)

let random_system ~seed ~rows ~cols =
  let g = Workloads.Prng.create seed in
  let x =
    m_of
      (Array.init rows (fun _ ->
           Array.init cols (fun _ ->
               1.0 +. (float_of_int (Workloads.Prng.int g 1000) /. 100.0))))
  in
  let c_true =
    Array.init cols (fun _ ->
        float_of_int (1 + Workloads.Prng.int g 400) /. 4.0)
  in
  (x, c_true, Regress.Lsq.predict x c_true)

let close a b = Float.abs (a -. b) < 1e-6 *. (1.0 +. Float.abs b)

let qcheck_qr_recovers_coefficients =
  QCheck.Test.make ~name:"QR recovers exact coefficients" ~count:60
    QCheck.(pair (int_range 1 8) (int_bound 10_000))
    (fun (cols, seed) ->
      let rows = cols + 4 in
      let x, c_true, e = random_system ~seed ~rows ~cols in
      let c = Regress.Lsq.solve_qr x e in
      Array.for_all2 close c c_true)

let qcheck_qr_matches_normal_equations =
  QCheck.Test.make ~name:"QR and pseudo-inverse agree" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let x, _, e = random_system ~seed ~rows:9 ~cols:4 in
      let a = Regress.Lsq.solve_qr x e in
      let b = Regress.Lsq.solve_normal x e in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-5) a b)

let test_qr_rank_deficient () =
  (* Two identical columns: rank deficient. *)
  let x = m_of [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
  match Regress.Lsq.solve_qr x [| 2.0; 4.0; 6.0 |] with
  | exception Regress.Lsq.Singular -> ()
  | _ -> fail "singular system accepted"

let test_solve_falls_back_on_ridge () =
  let x = m_of [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
  let c = Regress.Lsq.solve x [| 2.0; 4.0; 6.0 |] in
  (* The damped solution splits the weight across the twin columns. *)
  let fitted = Regress.Lsq.predict x c in
  check Alcotest.bool "ridge fallback still fits" true
    (Float.abs (fitted.(0) -. 2.0) < 0.01)

let qcheck_nnls_nonnegative =
  QCheck.Test.make ~name:"NNLS never returns negatives" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = Workloads.Prng.create seed in
      let rows = 10 and cols = 4 in
      let x =
        m_of
          (Array.init rows (fun _ ->
               Array.init cols (fun _ ->
                   float_of_int (Workloads.Prng.int g 100) /. 10.0)))
      in
      let e =
        Array.init rows (fun _ ->
            float_of_int (Workloads.Prng.int g 2000) -. 1000.0)
      in
      let c = Regress.Lsq.solve ~nonnegative:true x e in
      Array.for_all (fun v -> v >= 0.0) c)

let qcheck_nnls_matches_unconstrained_when_positive =
  QCheck.Test.make
    ~name:"NNLS equals QR when the free solution is positive" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let x, c_true, e = random_system ~seed ~rows:10 ~cols:4 in
      ignore c_true;
      let free = Regress.Lsq.solve_qr x e in
      if Array.for_all (fun v -> v > 0.0) free then
        let nn = Regress.Lsq.solve ~nonnegative:true x e in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-4) free nn
      else QCheck.assume_fail ())

let qcheck_nnls_agrees_with_solve_once =
  QCheck.Test.make
    ~name:"NNLS equals solve_once on non-negative well-conditioned systems"
    ~count:80
    QCheck.(pair (int_range 1 6) (int_bound 10_000))
    (fun (cols, seed) ->
      let rows = cols + 6 in
      let x, _, e = random_system ~seed ~rows ~cols in
      let free = Regress.Lsq.solve_once x e in
      if Array.for_all (fun v -> v >= 0.0) free then
        let nn = Regress.Lsq.solve_nnls x e in
        Array.for_all2
          (fun a b -> Float.abs (a -. b) < 1e-4 *. (1.0 +. Float.abs a))
          free nn
      else QCheck.assume_fail ())

let qcheck_nnls_backtracking_terminates =
  QCheck.Test.make
    ~name:"NNLS backtracking terminates feasibly on adversarial systems"
    ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Workloads.Prng.create seed in
      let rows = 4 + Workloads.Prng.int g 8 in
      let cols = 1 + Workloads.Prng.int g 6 in
      let x =
        m_of
          (Array.init rows (fun _ ->
               Array.init cols (fun _ ->
                   (float_of_int (Workloads.Prng.int g 2000) -. 1000.0)
                   /. 100.0)))
      in
      let e =
        Array.init rows (fun _ ->
            (float_of_int (Workloads.Prng.int g 2000) -. 1000.0) /. 10.0)
      in
      (* Returning at all certifies that the inner backtracking loop made
         progress; the result must also be feasible and finite. *)
      let c = Regress.Lsq.solve_nnls x e in
      Array.for_all (fun v -> Float.is_finite v && v >= 0.0) c)

(* The solvers as they were written over [Matrix.get], before they moved
   to flat arrays: the reference the flat versions must match bit for
   bit, operation order included. *)
module Boxed = struct
  module M = Regress.Matrix

  let solve_qr x e =
    let m = M.rows x and n = M.cols x in
    if Array.length e <> m then invalid_arg "Lsq.solve_qr: mismatched rhs";
    if m < n then invalid_arg "Lsq.solve_qr: underdetermined system";
    let a = M.copy x in
    let b = Array.copy e in
    for k = 0 to n - 1 do
      let norm = ref 0.0 in
      for i = k to m - 1 do
        let v = M.get a i k in
        norm := !norm +. (v *. v)
      done;
      let norm = sqrt !norm in
      if norm < 1e-12 then raise Regress.Lsq.Singular;
      let akk = M.get a k k in
      let alpha = if akk >= 0.0 then -.norm else norm in
      let vk = akk -. alpha in
      let vnorm2 = ref (vk *. vk) in
      for i = k + 1 to m - 1 do
        let v = M.get a i k in
        vnorm2 := !vnorm2 +. (v *. v)
      done;
      if !vnorm2 > 1e-300 then begin
        for j = k + 1 to n - 1 do
          let dot =
            let acc = ref (vk *. M.get a k j) in
            for i = k + 1 to m - 1 do
              acc := !acc +. (M.get a i k *. M.get a i j)
            done;
            !acc
          in
          let scale = 2.0 *. dot /. !vnorm2 in
          M.set a k j (M.get a k j -. (scale *. vk));
          for i = k + 1 to m - 1 do
            M.set a i j (M.get a i j -. (scale *. M.get a i k))
          done
        done;
        let dotb =
          let acc = ref (vk *. b.(k)) in
          for i = k + 1 to m - 1 do
            acc := !acc +. (M.get a i k *. b.(i))
          done;
          !acc
        in
        let scale = 2.0 *. dotb /. !vnorm2 in
        b.(k) <- b.(k) -. (scale *. vk);
        for i = k + 1 to m - 1 do
          b.(i) <- b.(i) -. (scale *. M.get a i k)
        done
      end;
      M.set a k k alpha;
      for i = k + 1 to m - 1 do
        M.set a i k 0.0
      done
    done;
    let c = Array.make n 0.0 in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (M.get a i j *. c.(j))
      done;
      let d = M.get a i i in
      if Float.abs d < 1e-12 then raise Regress.Lsq.Singular;
      c.(i) <- !acc /. d
    done;
    c

  let solve_once x e =
    try solve_qr x e
    with Regress.Lsq.Singular -> Regress.Lsq.solve_normal ~ridge:1e-6 x e

  let solve_subset x e idx =
    match idx with
    | [] -> Array.make (M.cols x) 0.0
    | _ ->
      let sub =
        M.of_rows
          (Array.init (M.rows x) (fun i ->
               Array.of_list (List.map (fun j -> M.get x i j) idx)))
      in
      let c = solve_once sub e in
      let full = Array.make (M.cols x) 0.0 in
      List.iteri (fun k j -> full.(j) <- c.(k)) idx;
      full

  let solve_nnls x e =
    let n = M.cols x in
    let passive = Array.make n false in
    let xcur = Array.make n 0.0 in
    let gradient () =
      let r =
        let p = M.mul_vec x xcur in
        Array.mapi (fun i pi -> e.(i) -. pi) p
      in
      Array.init n (fun j ->
          let acc = ref 0.0 in
          for i = 0 to M.rows x - 1 do
            acc := !acc +. (M.get x i j *. r.(i))
          done;
          !acc)
    in
    let passive_list () =
      List.filter (fun j -> passive.(j)) (List.init n (fun j -> j))
    in
    let tol = 1e-7 in
    let rec outer iter =
      if iter > 3 * n then ()
      else begin
        let w = gradient () in
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
            let z = solve_subset x e (passive_list ()) in
            let negs =
              List.filter (fun j -> passive.(j) && z.(j) <= tol)
                (List.init n (fun j -> j))
            in
            if negs = [] then Array.blit z 0 xcur 0 n
            else begin
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
              if passive_list () <> [] then inner ()
            end
          in
          inner ();
          outer (iter + 1)
        end
      end
    in
    outer 0;
    xcur
end

(* A random design of one of five shapes: tall, square, tall with a
   zeroed column, tall and rank deficient (a column repeating another,
   scaled), which takes [solve_once]'s [Singular] -> ridge path, or tall
   with a vanishing column against a huge right-hand side, which NNLS
   lets into its passive set, so its subset solve takes that path. *)
let random_design (shape, seed) =
  let g = Workloads.Prng.create seed in
  let cols = 1 + Workloads.Prng.int g 8 in
  let rows = if shape = 1 then cols else cols + 1 + Workloads.Prng.int g 8 in
  let entry () = float_of_int (Workloads.Prng.int g 2000 - 1000) /. 100.0 in
  let x = Array.init rows (fun _ -> Array.init cols (fun _ -> entry ())) in
  (match shape with
   | 2 ->
     let z = Workloads.Prng.int g cols in
     Array.iter (fun r -> r.(z) <- 0.0) x
   | 3 when cols > 1 ->
     let src = Workloads.Prng.int g cols in
     let dst = (src + 1 + Workloads.Prng.int g (cols - 1)) mod cols in
     Array.iter (fun r -> r.(dst) <- 2.0 *. r.(src)) x
   | 4 ->
     let z = Workloads.Prng.int g cols in
     Array.iter (fun r -> r.(z) <- r.(z) *. 1e-14) x
   | _ -> ());
  let scale = if shape = 4 then 1e14 else 10.0 in
  (m_of x, Array.init rows (fun _ -> entry () *. scale))

let bits_of f x e =
  match f x e with
  | c -> Ok (Array.to_list (Array.map Int64.bits_of_float c))
  | exception Regress.Lsq.Singular -> Error "singular"

let qcheck_flat_solvers_match_boxed =
  QCheck.Test.make ~name:"flat solvers = Matrix.get reference, bit for bit"
    ~count:300
    QCheck.(pair (int_bound 4) (int_bound 100_000))
    (fun input ->
      let x, e = random_design input in
      bits_of Regress.Lsq.solve_qr x e = bits_of Boxed.solve_qr x e
      && bits_of Regress.Lsq.solve_once x e = bits_of Boxed.solve_once x e
      && bits_of Regress.Lsq.solve_nnls x e = bits_of Boxed.solve_nnls x e)

let test_nnls_lawson_hanson_example () =
  (* The classic 4x2 example from Lawson & Hanson: the unconstrained
     solution has a negative first component, NNLS clamps it. *)
  let x =
    m_of
      [| [| 0.0372; 0.2869 |]; [| 0.6861; 0.7071 |];
         [| 0.6233; 0.6245 |]; [| 0.6344; 0.6170 |] |]
  in
  let e = [| 0.8587; 0.1781; 0.0747; 0.8405 |] in
  let c = Regress.Lsq.solve_nnls x e in
  check (Alcotest.float 1e-6) "clamped coefficient" 0.0 c.(0);
  check (Alcotest.float 1e-3) "surviving coefficient" 0.6929 c.(1)

let test_residuals () =
  let x = m_of [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let r = Regress.Lsq.residuals x [| 2.0; 3.0 |] [| 1.0; 1.0 |] in
  check float_eps "residual 0" 1.0 r.(0);
  check float_eps "residual 1" 2.0 r.(1)

(* --- Stats ---------------------------------------------------------------- *)

let test_stats () =
  let v = [| 3.0; -4.0 |] in
  check float_eps "mean" (-0.5) (Regress.Stats.mean v);
  check float_eps "rms" (sqrt 12.5) (Regress.Stats.rms v);
  check float_eps "max abs" 4.0 (Regress.Stats.max_abs v);
  let predicted = [| 110.0; 90.0 |] and actual = [| 100.0; 100.0 |] in
  let errs = Regress.Stats.percent_errors ~predicted ~actual in
  check float_eps "+10%" 10.0 errs.(0);
  check float_eps "-10%" (-10.0) errs.(1);
  check float_eps "mean abs percent" 10.0
    (Regress.Stats.mean_abs_percent ~predicted ~actual)

let test_correlation () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = [| 10.0; 20.0; 30.0; 40.0 |] in
  check float_eps "perfect correlation" 1.0 (Regress.Stats.correlation x y);
  let z = [| 40.0; 30.0; 20.0; 10.0 |] in
  check float_eps "anti-correlation" (-1.0) (Regress.Stats.correlation x z)

let test_r_squared () =
  let actual = [| 1.0; 2.0; 3.0 |] in
  check float_eps "perfect fit" 1.0
    (Regress.Stats.r_squared ~predicted:actual ~actual);
  let bad = [| 2.0; 2.0; 2.0 |] in
  check Alcotest.bool "bad fit below 1" true
    (Regress.Stats.r_squared ~predicted:bad ~actual < 1.0)

let () =
  Alcotest.run "regress"
    [ ( "matrix",
        [ Alcotest.test_case "basics" `Quick test_matrix_basics;
          Alcotest.test_case "multiplication" `Quick test_matrix_mul;
          Alcotest.test_case "matrix-vector" `Quick test_matrix_vec;
          Alcotest.test_case "ragged input" `Quick test_matrix_ragged;
          QCheck_alcotest.to_alcotest qcheck_transpose_involution ] );
      ( "lsq",
        [ QCheck_alcotest.to_alcotest qcheck_qr_recovers_coefficients;
          QCheck_alcotest.to_alcotest qcheck_qr_matches_normal_equations;
          Alcotest.test_case "rank deficiency detected" `Quick
            test_qr_rank_deficient;
          Alcotest.test_case "ridge fallback" `Quick
            test_solve_falls_back_on_ridge;
          QCheck_alcotest.to_alcotest qcheck_nnls_nonnegative;
          QCheck_alcotest.to_alcotest
            qcheck_nnls_matches_unconstrained_when_positive;
          QCheck_alcotest.to_alcotest qcheck_nnls_agrees_with_solve_once;
          QCheck_alcotest.to_alcotest qcheck_nnls_backtracking_terminates;
          QCheck_alcotest.to_alcotest qcheck_flat_solvers_match_boxed;
          Alcotest.test_case "Lawson-Hanson example" `Quick
            test_nnls_lawson_hanson_example;
          Alcotest.test_case "residuals" `Quick test_residuals ] );
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "correlation" `Quick test_correlation;
          Alcotest.test_case "r squared" `Quick test_r_squared ] ) ]
