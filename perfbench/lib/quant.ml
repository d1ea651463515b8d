let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The "exclusive" method of Python's [statistics.quantiles]: the same cut
   points the acceptance check computes, so a spread printed here is the
   spread that check sees. *)
let quantiles ~n xs =
  if n < 1 then invalid_arg "Quant.quantiles: n must be >= 1";
  let data = sorted xs in
  let ld = Array.length data in
  match ld with
  | 0 -> invalid_arg "Quant.quantiles: no data"
  | 1 -> List.init (n - 1) (fun _ -> data.(0))
  | _ ->
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((data.(j - 1) *. float_of_int (n - delta))
         +. (data.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

let median xs =
  let _, m, _ = quartiles xs in
  m

let p90 xs = List.nth (quantiles ~n:10 xs) 8

let geomean xs =
  match xs with
  | [] -> invalid_arg "Quant.geomean: no data"
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> invalid_arg "Quant.mean: no data"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Contention from other tenants only ever adds time, so the fastest
   repetitions of identical work follow the program's own speed: the
   fastest tenth, and never fewer than [min_fastest] of them. *)
let min_fastest = 3

let fastest ~key xs =
  let sorted = List.stable_sort (fun a b -> Float.compare (key a) (key b)) xs in
  let keep = max min_fastest ((List.length xs + 9) / 10) in
  List.filteri (fun i _ -> i < keep) sorted

let rel_iqr xs =
  let q1, m, q3 = quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* --- A/B verdict ---------------------------------------------------------- *)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg (Printf.sprintf "unknown direction %S" s)

let string_of_better = function Lower -> "lower" | Higher -> "higher"

type verdict = Improved | Unchanged | Worse | Unresolved

let string_of_verdict = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = {
  pairs : int;
  wins : int;          (** pairs the change won (ties count for neither) *)
  losses : int;
  parent_q : float * float * float;
  change_q : float * float * float;
  verdict : verdict;
}

(* [gain better a b] > 0 when [b] reads better than [a]. *)
let gain better a b = match better with Lower -> a -. b | Higher -> b -. a

let compare_runs ~better ?bound ~parent ~change () =
  let pairs =
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
    in
    zip parent change
  in
  let wins = List.length (List.filter (fun (p, c) -> gain better p c > 0.0) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> gain better p c < 0.0) pairs) in
  let ((pq1, pm, pq3) as parent_q) = quartiles parent in
  let ((cq1, cm, cq3) as change_q) = quartiles change in
  let npairs = List.length pairs in
  let decisive k = npairs > 0 && 10 * k >= 9 * npairs in
  let parent_iqr = pq3 -. pq1 in
  let gap = gain better pm cm in
  let rel x m = if m = 0.0 then 0.0 else x /. Float.abs m in
  let measured_loss = decisive losses && -.gap > parent_iqr in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain better p c > 0.0) parent) change
  in
  let verdict =
    (* Section 8 of the metric guide: a gain needs 9/10 of the pairs and a
       median gap wider than the parent's own quartile spread; the mirror
       image is a measured loss.  With a bound, a median that worsens by
       more than it is a regression, and a spread wider than it leaves the
       metric unresolved unless every change run beats every parent run. *)
    if decisive wins && gap > parent_iqr then Improved
    else
      match bound with
      | Some b ->
        let wide = rel parent_iqr pm > b || rel (cq3 -. cq1) cm > b in
        if rel (-.gap) pm > b && ((not wide) || measured_loss) then Worse
        else if wide && not all_better then Unresolved
        else Unchanged
      | None -> if measured_loss then Worse else Unchanged
  in
  { pairs = npairs; wins; losses; parent_q; change_q; verdict }
