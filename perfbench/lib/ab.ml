(* A/B verdict over two result sets (directories of result documents, one
   per run): per workload and metric, each side's median and quartiles,
   the share of seed-paired runs the change won, and the verdict of
   {!Quant.compare_runs}. *)

module J = Obs.Json

type run = {
  workload : string;
  trace : bool;
  seed : int;
  metrics : (string * (float * Quant.better * float option)) list;
}

let load_run path =
  let j = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  let prov = J.member "provenance" j in
  let metrics =
    match J.member "metrics" j with
    | J.Obj fields ->
      List.map
        (fun (name, m) ->
          let bound =
            match m with
            | J.Obj f -> Option.map J.to_float (List.assoc_opt "bound" f)
            | _ -> None
          in
          ( name,
            ( J.to_float (J.member "value" m),
              Quant.better_of_string (J.to_string (J.member "better" m)),
              bound ) ))
        fields
    | _ -> []
  in
  { workload = J.to_string (J.member "workload" prov);
    trace = J.member "trace" prov = J.Bool true;
    seed = J.to_int (J.member "seed" prov);
    metrics }

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         match load_run (Filename.concat dir f) with
         | r -> Some r
         | exception (J.Parse_error _ | Failure _ | Invalid_argument _) -> None)

(* Pair runs by seed when both sides ran the same seeds, else by order. *)
let paired a b =
  let by_seed l = List.sort (fun x y -> compare x.seed y.seed) l in
  let a = by_seed a and b = by_seed b in
  let seeds l = List.map (fun r -> r.seed) l in
  if seeds a = seeds b then (a, b)
  else
    let common = List.filter (fun r -> List.exists (fun s -> s.seed = r.seed) b) a in
    if List.length common >= 2 then
      ( common,
        List.filter (fun r -> List.exists (fun s -> s.seed = r.seed) common) b )
    else (a, b)

let verdicts ~parent ~change =
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) parent)
  in
  List.concat_map
    (fun (w, tr) ->
      let sel l = List.filter (fun r -> r.workload = w && r.trace = tr) l in
      let p, c = paired (sel parent) (sel change) in
      match (p, c) with
      | [], _ | _, [] -> []
      | r0 :: _, _ ->
        List.filter_map
          (fun (name, (_, better, bound)) ->
            let values l = List.filter_map (fun r -> Option.map (fun (v, _, _) -> v) (List.assoc_opt name r.metrics)) l in
            match (values p, values c) with
            | [], _ | _, [] -> None
            | pv, cv ->
              Some (w, tr, name, Quant.compare_runs ~better ?bound ~parent:pv ~change:cv ()))
          r0.metrics)
    keys

let print rows =
  Printf.printf "%-10s %-34s %12s %12s %12s %12s %12s %12s %7s  %s\n" "workload"
    "metric" "parent q1" "median" "q3" "change q1" "median" "q3" "wins" "verdict";
  List.iter
    (fun (w, tr, name, (c : Quant.comparison)) ->
      let p1, pm, p3 = c.Quant.parent_q and c1, cm, c3 = c.Quant.change_q in
      Printf.printf "%-10s %-34s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-3d  %s\n"
        (if tr then w ^ "*" else w) name p1 pm p3 c1 cm c3 c.Quant.wins c.Quant.pairs
        (Quant.string_of_verdict c.Quant.verdict))
    rows;
  if List.exists (fun (_, tr, _, _) -> tr) rows then
    print_endline "(* traced run: per-layer metrics, no bound)"
