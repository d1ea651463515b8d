(* Tests for the benchmark's own code: its statistics and verdict, its
   seeded inputs, and the replay it uses to time observer folds. *)

open Perfbench

let float_eq = Alcotest.float 1e-12

(* Reference values from Python: statistics.quantiles(xs, n=4) and
   statistics.quantiles(xs, n=10)[8]. *)
let test_quartiles () =
  let check xs (q1, q2, q3) =
    let a, b, c = Quant.quartiles xs in
    Alcotest.check float_eq "q1" q1 a;
    Alcotest.check float_eq "q2" q2 b;
    Alcotest.check float_eq "q3" q3 c
  in
  check [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (1.5, 3.0, 4.5);
  check [ 4.0; 1.0; 3.0; 2.0 ] (1.25, 2.5, 3.75);
  check [ 10.0; 20.0 ] (7.5, 15.0, 22.5);
  check [ 7.0 ] (7.0, 7.0, 7.0);
  check [ 2.0; 9.0; 4.0; 1.0; 8.0; 3.0; 7.0; 5.0; 6.0; 10.0 ] (2.75, 5.5, 8.25);
  Alcotest.check float_eq "p90 of 1..10" 9.9
    (Quant.p90 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check float_eq "p90 of 1..3" 3.6 (Quant.p90 [ 1.0; 2.0; 3.0 ]);
  Alcotest.check float_eq "rel iqr" 1.0 (Quant.rel_iqr [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_fastest () =
  let xs = List.init 40 (fun i -> float_of_int (40 - i)) in
  Alcotest.(check (list (float 0.0))) "fastest tenth" [ 1.0; 2.0; 3.0; 4.0 ]
    (Quant.fastest ~key:Fun.id xs);
  Alcotest.(check (list (float 0.0))) "never fewer than three" [ 1.0; 2.0; 3.0 ]
    (Quant.fastest ~key:Fun.id [ 5.0; 3.0; 1.0; 2.0; 4.0 ]);
  Alcotest.check float_eq "geomean" 2.0 (Quant.geomean [ 1.0; 4.0 ])

let verdict ~better ?bound parent change =
  Quant.string_of_verdict
    (Quant.compare_runs ~better ?bound ~parent ~change ()).Quant.verdict

let test_verdict () =
  let parent = List.init 10 (fun i -> 100.0 +. float_of_int i) in
  let v = Alcotest.(check string) in
  v "clear gain" "improved"
    (verdict ~better:Quant.Lower ~bound:0.1 parent (List.map (fun x -> x -. 20.0) parent));
  v "same runs" "unchanged" (verdict ~better:Quant.Lower ~bound:0.1 parent parent);
  v "small gain inside the parent's spread" "unchanged"
    (verdict ~better:Quant.Lower ~bound:0.1 parent (List.map (fun x -> x -. 1.0) parent));
  v "worse beyond the bound" "worse"
    (verdict ~better:Quant.Lower ~bound:0.1 parent (List.map (fun x -> x *. 1.3) parent));
  v "higher is better" "worse"
    (verdict ~better:Quant.Higher ~bound:0.1 parent (List.map (fun x -> x *. 0.7) parent));
  let noisy = [ 50.0; 150.0; 60.0; 140.0; 70.0; 130.0; 80.0; 120.0; 90.0; 110.0 ] in
  v "spread wider than the bound" "unresolved"
    (verdict ~better:Quant.Lower ~bound:0.1 noisy (List.rev noisy));
  v "wide spread, every change run better" "improved"
    (verdict ~better:Quant.Lower ~bound:0.1 noisy (List.map (fun x -> x /. 10.0) noisy));
  v "no bound: measured loss" "worse"
    (verdict ~better:Quant.Lower parent (List.map (fun x -> x +. 20.0) parent));
  v "no bound: small loss" "unchanged"
    (verdict ~better:Quant.Lower parent (List.map (fun x -> x +. 1.0) parent));
  let c = Quant.compare_runs ~better:Quant.Lower ~parent ~change:parent () in
  Alcotest.(check (pair int int)) "ties count for neither" (0, 0) (c.Quant.wins, c.Quant.losses)

let keys cases =
  List.map (fun c -> Core.Eval_cache.key ~config:Sim.Config.default c) cases

let round ~seed = Array.concat (Array.to_list (Inputs.serve_round ~seed ~clients:2))

let request_texts round =
  Array.to_list (Array.map (fun r -> Serve.Protocol.json_to_string r.Inputs.json) round)

let test_seeded_inputs () =
  let same = Alcotest.(check (list string)) in
  same "estimate set reproduces" (keys (Inputs.estimate_set ~seed:7))
    (keys (Inputs.estimate_set ~seed:7));
  Alcotest.(check bool) "estimate set follows the seed" false
    (keys (Inputs.synthetic ~seed:7) = keys (Inputs.synthetic ~seed:8));
  same "serve round reproduces" (request_texts (round ~seed:7))
    (request_texts (round ~seed:7));
  Alcotest.(check bool) "serve round follows the seed" false
    (request_texts (round ~seed:7) = request_texts (round ~seed:8))

let test_synthetic_band () =
  let lo, hi = Inputs.synthetic_band in
  List.iter
    (fun c ->
      let n = Inputs.instructions c in
      Alcotest.(check bool) "inside the size band" true (n >= lo && n <= hi))
    (Inputs.synthetic ~seed:3);
  Alcotest.(check int) "count" Inputs.synthetic_count (List.length (Inputs.synthetic ~seed:3))

(* Whatever the seed, a round carries the same multiset of requests bar
   the batch compositions: 20% simulating ops over the whole pool, dealt
   evenly between the clients. *)
let test_serve_mix () =
  let slices = Inputs.serve_round ~seed:11 ~clients:2 in
  let round = Array.concat (Array.to_list slices) in
  let count p slice = List.length (List.filter p (Array.to_list slice)) in
  let sim r = r.Inputs.kind = Inputs.Sim in
  let batch n r = r.Inputs.kind = Inputs.Estimate && List.length r.Inputs.names = n in
  List.iter
    (fun p ->
      Alcotest.(check bool) "clients get the same mix, give or take one request" true
        (abs (count p slices.(0) - count p slices.(1)) <= 1))
    [ sim; batch 1; batch 2; batch 3 ];
  let pool = List.sort compare (Inputs.serve_pool ()) in
  let sims = List.filter (fun r -> r.Inputs.kind = Inputs.Sim) (Array.to_list round) in
  Alcotest.(check int) "five requests per workload" (5 * List.length pool) (Array.length round);
  Alcotest.(check (list string)) "every workload simulated once" pool
    (List.sort compare (List.concat_map (fun r -> r.Inputs.names) sims))

(* The replay must fold the same events the live run folds, so its
   timings measure the same work. *)
let test_replay_matches_live () =
  let config = Sim.Config.default in
  List.iter
    (fun name ->
      let c = Workloads.Suite.find name in
      let ext = c.Core.Extract.extension in
      let stats = Sim.Stats.create config in
      let res = Core.Resource.create ext in
      let est = Power.Estimator.create ?extension:ext config in
      ignore
        (Sim.Backend.run_program ~config ?extension:ext
           ~observers:
             [ Sim.Stats.observer stats; Core.Resource.observer res; Power.Estimator.observer est ]
           c.Core.Extract.asm);
      let r = Replay.record c in
      Alcotest.(check bool) (name ^ ": stats") true (Replay.stats r = stats);
      Alcotest.(check (array (float 0.0))) (name ^ ": resource") (Core.Resource.totals res)
        (Core.Resource.totals (Replay.resource r));
      Alcotest.(check (float 0.0)) (name ^ ": power")
        (Power.Estimator.total_energy est)
        (Power.Estimator.total_energy (Replay.power r)))
    [ "gcd"; "rs_gfmac" ]

let test_spec () =
  let s =
    Spec.of_string
      {|{"workloads": [{"name": "a", "why": "x"}],
         "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.2}],
         "per_layer": [{"name": "c", "unit": "count", "better": "higher"}]}|}
  in
  let bounds l = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.bound)) l in
  Alcotest.(check (list string)) "workloads" [ "a" ] s.Spec.workloads;
  Alcotest.(check (list (pair string (option (float 0.0))))) "bound" [ ("t", Some 0.2) ]
    (bounds s.Spec.end_to_end);
  Alcotest.(check (list (pair string (option (float 0.0))))) "no bound" [ ("c", None) ]
    (bounds s.Spec.per_layer)

let test_host_speed () =
  let f = Report.one ~unit_:"ms" 10.0 and r = Report.one ~unit_:"1/s" 10.0 in
  Alcotest.check float_eq "durations scale" 5.0 (Report.at_host_speed 0.5 f).Report.value;
  Alcotest.check float_eq "rates scale inversely" 20.0 (Report.at_host_speed 0.5 r).Report.value;
  Alcotest.check float_eq "counts stay" 10.0
    (Report.at_host_speed 0.5 (Report.one ~unit_:"count" 10.0)).Report.value

let () =
  Alcotest.run "perfbench"
    [ ( "quant",
        [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "fastest repetitions" `Quick test_fastest;
          Alcotest.test_case "A/B verdict" `Quick test_verdict ] );
      ( "inputs",
        [ Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs;
          Alcotest.test_case "synthetic size band" `Quick test_synthetic_band;
          Alcotest.test_case "serve mix" `Quick test_serve_mix ] );
      ( "replay",
        [ Alcotest.test_case "replayed folds match a live run" `Quick test_replay_matches_live ] );
      ( "report",
        [ Alcotest.test_case "spec parsing" `Quick test_spec;
          Alcotest.test_case "host-speed scaling" `Quick test_host_speed ] ) ]
