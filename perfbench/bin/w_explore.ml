(* Workload [explore]: the design-space loop.  Each pass runs a cold
   [rs-cache] sweep into a fresh on-disk cache, a warm sweep from a new
   cache instance on the same directory, and one characterization of the
   default configuration (the CLI [characterize] path).  The paper's
   suite and space are fixed inputs, so the seed is unused. *)

open Perfbench
open Common

(* The loop runs on one process.  Fanned out over the default two forked
   workers on a shared 2-core host, each op waits for the slower worker,
   and the run-to-run spread of its timings reached 15-40%, past any
   useful bound; serial, it stays within a few percent.  The traced run
   still measures [Core.Parallel] at the default worker count. *)
let jobs = 1

(* 4 configurations x 25 characterization programs + 16 candidates. *)
let cold_simulations = 116

let expected_frontier = [ "rs_gfmul4/ic32k" ]

(* Set-up builds the inputs and warms up with one characterization, so
   the timed loop starts with the heap grown and lazy state filled.  The
   build alone takes a few milliseconds, and its time moved by 40% from
   run to run. *)
let setup_once () =
  let ((chars, _) as inputs) =
    fst
      (timed "workloads:build" (fun () ->
           (Workloads.Suite.characterization (), Workloads.Spaces.rs_cache ())))
  in
  ignore (timed "characterize:warm-up" (fun () -> Core.Characterize.run ~jobs chars));
  inputs

let setup ctx = repeated_setup ctx setup_once

type pass = {
  cold : Core.Explore.outcome option * float;
  warm : Core.Explore.outcome option * float;
  char : Core.Characterize.fit option * float;
}

let same_points (a : Core.Explore.outcome) (b : Core.Explore.outcome) =
  List.equal
    (fun (p : Core.Explore.point) (q : Core.Explore.point) ->
      p.Core.Explore.pt_name = q.Core.Explore.pt_name
      && bits p.Core.Explore.pt_energy_pj = bits q.Core.Explore.pt_energy_pj
      && p.Core.Explore.pt_cycles = q.Core.Explore.pt_cycles)
    a.Core.Explore.points b.Core.Explore.points

let frontier_names (o : Core.Explore.outcome) =
  List.map (fun (p : Core.Explore.point) -> p.Core.Explore.pt_name) o.Core.Explore.frontier

let pass ctx ops (chars, cands) reference i =
  let dir = Filename.concat ctx.work_dir (Printf.sprintf "explore-%d" i) in
  rm_rf dir;
  let sweep name =
    let t0 = now () in
    let o =
      op ops ~check:(fun _ -> true) (fun () ->
          Obs.Trace.with_span ~cat:"perfbench" name (fun () ->
              Core.Explore.run ~jobs
                ~cache:(Core.Eval_cache.create ~dir ())
                ~characterization:chars cands))
    in
    let dt = now () -. t0 in
    Host.sample ();
    (o, dt)
  in
  let cold = sweep "explore:cold" in
  let warm = sweep "explore:warm" in
  rm_rf dir;
  (* The oracle: the cold sweep simulates everything and finds the
     expected frontier; the warm sweep reads it all back bit for bit. *)
  (match (fst cold, fst warm) with
  | Some c, Some w ->
    let ok =
      c.Core.Explore.simulations = cold_simulations
      && w.Core.Explore.simulations = 0
      && frontier_names c = expected_frontier
      && same_points c w
      && frontier_names w = frontier_names c
    in
    if not ok then begin
      prerr_endline "perfbench: explore oracle failed (cold/warm mismatch)";
      ops.failed <- ops.failed + 1
    end
  | _ -> ());
  let t0 = now () in
  let fit =
    op ops
      ~check:(fun (f : Core.Characterize.fit) ->
        let c = Array.map bits f.Core.Characterize.model.Core.Template.coefficients in
        match !reference with
        | None ->
          reference := Some c;
          true
        | Some r -> r = c)
      (fun () ->
        Obs.Trace.with_span ~cat:"perfbench" "characterize:run" (fun () ->
            Core.Characterize.run ~jobs chars))
  in
  let dt = now () -. t0 in
  Host.sample ();
  { cold; warm; char = (fit, dt) }

(* Each op kind's quiet samples (see {!Quant.fastest}), in seconds. *)
let quiet_times passes =
  let pick f = Quant.fastest ~key:Fun.id (List.map (fun p -> snd (f p)) passes) in
  (pick (fun p -> p.cold), pick (fun p -> p.warm), pick (fun p -> p.char))

let loop_figures passes =
  let cold, warm, char = quiet_times passes in
  [ ("explore.cold_s", Report.median ~unit_:"s" cold);
    ("explore.warm_s", Report.median ~unit_:"s" warm);
    ("characterize_s", Report.median ~unit_:"s" char);
    ("passes", Report.one ~unit_:"count" (float_of_int (List.length passes)));
    ("jobs", Report.one ~unit_:"count" (float_of_int jobs)) ]

let model_of passes =
  List.find_map (fun p -> Option.map (fun f -> f.Core.Characterize.model) (fst p.char)) passes

let untraced ctx ops =
  let inputs, times = setup ctx in
  let s = setups times in
  let reference = ref None in
  let deadline = now () +. ctx.seconds in
  let rec go i acc =
    let acc = pass ctx ops inputs reference i :: acc in
    resetup s setup_once;
    if now () < deadline then go (i + 1) acc else List.rev acc
  in
  let passes = go 0 [] in
  let lat =
    let cold, warm, char = quiet_times passes in
    cold @ warm @ char
  in
  let wall = List.fold_left ( +. ) 0.0 lat in
  let ms = List.map (fun s -> s *. 1e3) lat in
  setup_figures s
  @ [ ("ops_per_s", Report.one ~unit_:"1/s" (float_of_int (List.length lat) /. wall));
      ("op_ms_p50", Report.median ~unit_:"ms" ms);
      ("op_ms_p90", Report.p90 ~unit_:"ms" ms);
      ("op_ms_geomean", Report.geomean ~unit_:"ms" ms) ]
  @ (match model_of passes with Some m -> audit_figures m | None -> [])
  @ loop_figures passes

let traced ctx ops =
  let ((chars, _) as inputs), _ = setup ctx in
  let reference = ref None in
  let i = ref 0 in
  let plain, _, ratio =
    alternate ctx (fun () ->
        incr i;
        pass ctx ops inputs reference !i)
  in
  let plain = List.map fst plain in
  let build_ms =
    median_of ~reps:3 ~scale:1e3 (fun () ->
        time "workloads:build" (fun () ->
            ignore (Workloads.Suite.characterization (), Workloads.Spaces.rs_cache ())))
  in
  let reps = 3 in
  let recs = List.map (fun c -> Replay.record c) chars in
  let power_ns = replay_ns ~reps "replay:power" recs (fun r -> Replay.power r) in
  let events = List.fold_left (fun n r -> n + Array.length r.Replay.events) 0 recs in
  let default_jobs = Core.Parallel.default_jobs () in
  let samples = ref [] in
  let collect_s =
    median_of ~reps ~scale:1.0 (fun () ->
        time "characterize:collect" (fun () -> samples := Core.Characterize.collect chars))
  in
  let collect_serial_s =
    median_of ~reps ~scale:1.0 (fun () ->
        time "characterize:collect-serial" (fun () ->
            ignore (Core.Characterize.collect ~jobs:1 chars)))
  in
  let fit_ms =
    median_of ~reps:5 ~scale:1e3 (fun () ->
        time "regress:fit" (fun () -> ignore (Core.Characterize.fit_samples !samples)))
  in
  let map_ms =
    median_of ~reps:10 ~scale:1e3 (fun () ->
        time "parallel:map" (fun () ->
            ignore (Core.Parallel.map Fun.id (List.init 16 Fun.id))))
  in
  (* Hits and lookups of the first traced-run pass, cold and warm. *)
  let counts (o : Core.Explore.outcome option * float) =
    match fst o with
    | Some o ->
      let s = o.Core.Explore.cache_stats in
      (s.Core.Eval_cache.hits, s.Core.Eval_cache.hits + s.Core.Eval_cache.misses,
       o.Core.Explore.simulations)
    | None -> (0, 0, 0)
  in
  let p0 = List.hd plain in
  let ratio_of (h, l, _) = if l = 0 then 0.0 else float_of_int h /. float_of_int l in
  let count n v = (n, Report.one ~unit_:"count" (float_of_int v)) in
  let (ch, cl, cs) as cold = counts p0.cold and (wh, wl, ws) as warm = counts p0.warm in
  [ ("workloads.build_ms", Report.one ~unit_:"ms" build_ms);
    ("trace.overhead_ratio", Report.one ~unit_:"ratio" ratio);
    ("power.ns_per_event", Report.one ~unit_:"ns" power_ns);
    ("regress.fit_ms", Report.one ~unit_:"ms" fit_ms);
    ("characterize.collect_s", Report.one ~unit_:"s" collect_s);
    ("characterize.collect_serial_s", Report.one ~unit_:"s" collect_serial_s);
    ( "parallel.efficiency",
      Report.one ~unit_:"ratio" (collect_serial_s /. (float_of_int default_jobs *. collect_s)) );
    ("parallel.map_overhead_ms", Report.one ~unit_:"ms" map_ms);
    (* The reference estimator's share of one serial characterization:
       its replayed cost over the suite's events against the whole
       collection, simulation and the other folds included. *)
    ( "power.share_of_collect",
      Report.one ~unit_:"ratio" (power_ns *. 1e-9 *. float_of_int events /. collect_serial_s) );
    count "characterize.events" events;
    ("eval_cache.hit_ratio.cold", Report.one ~unit_:"ratio" (ratio_of cold));
    ("eval_cache.hit_ratio.warm", Report.one ~unit_:"ratio" (ratio_of warm));
    count "eval_cache.hits.cold" ch;
    count "eval_cache.lookups.cold" cl;
    count "eval_cache.hits.warm" wh;
    count "eval_cache.lookups.warm" wl;
    count "explore.simulations.cold" cs;
    count "explore.simulations.warm" ws ]
  @ eval_cache_figures ctx chars
  @ loop_figures plain

let run ctx =
  let ops = ops () in
  let figures = if ctx.trace then traced ctx ops else untraced ctx ops in
  (ops, figures)
