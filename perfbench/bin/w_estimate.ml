(* Workload [estimate]: one caller estimating a fixed program set with a
   model characterized during set-up — the offline CLI path, simulation
   plus the Stats/Resource folds, with no cache and no fork, in the loop
   or in set-up. *)

open Perfbench
open Common

let setup_once ctx () =
  let cases = fst (timed "workloads:build" (fun () -> Inputs.estimate_set ~seed:ctx.seed)) in
  let fit =
    fst
      (timed "characterize:run" (fun () ->
           Core.Characterize.run ~jobs:1 (Workloads.Suite.characterization ())))
  in
  (cases, fit.Core.Characterize.model)

let setup ctx = repeated_setup ctx (setup_once ctx)

type pass = {
  calls_ms : float list;
  instructions : int;
}

(* One closed-loop pass over the set.  Energy bits and cycles of every
   program must equal the first pass's. *)
let pass ops model cases reference =
  let calls = ref [] and instructions = ref 0 in
  List.iteri
    (fun i (c : Core.Extract.case) ->
      let t0 = now () in
      let check (r : Core.Estimate.result) =
        match reference.(i) with
        | None ->
          reference.(i) <- Some (bits r.Core.Estimate.energy_pj, r.Core.Estimate.cycles);
          true
        | Some (e, cy) -> bits r.Core.Estimate.energy_pj = e && r.Core.Estimate.cycles = cy
      in
      match
        op ops ~check (fun () ->
            Obs.Trace.with_span ~cat:"perfbench" ("estimate:" ^ c.Core.Extract.case_name)
              (fun () -> Core.Estimate.run model c))
      with
      | Some r ->
        calls := (now () -. t0) *. 1e3 :: !calls;
        instructions := !instructions + r.Core.Estimate.instructions
      | None -> ())
    cases;
  { calls_ms = List.rev !calls; instructions = !instructions }

(* The dual-run oracle: interpreter and threaded backend must agree
   bit for bit on every program of the set. *)
let check_backends ops cases =
  List.iter
    (fun (c : Core.Extract.case) ->
      ignore
        (op ops ~check:(fun _ -> true) (fun () ->
             Sim.Backend.run_program ~backend:Sim.Backend.Check
               ?extension:c.Core.Extract.extension c.Core.Extract.asm)))
    cases

(* Each program's latency is taken over its quiet calls (see
   {!Quant.fastest}): one mean per program of the set. *)
let latencies rounds =
  let passes = List.map (fun (p, _) -> Array.of_list p.calls_ms) rounds in
  let width = List.fold_left (fun w a -> min w (Array.length a)) max_int passes in
  List.init width (fun i -> Quant.mean (Quant.fastest ~key:Fun.id (List.map (fun a -> a.(i)) passes)))

(* Latency figures cover the fixed programs; the seed-drawn ones count
   toward throughput only, so the seed cannot move the percentiles. *)
let fixed_count = List.length (Inputs.fixed_estimate_set ())

let loop_figures rounds =
  let all = latencies rounds in
  let lat = List.filteri (fun i _ -> i < fixed_count) all in
  let total_s = List.fold_left ( +. ) 0.0 all /. 1e3 in
  let instructions = (fst (List.hd rounds)).instructions in
  ( lat,
    float_of_int (List.length all) /. total_s,
    [ ( "estimate.minstr_per_s",
        Report.one ~unit_:"Minstr/s" (float_of_int instructions /. total_s /. 1e6) );
      ("estimate.call_ms_p50", Report.median ~unit_:"ms" lat);
      ("estimate.call_ms_p90", Report.p90 ~unit_:"ms" lat);
      ("passes", Report.one ~unit_:"count" (float_of_int (List.length rounds))) ] )

let untraced ctx ops =
  let (cases, model), times = setup ctx in
  let s = setups times in
  let reference = Array.make (List.length cases) None in
  let deadline = now () +. ctx.seconds in
  let rec go acc =
    let t0 = now () in
    let p = pass ops model cases reference in
    let acc = (p, now () -. t0) :: acc in
    Host.sample ();
    resetup s (setup_once ctx);
    if now () < deadline then go acc else List.rev acc
  in
  let rounds = go [] in
  check_backends ops cases;
  let calls, ops_per_s, detail = loop_figures rounds in
  setup_figures s
  @ [ ("ops_per_s", Report.one ~unit_:"1/s" ops_per_s);
      ("op_ms_p50", Report.median ~unit_:"ms" calls);
      ("op_ms_p90", Report.p90 ~unit_:"ms" calls);
      ("op_ms_geomean", Report.geomean ~unit_:"ms" calls) ]
  @ audit_figures model @ detail

let traced ctx ops =
  let (cases, model), _ = setup ctx in
  let reference = Array.make (List.length cases) None in
  let plain, _, ratio = alternate ctx (fun () -> pass ops model cases reference) in
  check_backends ops cases;
  let fixed = Inputs.fixed_estimate_set () in
  let build_ms =
    median_of ~reps:3 ~scale:1e3 (fun () ->
        time "workloads:build" (fun () -> ignore (Inputs.estimate_set ~seed:ctx.seed)))
  in
  (* Unobserved simulation on each backend, interleaved per repetition. *)
  let sim_pass backend () =
    List.fold_left
      (fun (ins, cyc) (c : Core.Extract.case) ->
        let cpu, _ =
          Sim.Backend.run_program ~backend ?extension:c.Core.Extract.extension
            c.Core.Extract.asm
        in
        (ins + Sim.Cpu.instructions cpu, cyc + Sim.Cpu.cycles cpu))
      (0, 0) fixed
  in
  let instructions, cycles = sim_pass Sim.Backend.Interp () in
  let per_instr dt = dt *. 1e9 /. float_of_int instructions in
  let reps = 5 in
  let interp = ref [] and threaded = ref [] in
  for _ = 1 to reps do
    interp := per_instr (time "sim:interp" (fun () -> ignore (sim_pass Sim.Backend.Interp ()))) :: !interp;
    threaded :=
      per_instr (time "sim:threaded" (fun () -> ignore (sim_pass Sim.Backend.Threaded ())))
      :: !threaded
  done;
  let recs = List.map (fun c -> Replay.record c) fixed in
  let stats_ns = replay_ns ~reps "replay:stats" recs (fun r -> Replay.stats r) in
  let resource_ns = replay_ns ~reps "replay:resource" recs Replay.resource in
  let extract_ns =
    median_of ~reps ~scale:(1e9 /. float_of_int instructions) (fun () ->
        time "extract:profile" (fun () ->
            List.iter (fun c -> ignore (Core.Extract.profile c)) fixed))
  in
  let vars = (Core.Extract.profile (List.hd fixed)).Core.Extract.variables in
  let k = 100_000 in
  let template_ns =
    median_of ~reps ~scale:(1e9 /. float_of_int k) (fun () ->
        time "template:energy" (fun () ->
            for _ = 1 to k do
              ignore (Sys.opaque_identity (Core.Template.energy model vars))
            done))
  in
  let count name n = (name, Report.one ~unit_:"count" (float_of_int n)) in
  [ ("workloads.build_ms", Report.one ~unit_:"ms" build_ms);
    ("trace.overhead_ratio", Report.one ~unit_:"ratio" ratio);
    ("sim.interp_ns_per_instr", Report.median ~unit_:"ns" !interp);
    ("sim.threaded_ns_per_instr", Report.median ~unit_:"ns" !threaded);
    count "sim.instructions" instructions;
    count "sim.cycles" cycles;
    ("stats.ns_per_event", Report.one ~unit_:"ns" stats_ns);
    ("resource.ns_per_event", Report.one ~unit_:"ns" resource_ns);
    ("extract.ns_per_instr", Report.one ~unit_:"ns" extract_ns);
    ("template.energy_ns", Report.one ~unit_:"ns" template_ns) ]
  @ (let _, _, detail = loop_figures plain in detail)

let run ctx =
  let ops = ops () in
  let figures = if ctx.trace then traced ctx ops else untraced ctx ops in
  (ops, figures)
