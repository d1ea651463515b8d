(* perfbench: the end-to-end benchmark of the estimator.

     main.exe --workload estimate|explore|serve --seed N --seconds S --trace 0|1
     main.exe ab PARENT_DIR CHANGE_DIR

   Run from the repository root (it reads BENCHMARK.json there and writes
   under _perfbench/).  See perfbench/README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       main.exe ab PARENT_DIR CHANGE_DIR";
  exit 2

let out_root = "_perfbench"

let run_workload args =
  let get k =
    let rec find = function
      | k' :: v :: _ when k' = k -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage ()
  in
  let workload = match get "--workload" with Some w -> w | None -> usage () in
  let seed = int_arg "--seed" and seconds = int_arg "--seconds" in
  let trace =
    match get "--trace" with Some "1" -> true | Some "0" | None -> false | Some _ -> usage ()
  in
  let out_dir = Option.value (get "--out") ~default:(Filename.concat out_root "results") in
  let spec = Spec.load "BENCHMARK.json" in
  let run =
    match workload with
    | "estimate" -> W_estimate.run
    | "explore" -> W_explore.run
    | "serve" -> W_serve.run
    | w ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" w
        (String.concat ", " spec.Spec.workloads);
      exit 2
  in
  if seconds < 1 then usage ();
  Sim.Backend.init_from_env ();
  let work_dir = Filename.concat out_root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Report.mkdir_p work_dir;
  let ctx = { Common.seed; seconds = float_of_int seconds; trace; work_dir } in
  Obs.Trace.set_enabled trace;
  let ops, figures =
    Fun.protect ~finally:(fun () -> Common.rm_rf work_dir) (fun () -> run ctx)
  in
  if trace then
    Obs.Trace.save
      (Filename.concat out_root (Printf.sprintf "trace-%s-seed%d.json" workload seed));
  let ok =
    Report.finish ~spec ~workload ~seed ~trace ~out_dir
      { Report.attempted = ops.Common.attempted;
        failed = ops.Common.failed;
        figures }
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "ab"; parent; change ] ->
    Ab.print (Ab.verdicts ~parent:(Ab.load_dir parent) ~change:(Ab.load_dir change))
  | "ab" :: _ -> usage ()
  | args -> run_workload args
