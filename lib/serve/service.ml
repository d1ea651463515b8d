(* --- Phase clock ------------------------------------------------------------ *)

(* Phases are (name, self seconds) in reverse recording order: a phase
   opened inside another is charged to itself only. *)
type clock = {
  mutable c_phases : (string * float) list;
  mutable c_nested : float;  (* time recorded by phases inside the open one *)
}

let clock_var : clock Obs.Scope.var = Obs.Scope.create ()

let phase name f =
  match Obs.Scope.get clock_var with
  | None -> Obs.Trace.with_span ~cat:"serve" ("phase:" ^ name) f
  | Some c ->
    let outer = c.c_nested in
    c.c_nested <- 0.0;
    Obs.Trace.with_span_timed ~cat:"serve"
      ~elapsed:(fun s ->
        c.c_phases <- (name, s -. c.c_nested) :: c.c_phases;
        c.c_nested <- outer +. s)
      ("phase:" ^ name) f

let phase_order = [ "queue"; "parse"; "registry"; "cache"; "simulate"; "serialize" ]

let merged c =
  let recorded = List.rev c.c_phases in
  let seen =
    List.fold_left
      (fun acc (n, _) -> if List.mem n acc then acc else acc @ [ n ])
      [] recorded
  in
  let total n =
    List.fold_left (fun a (m, s) -> if m = n then a +. s else a) 0.0 recorded
  in
  List.map
    (fun n -> (n, total n))
    (List.filter (fun n -> List.mem n seen) phase_order
    @ List.filter (fun n -> not (List.mem n phase_order)) seen)

let timed ?(preset = []) f =
  let c = { c_phases = List.rev preset; c_nested = 0.0 } in
  let r = Obs.Scope.with_value clock_var c f in
  (r, merged c)

(* --- Failures and argument checks ----------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let message = function
  | Failure msg | Invalid_argument msg -> Some msg
  | Obs.Json.Parse_error msg -> Some ("invalid JSON: " ^ msg)
  | Sim.Cpu.Sim_error msg -> Some ("simulation failed: " ^ msg)
  | Sim.Backend.Mismatch msg ->
    Obs.Log.event ~level:Obs.Log.Error "backend:mismatch"
      [ ("error", Obs.Trace.S msg) ];
    Some msg
  | _ -> None

let find_case name =
  try Workloads.Suite.find name
  with Not_found -> fail "unknown workload %S; try `xenergy list'" name

let cases ~op = function
  | [] -> fail "%s: empty workload list" op
  | names -> List.map find_case names

let positive ~op what = function
  | Some n when n <= 0 -> fail "%s: %s must be positive" op what
  | _ -> ()

(* --- The service ---------------------------------------------------------- *)

type t = {
  registry : Registry.t;
  cache : Core.Eval_cache.t;  (* locks itself *)
  jobs : int option;
  simulate : Core.Eval_cache.simulate option;
}

let create ?jobs ?(cache = Core.Eval_cache.create ()) ?characterize
    ?on_characterize ?simulate ?model () =
  let fit =
    match characterize with
    | Some f -> fun config -> (f config, 0)
    | None ->
      fun config ->
        Core.Characterize.model ?jobs ~cache ~config
          (Workloads.Suite.characterization ())
  in
  let characterize config =
    Option.iter (fun f -> f ()) on_characterize;
    fit config
  in
  let registry = Registry.create ~characterize () in
  Option.iter
    (fun path ->
      let m =
        try Core.Template.load path
        with Sys_error msg | Failure msg -> fail "cannot load model: %s" msg
      in
      Registry.preload registry Sim.Config.default m)
    model;
  { registry; cache; jobs; simulate }

let registry t = t.registry
let cache t = t.cache

let lookup t config = phase "registry" (fun () -> Registry.get t.registry config)

let model t = (lookup t Sim.Config.default).Registry.l_model

(* --- Ops ------------------------------------------------------------------ *)

let estimate t ?(config = Sim.Config.default) names =
  let cases = cases ~op:"estimate" names in
  let l = lookup t config in
  let rows, _ =
    phase "cache" @@ fun () ->
    Core.Eval_cache.collect ?jobs:t.jobs ?simulate:t.simulate t.cache
      ~with_ref:false ~config cases
  in
  ( List.map
      (fun (e, cached) -> (Core.Estimate.of_entry l.Registry.l_model e, cached))
      rows,
    l )

let profile t ?(config = Sim.Config.default) ?top name =
  positive ~op:"profile" "top" top;
  let case = find_case name in
  let l = lookup t config in
  (phase "simulate" (fun () -> Core.Profiler.run ~config l.Registry.l_model case), l)

let attribute t ?(config = Sim.Config.default) ?bucket_cycles ?hook name =
  positive ~op:"attribute" "bucket width" bucket_cycles;
  let case = find_case name in
  let l = lookup t config in
  let hook = Option.map (fun h -> h case) hook in
  ( phase "simulate" (fun () ->
        Core.Attribution.run ~config ?bucket_cycles ?hook l.Registry.l_model case),
    l )

let audit t ?(config = Sim.Config.default) ?workloads () =
  let cases =
    match workloads with
    | Some names -> cases ~op:"audit" names
    | None -> Workloads.Suite.applications ()
  in
  let l = lookup t config in
  ( phase "simulate" (fun () ->
        Core.Audit.run ?jobs:t.jobs ~cache:t.cache ~config l.Registry.l_model
          cases),
    l )

(* [evaluate] resolves each configuration's model before it simulates a
   candidate; the registry phase nests inside the simulate phase and is
   charged its own time. *)
let explore t ?progress ?explain ?profile_top name =
  let candidates =
    match Workloads.Spaces.find name with
    | Some space -> space ()
    | None ->
      fail "unknown space %S; available: %s" name
        (String.concat ", " Workloads.Spaces.names)
  in
  let lookups = ref [] in
  let model_for config =
    let l = lookup t config in
    lookups := l :: !lookups;
    (l.Registry.l_model, l.Registry.l_simulations)
  in
  let o =
    phase "simulate" @@ fun () ->
    Core.Explore.evaluate ?jobs:t.jobs ~cache:t.cache ?progress ?explain
      ?profile_top model_for candidates
  in
  (o, List.rev !lookups)

let characterize t =
  let samples, report =
    phase "simulate" @@ fun () ->
    Core.Characterize.collect_with_report ?jobs:t.jobs ~cache:t.cache
      (Workloads.Suite.characterization ())
  in
  phase "fit" @@ fun () ->
  ( Core.Characterize.fit_samples samples,
    Core.Characterize.cross_validate ?jobs:t.jobs samples,
    report )
