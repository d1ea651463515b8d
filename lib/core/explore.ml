type candidate = {
  cand_name : string;
  case : Extract.case;
  config : Sim.Config.t;
}

let candidate ?name ?(config = Sim.Config.default) (case : Extract.case) =
  { cand_name = Option.value name ~default:case.Extract.case_name;
    case;
    config }

type point = {
  pt_name : string;
  pt_energy_pj : float;
  pt_energy_uj : float;
  pt_cycles : int;
  pt_instructions : int;
  pt_cached : bool;
}

type progress = {
  pr_phase : string;
  pr_done : int;
  pr_total : int;
  pr_hits : int;
  pr_misses : int;
  pr_frontier : int;
  pr_elapsed_s : float;
  pr_eta_s : float option;
}

type outcome = {
  points : point list;
  frontier : point list;
  explained : (string * Attribution.row list) list;
  profiled : (string * Profiler.report) list;
  profile_top : int;
  configs_characterized : int;
  simulations : int;
  cache_stats : Eval_cache.stats;
  wall_seconds : float;
}

(* --- Pareto frontier ------------------------------------------------------ *)

let dominates a b =
  a.pt_cycles <= b.pt_cycles
  && a.pt_energy_pj <= b.pt_energy_pj
  && (a.pt_cycles < b.pt_cycles || a.pt_energy_pj < b.pt_energy_pj)

let pareto points =
  List.filter
    (fun p -> not (List.exists (fun q -> dominates q p) points))
    points
  |> List.sort (fun a b ->
         match compare a.pt_cycles b.pt_cycles with
         | 0 -> (
           match compare a.pt_energy_pj b.pt_energy_pj with
           | 0 -> compare a.pt_name b.pt_name
           | c -> c)
         | c -> c)

(* --- Sweeps --------------------------------------------------------------- *)

let same_config a b = compare (a : Sim.Config.t) b = 0

let validate candidates =
  if candidates = [] then invalid_arg "Explore: no candidates";
  let rec dup = function
    | [] -> ()
    | c :: rest ->
      if List.exists (fun c' -> c'.cand_name = c.cand_name) rest then
        invalid_arg
          (Printf.sprintf "Explore: duplicate candidate name %S" c.cand_name);
      dup rest
  in
  dup candidates

let chunk_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let distinct_configs candidates =
  List.fold_left
    (fun acc c ->
      if List.exists (same_config c.config) acc then acc else acc @ [ c.config ])
    [] candidates

(* Each distinct configuration's model is resolved once, up front, in
   first-use order.  Candidates are then fed to the pool in chunks, so a
   heartbeat (progress callback + [explore:heartbeat] log record) lands
   between chunks with live hit/frontier/ETA figures, instead of one
   mute span per sweep. *)
let evaluate ?jobs ?(cache = Eval_cache.create ()) ?(progress = fun _ -> ())
    ?(explain = false) ?profile_top model_for candidates =
  validate candidates;
  (match profile_top with
   | Some n when n <= 0 -> invalid_arg "Explore: profile_top must be positive"
   | _ -> ());
  let before = Eval_cache.stats cache in
  let t0 = Unix.gettimeofday () in
  let heartbeat ~phase ~n_done ~total ~frontier =
    let s = Eval_cache.diff (Eval_cache.stats cache) before in
    let elapsed = Unix.gettimeofday () -. t0 in
    let p =
      { pr_phase = phase;
        pr_done = n_done;
        pr_total = total;
        pr_hits = s.Eval_cache.hits;
        pr_misses = s.Eval_cache.misses;
        pr_frontier = frontier;
        pr_elapsed_s = elapsed;
        pr_eta_s =
          (if phase = "evaluate" && n_done > 0 && n_done < total then
             Some (elapsed /. float_of_int n_done
                   *. float_of_int (total - n_done))
           else None) }
    in
    Obs.Log.event "explore:heartbeat"
      ([ ("phase", Obs.Trace.S p.pr_phase);
         ("done", Obs.Trace.I p.pr_done);
         ("total", Obs.Trace.I p.pr_total);
         ("hits", Obs.Trace.I p.pr_hits);
         ("misses", Obs.Trace.I p.pr_misses);
         ("frontier", Obs.Trace.I p.pr_frontier);
         ("elapsed_s", Obs.Trace.F p.pr_elapsed_s) ]
      @ match p.pr_eta_s with
        | None -> []
        | Some e -> [ ("eta_s", Obs.Trace.F e) ]);
    progress p
  in
  Obs.Trace.with_span ~cat:"explore" "explore" @@ fun () ->
  let configs = distinct_configs candidates in
  Obs.Log.event "explore:start"
    [ ("candidates", Obs.Trace.I (List.length candidates));
      ("configs", Obs.Trace.I (List.length configs)) ];
  let simulations = ref 0 in
  let models =
    List.mapi
      (fun i cfg ->
        Obs.Trace.with_span ~cat:"explore"
          (Printf.sprintf "characterize:config%d" i)
        @@ fun () ->
        let model, sims = model_for cfg in
        simulations := !simulations + sims;
        heartbeat ~phase:"characterize" ~n_done:(i + 1)
          ~total:(List.length configs) ~frontier:0;
        (cfg, model))
      configs
  in
  let total = List.length candidates in
  let n_done = ref 0 in
  let acc = ref [] in
  let evaluated = Hashtbl.create 16 in
  let chunk_size =
    2 * max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  let indexed = List.mapi (fun i c -> (i, c)) candidates in
  List.iter
    (fun (cfg, model) ->
      let group =
        List.filter (fun (_, c) -> same_config c.config cfg) indexed
      in
      List.iter
        (fun chunk ->
          let rows, sims =
            Eval_cache.collect ?jobs cache ~with_ref:false ~config:cfg
              (List.map (fun (_, c) -> c.case) chunk)
          in
          simulations := !simulations + sims;
          let pts =
            List.map2
              (fun (i, c) ((e : Eval_cache.entry), cached) ->
                let pj = Template.energy model e.Eval_cache.e_variables in
                Obs.Log.event ~level:Obs.Log.Debug "explore:candidate"
                  [ ("name", Obs.Trace.S c.cand_name);
                    ("cycles", Obs.Trace.I e.Eval_cache.e_cycles);
                    ("energy_pj", Obs.Trace.F pj);
                    ("cached", Obs.Trace.B cached) ];
                Hashtbl.replace evaluated c.cand_name
                  (c, model, e.Eval_cache.e_variables);
                ( i,
                  { pt_name = c.cand_name;
                    pt_energy_pj = pj;
                    pt_energy_uj = Power.Report.to_uj pj;
                    pt_cycles = e.Eval_cache.e_cycles;
                    pt_instructions = e.Eval_cache.e_instructions;
                    pt_cached = cached } ))
              chunk rows
          in
          acc := pts @ !acc;
          n_done := !n_done + List.length pts;
          heartbeat ~phase:"evaluate" ~n_done:!n_done ~total
            ~frontier:(List.length (pareto (List.map snd !acc))))
        (chunk_list chunk_size group))
    models;
  let points =
    List.sort (fun (i, _) (j, _) -> compare i j) !acc |> List.map snd
  in
  let frontier = pareto points in
  let per_frontier f =
    List.map (fun p -> (p.pt_name, f (Hashtbl.find evaluated p.pt_name)))
      frontier
  in
  (* The model is linear, so each frontier point decomposes exactly from
     its (cached) variable vector — no further simulation. *)
  let explained =
    if not explain then []
    else per_frontier (fun (_, m, v) -> Attribution.decompose m v)
  in
  (* Hotspot profiles for the frontier: unlike [explained], a profile
     folds the run's retire hook, so each one is a fresh simulation (the
     cache cannot serve it). *)
  let profiled =
    if profile_top = None then []
    else
      per_frontier (fun (c, m, _) ->
          incr simulations;
          Profiler.run ~config:c.config m c.case)
  in
  (* Publish the sweep's warm hits as their entries' last uses. *)
  Eval_cache.flush cache;
  let o =
    { points;
      frontier;
      explained;
      profiled;
      profile_top = Option.value profile_top ~default:0;
      configs_characterized = List.length configs;
      simulations = !simulations;
      cache_stats = Eval_cache.diff (Eval_cache.stats cache) before;
      wall_seconds = Unix.gettimeofday () -. t0 }
  in
  Obs.Log.event "explore:done"
    [ ("candidates", Obs.Trace.I (List.length o.points));
      ("frontier", Obs.Trace.I (List.length o.frontier));
      ("simulations", Obs.Trace.I o.simulations);
      ("hits", Obs.Trace.I o.cache_stats.Eval_cache.hits);
      ("misses", Obs.Trace.I o.cache_stats.Eval_cache.misses);
      ("wall_s", Obs.Trace.F o.wall_seconds) ];
  o

(* Read each distinct configuration's model through the sweep's cache
   (fitting it over the characterization suite on a miss). *)
let run ?jobs ?(cache = Eval_cache.create ()) ?progress ?explain ?profile_top
    ~characterization candidates =
  evaluate ?jobs ~cache ?progress ?explain ?profile_top
    (fun config -> Characterize.model ?jobs ~cache ~config characterization)
    candidates

(* --- Rendering ------------------------------------------------------------ *)

let on_frontier o p = List.memq p o.frontier

let to_json o =
  let module J = Obs.Json in
  let point p =
    J.Obj
      [ ("name", J.Str p.pt_name);
        ("cycles", J.int p.pt_cycles);
        ("instructions", J.int p.pt_instructions);
        ("energy_pj", J.Num p.pt_energy_pj);
        ("energy_uj", J.Num p.pt_energy_uj);
        ("cached", J.Bool p.pt_cached);
        ("pareto", J.Bool (on_frontier o p)) ]
  in
  let explained_row (r : Attribution.row) =
    J.Obj
      [ ("variable", J.Str (Variables.name r.Attribution.variable));
        ("count", J.Num r.Attribution.count);
        ("coefficient_pj", J.Num r.Attribution.coefficient_pj);
        ("energy_pj", J.Num r.Attribution.energy_pj);
        ("share", J.Num r.Attribution.share) ]
  in
  let section key f = function
    | [] -> []
    | l -> [ (key, J.Obj (List.map (fun (name, x) -> (name, f x)) l)) ]
  in
  let cs = o.cache_stats in
  J.Obj
    ([ ( "units",
         J.Obj
           [ ("energy_pj", J.Str "picojoules");
             ("energy_uj", J.Str "microjoules");
             ("wall_seconds", J.Str "seconds") ] );
       ("candidates", J.int (List.length o.points));
       ("configs_characterized", J.int o.configs_characterized);
       ("simulations", J.int o.simulations);
       ( "cache",
         J.Obj
           [ ("hits", J.int cs.Eval_cache.hits);
             ("misses", J.int cs.Eval_cache.misses);
             ("errors", J.int cs.Eval_cache.errors);
             ("stores", J.int cs.Eval_cache.stores) ] );
       ("wall_seconds", J.Num o.wall_seconds);
       ("points", J.Arr (List.map point o.points));
       ("pareto", J.Arr (List.map (fun p -> J.Str p.pt_name) o.frontier)) ]
    @ section "profiles" (Profiler.to_json ~top:o.profile_top) o.profiled
    @ section "explained"
        (fun rows -> J.Arr (List.map explained_row rows))
        o.explained)

let to_csv ?(pareto_only = false) o =
  let b = Buffer.create 512 in
  Buffer.add_string b "name,cycles,instructions,energy_pj,energy_uj,cached,pareto\n";
  List.iter
    (fun p ->
      if (not pareto_only) || on_frontier o p then
        Printf.bprintf b "%s,%d,%d,%.6f,%.9f,%b,%b\n" p.pt_name p.pt_cycles
          p.pt_instructions p.pt_energy_pj p.pt_energy_uj p.pt_cached
          (on_frontier o p))
    o.points;
  Buffer.contents b

let pp ?(pareto_only = false) ppf o =
  Format.fprintf ppf "@[<v>%-24s %10s %10s %12s %7s %7s@," "candidate"
    "cycles" "instrs" "energy (uJ)" "cached" "pareto";
  List.iter
    (fun p ->
      if (not pareto_only) || on_frontier o p then
        Format.fprintf ppf "%-24s %10d %10d %12.3f %7s %7s@," p.pt_name
          p.pt_cycles p.pt_instructions p.pt_energy_uj
          (if p.pt_cached then "yes" else "-")
          (if on_frontier o p then "*" else ""))
    o.points;
  Format.fprintf ppf
    "Pareto frontier: %s@,"
    (String.concat " -> " (List.map (fun p -> p.pt_name) o.frontier));
  List.iter
    (fun (name, rows) ->
      Format.fprintf ppf "@,%s — model energy by variable:@," name;
      List.iter
        (fun (r : Attribution.row) ->
          if r.Attribution.count <> 0.0 then
            Format.fprintf ppf "  %-12s %12.1f x %9.1f pJ = %10.3f uJ (%5.1f%%)@,"
              (Variables.name r.Attribution.variable)
              r.Attribution.count r.Attribution.coefficient_pj
              (r.Attribution.energy_pj /. 1.0e6)
              (100.0 *. r.Attribution.share))
        rows)
    o.explained;
  List.iter
    (fun (name, r) ->
      Format.fprintf ppf "@,%s — hotspots:@,%a@," name
        (Profiler.pp_table ~top:o.profile_top)
        r)
    o.profiled;
  Format.fprintf ppf
    "%d candidate%s, %d config%s characterized, %d simulation%s \
     (cache: %d hit%s, %d miss%s, %d error%s)@,"
    (List.length o.points)
    (if List.length o.points = 1 then "" else "s")
    o.configs_characterized
    (if o.configs_characterized = 1 then "" else "s")
    o.simulations
    (if o.simulations = 1 then "" else "s")
    o.cache_stats.Eval_cache.hits
    (if o.cache_stats.Eval_cache.hits = 1 then "" else "s")
    o.cache_stats.Eval_cache.misses
    (if o.cache_stats.Eval_cache.misses = 1 then "" else "es")
    o.cache_stats.Eval_cache.errors
    (if o.cache_stats.Eval_cache.errors = 1 then "" else "s");
  Format.fprintf ppf "wall time %.2f s@]" o.wall_seconds
