open Perfbench

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;   (** scratch space for cache directories and sockets *)
}

let now = Unix.gettimeofday

(* A benchmark-side span around one call into a layer: recorded in the
   Chrome trace when tracing is on, timed either way. *)
let timed name f =
  let t0 = now () in
  let r = Obs.Trace.with_span ~cat:"perfbench" name f in
  (r, now () -. t0)

let time name f = snd (timed name f)

(* Closed-loop operation accounting shared by every workload. *)
type ops = { mutable attempted : int; mutable failed : int }

let ops () = { attempted = 0; failed = 0 }

(* Run one operation under its oracle: the op counts as failed when it
   raises or when [check] rejects its result. *)
let op ops ~check f =
  ops.attempted <- ops.attempted + 1;
  match f () with
  | r ->
    if not (check r) then ops.failed <- ops.failed + 1;
    Some r
  | exception e ->
    Printf.eprintf "perfbench: operation failed: %s\n%!" (Printexc.to_string e);
    ops.failed <- ops.failed + 1;
    None

let bits = Int64.bits_of_float

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [reps] timings of [f], median in the requested unit. *)
let median_of ~reps ~scale f =
  Quant.median (List.init reps (fun _ -> f () *. scale))

(* An untraced run sets up at least [min_setups] times and until
   [setup_budget_s] has gone into set-up, then again between rounds of
   the timed loop every [resetup_every_s] ({!resetup}).  A set-up takes a
   few tenths of a second, too long for one to slip between a
   neighbour's bursts, so set-ups made only in a run's first seconds all
   read that moment's load: sampled across the whole run, [setup_s] is
   taken over the quiet ones like every other timing.  A traced run sets
   up once. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.5
let resetup_every_s = 3.0

let setup_done ctx times =
  let n = List.length times in
  ctx.trace || n >= max_setups || (n >= min_setups && List.fold_left ( +. ) 0.0 times >= setup_budget_s)

(* One set-up and its time, started from a collected heap so no set-up
   pays for the garbage of the one before. *)
let timed_setup f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Host.sample ();
  (r, dt)

(* Repeat [f] as [setup_done] asks; the last set-up is the one used. *)
let repeated_setup ctx f =
  let rec go acc =
    let r, dt = timed_setup f in
    let acc = dt :: acc in
    if setup_done ctx acc then (r, acc) else go acc
  in
  go []

type setups = { mutable times : float list; mutable due : float }

let setups times = { times; due = now () +. resetup_every_s }

(* Between rounds of the loop: set up again with [f] when due. *)
let resetup s f =
  if now () >= s.due then begin
    s.times <- snd (timed_setup f) :: s.times;
    s.due <- now () +. resetup_every_s
  end

let setup_figures s =
  [ ("setup_s", Report.median ~unit_:"s" (Quant.fastest ~key:Fun.id s.times));
    ("setup.all_s", Report.median ~unit_:"s" s.times) ]

(* Alternate untraced and traced rounds until the run's time is used, so
   drift in host load hits both sides alike.  Returns each side's
   (result, wall seconds) rounds and the traced/untraced ratio of the
   fastest rounds' mean wall time. *)
let alternate ctx round =
  let deadline = now () +. ctx.seconds in
  let plain = ref [] and traced = ref [] in
  let rec go i =
    let on = i mod 2 = 1 in
    Obs.Trace.set_enabled on;
    let t0 = now () in
    let r = round () in
    let dt = now () -. t0 in
    Host.sample ();
    if on then traced := (r, dt) :: !traced else plain := (r, dt) :: !plain;
    if now () < deadline || i < 3 then go (i + 1)
  in
  go 0;
  Obs.Trace.set_enabled true;
  let quiet_mean l = Quant.mean (List.map snd (Quant.fastest ~key:snd l)) in
  (List.rev !plain, List.rev !traced, quiet_mean !traced /. quiet_mean !plain)

(* Model accuracy through the workload's own model: deterministic, so it
   repeats exactly run to run. *)
let audit_figures model =
  let r = Core.Audit.run model (Workloads.Suite.applications ()) in
  [ ("model_err_mean_pct", Report.one ~unit_:"%" r.Core.Audit.a_mean_abs);
    ("model_err_max_pct", Report.one ~unit_:"%" r.Core.Audit.a_max_abs) ]

(* Replay throughput of one observer fold, in ns per event. *)
let replay_ns ~reps name recs fold =
  let events =
    List.fold_left (fun acc r -> acc + Array.length r.Replay.events) 0 recs
  in
  median_of ~reps ~scale:(1e9 /. float_of_int events) (fun () ->
      time name (fun () -> List.iter (fun r -> ignore (fold r)) recs))

let eval_cache_figures ctx (cases : Core.Extract.case list) =
  let dir = Filename.concat ctx.work_dir "cache-layer" in
  rm_rf dir;
  let config = Sim.Config.default in
  let entry =
    let p = Core.Extract.profile (List.hd cases) in
    { Core.Eval_cache.e_name = "probe";
      e_variables = p.Core.Extract.variables;
      e_cycles = p.Core.Extract.cycles;
      e_instructions = p.Core.Extract.instructions;
      e_stall_cycles = p.Core.Extract.stall_cycles;
      e_measured_pj = None }
  in
  let n = List.length cases in
  let per_item dt = dt /. float_of_int n *. 1e6 in
  let keys = ref [] in
  let key_us =
    per_item
      (time "eval_cache:key" (fun () ->
           keys := List.map (fun c -> Core.Eval_cache.key ~config c) cases))
  in
  let cache = Core.Eval_cache.create ~dir () in
  let store_us =
    per_item
      (time "eval_cache:store" (fun () ->
           List.iter (fun k -> Core.Eval_cache.store cache k entry) !keys))
  in
  let flush_ms = time "eval_cache:flush" (fun () -> Core.Eval_cache.flush cache) *. 1e3 in
  let find_mem_us =
    per_item
      (time "eval_cache:find-memory" (fun () ->
           List.iter (fun k -> ignore (Core.Eval_cache.find cache k)) !keys))
  in
  let fresh = Core.Eval_cache.create ~dir () in
  let find_disk_us =
    per_item
      (time "eval_cache:find-disk" (fun () ->
           List.iter (fun k -> ignore (Core.Eval_cache.find fresh k)) !keys))
  in
  rm_rf dir;
  [ ("eval_cache.key_us", Report.one ~unit_:"us" key_us);
    ("eval_cache.store_us", Report.one ~unit_:"us" store_us);
    ("eval_cache.flush_ms", Report.one ~unit_:"ms" flush_ms);
    ("eval_cache.find_mem_us", Report.one ~unit_:"us" find_mem_us);
    ("eval_cache.find_disk_us", Report.one ~unit_:"us" find_disk_us) ]
