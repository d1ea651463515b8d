(* Workload [serve]: one daemon ([Serve.Server.run] over a real
   [Serve.Router.create], default settings but one worker) forked by the
   benchmark and
   driven closed-loop by two client sessions on two threads.  The
   seed-drawn mix is 80% warm [estimate] batches (registry and eval-cache
   hits) and 20% [profile]/[attribute] requests, which simulate with
   observers on every call. *)

open Perfbench
open Common
module J = Obs.Json

let clients = 2
let phases = [ "queue"; "parse"; "registry"; "cache"; "simulate"; "serialize"; "other" ]

let member k = function J.Obj f -> List.assoc_opt k f | _ -> None
let num_field k j = match member k j with Some (J.Num f) -> Some f | _ -> None
let is_ok j = member "ok" j = Some (J.Bool true)

(* --- Daemon lifecycle ------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let spawn ctx ~traced i =
  let socket = Filename.concat ctx.work_dir (Printf.sprintf "d%d.sock" i) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* The daemon characterizes its model on one process.  At the default
       two workers the set-up waits for the slower one, and its median
       over ten runs moved by 32% between two sets of the same code on a
       shared 2-core host.  Only set-up changes: the warm loop never
       reaches the worker pool. *)
    Unix.putenv "XENERGY_JOBS" "1";
    Obs.Trace.after_fork ();
    Obs.Trace.set_enabled traced;
    Obs.Trace.clear ();
    (try Serve.Server.run ~socket (Serve.Router.create ())
     with e -> Printf.eprintf "perfbench: daemon: %s\n%!" (Printexc.to_string e));
    if traced then
      Obs.Trace.save
        (Filename.concat (Filename.dirname ctx.work_dir)
           (Printf.sprintf "trace-serve-daemon-seed%d.json" ctx.seed));
    Unix._exit 0
  | pid -> { pid; socket }

let call ?(timeout_s = 60.0) d req = Serve.Client.call ~timeout_s ~socket:d.socket req

let wait_up d =
  let give_up = now () +. 30.0 in
  let rec go () =
    match call ~timeout_s:1.0 d (J.Obj [ ("op", J.Str "ping") ]) with
    | r when is_ok r -> ()
    | _ | (exception (Unix.Unix_error _ | Serve.Protocol.Frame_error _ | J.Parse_error _)) ->
      if now () > give_up then failwith "perfbench: daemon did not come up";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let stop d =
  (try ignore (call ~timeout_s:10.0 d (J.Obj [ ("op", J.Str "shutdown") ]))
   with _ -> Unix.kill d.pid Sys.sigterm);
  Core.Parallel.reap d.pid

(* Set-up as a user pays it: fork the daemon, wait for its socket, and
   answer the first request, which characterizes the default config. *)
let start ctx ~traced i =
  let d = spawn ctx ~traced i in
  match
    wait_up d;
    call d (J.Obj [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "gcd" ]) ])
  with
  | r when is_ok r -> d
  | _ ->
    stop d;
    failwith "perfbench: first daemon request failed"
  | exception e ->
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    Core.Parallel.reap d.pid;
    raise e

(* --- Oracle ------------------------------------------------------------------- *)

(* Offline reference: [Core.Estimate.run] under the model the daemon's
   registry fits (same suite, same default configuration). *)
let offline model =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (c : Core.Extract.case) ->
      Hashtbl.replace tbl c.Core.Extract.case_name (Core.Estimate.run model c))
    (Inputs.fixed_estimate_set ());
  tbl

let close_pj a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let valid tbl (req : Inputs.request) resp =
  is_ok resp
  &&
  match req.Inputs.kind with
  | Inputs.Estimate -> (
    member "registry_hit" resp = Some (J.Bool true)
    &&
    match member "results" resp with
    | Some (J.Arr rows) ->
      List.length rows = List.length req.Inputs.names
      && List.for_all2
           (fun name row ->
             let r = Hashtbl.find tbl name in
             member "name" row = Some (J.Str name)
             && Option.map bits (num_field "energy_pj" row)
                = Some (bits r.Core.Estimate.energy_pj)
             && num_field "cycles" row = Some (float_of_int r.Core.Estimate.cycles))
           req.Inputs.names rows
    | _ -> false)
  | Inputs.Sim -> (
    let r = Hashtbl.find tbl (List.hd req.Inputs.names) in
    let body =
      match member "profile" resp with Some p -> Some p | None -> member "attribution" resp
    in
    match body with
    | Some b ->
      num_field "cycles" b = Some (float_of_int r.Core.Estimate.cycles)
      && (match num_field "cycle_gap" b with Some g -> g = 0.0 | None -> true)
      && (match num_field "total_energy_pj" b with
         | Some e -> close_pj e r.Core.Estimate.energy_pj
         | None -> false)
    | None -> false)

(* --- Closed-loop clients --------------------------------------------------------- *)

type sample = {
  kind : Inputs.kind;
  rtt_s : float;
  timings : J.t option;
}

(* Each client owns a slice of the round and the clients send their
   slices in lockstep cycles, so every cycle of a client sends the same
   requests and the host calibration, then [between], run between
   cycles, while the daemon is idle.  A request's latency is taken over
   its quiet repetitions (see {!Quant.fastest}); [quiet] holds those
   samples, [latency_ms] one mean latency per request of the round, and
   [req_per_s] the clients' combined closed-loop rate at those
   latencies. *)
type drive = {
  quiet : sample list;
  latency_ms : (Inputs.kind * float) list;
  req_per_s : float;
  d_attempted : int;
  d_failed : int;
}

let drive ?(between = ignore) d tbl round ~seconds =
  let deadline = now () +. seconds in
  let slices = round in
  let sessions = Array.make clients None in
  let attempted = Array.make clients 0 and failed = Array.make clients 0 in
  let request k (req : Inputs.request) =
    attempted.(k) <- attempted.(k) + 1;
    try
      let s =
        match sessions.(k) with
        | Some s -> s
        | None ->
          let s = Serve.Client.connect ~socket:d.socket in
          sessions.(k) <- Some s;
          s
      in
      let t = now () in
      let resp = Serve.Client.session_call ~timeout_s:60.0 s req.Inputs.json in
      let rtt_s = now () -. t in
      if valid tbl req resp then
        Some { kind = req.Inputs.kind; rtt_s; timings = member "timings" resp }
      else begin
        Printf.eprintf "perfbench: serve oracle rejected %s\n%!"
          (Serve.Protocol.json_to_string resp);
        failed.(k) <- failed.(k) + 1;
        None
      end
    with e ->
      Printf.eprintf "perfbench: serve request failed: %s\n%!" (Printexc.to_string e);
      failed.(k) <- failed.(k) + 1;
      Option.iter Serve.Client.close sessions.(k);
      sessions.(k) <- None;
      None
  in
  (* One cycle: each client thread sends its slice once, all at the same
     time.  A slice the deadline cuts short reads [None]: its requests
     count as attempted but not toward the timings. *)
  let cycle () =
    let out = Array.make clients None in
    let run k () =
      let slice = slices.(k) in
      let rec go j got =
        if j = Array.length slice then out.(k) <- Some (Array.of_list (List.rev got))
        else if now () < deadline then go (j + 1) (request k slice.(j) :: got)
      in
      go 0 []
    in
    List.iter Thread.join (List.init clients (fun k -> Thread.create (run k) ()));
    out
  in
  let rec loop acc =
    if now () >= deadline then acc
    else begin
      let c = cycle () in
      Host.sample ();
      between ();
      loop (c :: acc)
    end
  in
  let cycles = loop [] in
  Array.iter (Option.iter Serve.Client.close) sessions;
  let per_client k =
    let cycles = List.filter_map (fun c -> c.(k)) cycles in
    let kept =
      List.filter_map
        (fun j ->
          match List.filter_map (fun c -> c.(j)) cycles with
          | [] -> None
          | reps -> Some (Quant.fastest ~key:(fun s -> s.rtt_s) reps))
        (List.init (Array.length slices.(k)) Fun.id)
    in
    let lat =
      List.map
        (fun q -> ((List.hd q).kind, Quant.mean (List.map (fun s -> s.rtt_s *. 1e3) q)))
        kept
    in
    let total_s = List.fold_left (fun t (_, ms) -> t +. (ms /. 1e3)) 0.0 lat in
    (List.concat kept, lat, if total_s > 0.0 then float_of_int (List.length lat) /. total_s else 0.0)
  in
  List.fold_left
    (fun acc k ->
      let q, lat, rate = per_client k in
      { quiet = q @ acc.quiet;
        latency_ms = lat @ acc.latency_ms;
        req_per_s = acc.req_per_s +. rate;
        d_attempted = acc.d_attempted + attempted.(k);
        d_failed = acc.d_failed + failed.(k) })
    { quiet = []; latency_ms = []; req_per_s = 0.0; d_attempted = 0; d_failed = 0 }
    (List.init clients Fun.id)

let account ops (dr : drive) =
  ops.attempted <- ops.attempted + dr.d_attempted;
  ops.failed <- ops.failed + dr.d_failed

let rtt_ms kind dr =
  List.filter_map (fun (k, ms) -> if kind = None || Some k = kind then Some ms else None) dr.latency_ms

let class_figures dr =
  let e = rtt_ms (Some Inputs.Estimate) dr and s = rtt_ms (Some Inputs.Sim) dr in
  [ ("serve.req_per_s", Report.one ~unit_:"1/s" dr.req_per_s);
    ("serve.estimate_ms_p50", Report.median ~unit_:"ms" e);
    ("serve.estimate_ms_p90", Report.p90 ~unit_:"ms" e);
    ("serve.sim_ms_p50", Report.median ~unit_:"ms" s);
    ("serve.sim_ms_p90", Report.p90 ~unit_:"ms" s) ]

(* Daemon-side accounting the stats op exposes; after set-up the only
   registry miss is the first, characterizing request. *)
let registry_counts ops d =
  match op ops ~check:is_ok (fun () -> call d (J.Obj [ ("op", J.Str "stats") ])) with
  | Some r ->
    let get k = Option.value (num_field k r) ~default:0.0 in
    let misses = get "registry_misses" in
    if misses <> 1.0 then begin
      Printf.eprintf "perfbench: %g registry misses, expected 1\n%!" misses;
      ops.failed <- ops.failed + 1
    end;
    (get "registry_hits", misses)
  | None -> (0.0, 0.0)

let with_daemon ctx ~traced i f =
  let d = start ctx ~traced i in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

let prepare ctx =
  let model =
    (Core.Characterize.run (Workloads.Suite.characterization ())).Core.Characterize.model
  in
  (model, offline model, Inputs.serve_round ~seed:ctx.seed ~clients)

let untraced ctx ops =
  let _, tbl, round = prepare ctx in
  let next = ref 0 in
  let timed_start () =
    incr next;
    timed_setup (fun () -> start ctx ~traced:false !next)
  in
  let rec first times =
    let d, dt = timed_start () in
    let times = dt :: times in
    if setup_done ctx times then (d, times)
    else begin
      stop d;
      first times
    end
  in
  let d, times = first [] in
  let s = setups times in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let between () = resetup s (fun () -> stop (fst (timed_start ()))) in
  let dr = drive ~between d tbl round ~seconds:ctx.seconds in
  account ops dr;
  let audit =
    op ops ~check:is_ok (fun () -> call d (J.Obj [ ("op", J.Str "audit") ]))
  in
  ignore (registry_counts ops d);
  let all = rtt_ms None dr in
  let err k =
    match Option.bind audit (member "audit") with
    | Some a -> Option.value (num_field k a) ~default:0.0
    | None -> 0.0
  in
  setup_figures s
  @ [ ("ops_per_s", Report.one ~unit_:"1/s" dr.req_per_s);
      ("op_ms_p50", Report.median ~unit_:"ms" all);
      ("op_ms_p90", Report.p90 ~unit_:"ms" all);
      ("op_ms_geomean", Report.geomean ~unit_:"ms" all);
      ("model_err_mean_pct", Report.one ~unit_:"%" (err "mean_abs_error_percent"));
      ("model_err_max_pct", Report.one ~unit_:"%" (err "max_abs_error_percent")) ]
  @ class_figures dr

(* --- Traced run: per-layer split ----------------------------------------------- *)

let class_name = function Inputs.Estimate -> "estimate" | Inputs.Sim -> "sim"

let phase_figures dr =
  List.concat_map
    (fun kind ->
      let ss = List.filter (fun s -> s.kind = kind) dr.quiet in
      let timed = List.filter_map (fun s -> Option.map (fun t -> (s, t)) s.timings) ss in
      let phase p =
        List.map
          (fun (_, t) ->
            match member "phases" t with
            | Some ph -> Option.value (num_field p ph) ~default:0.0
            | None -> 0.0)
          timed
      in
      let cls = class_name kind in
      List.map
        (fun p -> (Printf.sprintf "serve.%s.phase.%s_us" cls p, Report.median ~unit_:"us" (phase p)))
        phases
      @ [ ( Printf.sprintf "serve.%s.rtt_minus_handler_us" cls,
            Report.median ~unit_:"us"
              (List.map
                 (fun (s, t) ->
                   (s.rtt_s *. 1e6) -. Option.value (num_field "total_us" t) ~default:0.0)
                 timed) ) ])
    [ Inputs.Estimate; Inputs.Sim ]

(* In-process costs of the same requests: the router without the socket,
   the frame codec over a socketpair, and the JSON printer and parser. *)
let in_process_figures model round =
  let router = Serve.Router.create ~characterize:(fun _ -> model) () in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let reqs = List.concat_map Array.to_list (Array.to_list round) in
  List.iter (fun (r : Inputs.request) -> ignore (Serve.Router.handle router r.Inputs.json)) reqs;
  let handle kind =
    List.filter_map
      (fun (r : Inputs.request) ->
        if r.Inputs.kind <> kind then None
        else
          Some (time "router:handle" (fun () -> ignore (Serve.Router.handle router r.Inputs.json)) *. 1e6))
      reqs
  in
  let estimate_req = List.find (fun (r : Inputs.request) -> r.Inputs.kind = Inputs.Estimate) reqs in
  let typical = Serve.Protocol.json_to_string (Serve.Router.handle router estimate_req.Inputs.json) in
  let frame_us =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
    let k = 200 in
    median_of ~reps:5 ~scale:(1e6 /. float_of_int k) (fun () ->
        time "protocol:frame" (fun () ->
            for _ = 1 to k do
              Serve.Protocol.write_frame a typical;
              ignore (Serve.Protocol.read_frame b)
            done))
  in
  let profile =
    Serve.Router.handle router
      (J.Obj [ ("op", J.Str "profile"); ("workload", J.Str "des") ])
  in
  let text = Serve.Protocol.json_to_string profile in
  let k = 20 in
  let print_us =
    median_of ~reps:5 ~scale:(1e6 /. float_of_int k) (fun () ->
        time "json:print" (fun () ->
            for _ = 1 to k do ignore (Serve.Protocol.json_to_string profile) done))
  in
  let parse_us =
    median_of ~reps:5 ~scale:(1e6 /. float_of_int k) (fun () ->
        time "json:parse" (fun () -> for _ = 1 to k do ignore (J.parse text) done))
  in
  [ ("router.handle_us.estimate", Report.median ~unit_:"us" (handle Inputs.Estimate));
    ("router.handle_us.sim", Report.median ~unit_:"us" (handle Inputs.Sim));
    ("protocol.frame_us", Report.one ~unit_:"us" frame_us);
    ("json.print_us", Report.one ~unit_:"us" print_us);
    ("json.parse_us", Report.one ~unit_:"us" parse_us) ]

let traced ctx ops =
  let model, tbl, round = prepare ctx in
  let half = ctx.seconds /. 2.0 in
  Obs.Trace.set_enabled false;
  let plain =
    with_daemon ctx ~traced:false 1 (fun d ->
        let dr = drive d tbl round ~seconds:half in
        ignore (registry_counts ops d);
        dr)
  in
  Obs.Trace.set_enabled true;
  let traced_dr, (hits, misses) =
    with_daemon ctx ~traced:true 2 (fun d ->
        let dr = drive d tbl round ~seconds:half in
        (dr, registry_counts ops d))
  in
  account ops plain;
  account ops traced_dr;
  let fixed = Inputs.fixed_estimate_set () in
  let instructions =
    Hashtbl.fold (fun _ (r : Core.Estimate.result) acc -> acc + r.Core.Estimate.instructions) tbl 0
  in
  let per_instr dt = dt *. 1e9 /. float_of_int instructions in
  let names = List.map (fun (c : Core.Extract.case) -> c.Core.Extract.case_name) fixed in
  let find_ms =
    Quant.median
      (List.map
         (fun n -> time "workloads:find" (fun () -> ignore (Workloads.Suite.find n)) *. 1e3)
         names)
  in
  let build_ms =
    median_of ~reps:5 ~scale:1e3 (fun () ->
        time "workloads:build" (fun () -> ignore (Workloads.Suite.all ())))
  in
  let profiler_ns =
    per_instr
      (time "profiler:run" (fun () ->
           List.iter (fun c -> ignore (Core.Profiler.run model c)) fixed))
  in
  let attribution_ns =
    per_instr
      (time "attribution:run" (fun () ->
           List.iter (fun c -> ignore (Core.Attribution.run model c)) fixed))
  in
  [ ("workloads.build_ms", Report.one ~unit_:"ms" build_ms);
    ("workloads.find_ms", Report.one ~unit_:"ms" find_ms);
    ("trace.overhead_ratio", Report.one ~unit_:"ratio" (plain.req_per_s /. traced_dr.req_per_s));
    ("profiler.ns_per_instr", Report.one ~unit_:"ns" profiler_ns);
    ("attribution.ns_per_instr", Report.one ~unit_:"ns" attribution_ns);
    ("registry.hits", Report.one ~unit_:"count" hits);
    ("registry.misses", Report.one ~unit_:"count" misses) ]
  @ phase_figures plain @ in_process_figures model round
  @ eval_cache_figures ctx fixed
  @ class_figures plain

let run ctx =
  let ops = ops () in
  let figures = if ctx.trace then traced ctx ops else untraced ctx ops in
  (ops, figures)
