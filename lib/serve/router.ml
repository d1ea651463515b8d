module J = Obs.Json

(* One op's instruments, resolved once: a registry lookup sorts and
   joins the labels into a key and takes the registry lock. *)
module M = struct
  type op = {
    o_requests : Obs.Metrics.counter;
    o_errors : Obs.Metrics.counter;
    o_seconds : Obs.Metrics.histogram;
    o_inflight : Obs.Metrics.gauge;
    o_slow : Obs.Metrics.counter;
  }

  (* Router requests span four orders of magnitude: a ping answers in
     tens of microseconds, a cache-hit estimate in about a millisecond,
     and a cold characterization run in whole seconds.  The generic
     default buckets start at 100ms and would collapse everything fast
     into the first bucket, so spell out a latency-shaped ladder. *)
  let request_seconds_buckets =
    [| 1e-4; 2.5e-4; 1e-3; 2.5e-3; 1e-2; 2.5e-2; 0.1; 0.25; 1.0; 2.5; 10.0 |]

  let op name =
    let labels = [ ("op", name) ] in
    let counter = Obs.Metrics.counter ~labels in
    { o_requests =
        counter ~help:"requests handled by the serve router"
          "serve_requests_total";
      o_errors =
        counter ~help:"requests answered with an error" "serve_errors_total";
      o_seconds =
        Obs.Metrics.histogram ~labels ~help:"request handling wall time"
          ~buckets:request_seconds_buckets "serve_request_seconds";
      o_inflight =
        Obs.Metrics.gauge ~labels ~help:"requests currently being handled"
          "serve_inflight_requests";
      o_slow =
        counter ~help:"requests slower than the slow-request threshold"
          "serve_slow_requests_total" }
end

type t = {
  r_service : Service.t;
  r_pool :
    (string * Sim.Config.t * bool, Core.Eval_cache.entry) Core.Parallel.pool;
  r_pool_lock : Mutex.t;         (* one batch at a time on [r_pool] *)
  r_state_lock : Mutex.t;        (* r_requests/r_shut/r_snaps/r_inflight *)
  r_jobs : int option;
  r_started : float;
  r_slow_s : float option;       (* slow-request log threshold, seconds *)
  r_inflight : (string, int ref) Hashtbl.t;
  r_metrics : (string, M.op) Hashtbl.t;  (* every known op; read-only *)
  mutable r_snaps : (float * Obs.Metrics.snapshot) list;
  (* Rolling window of metric snapshots, newest first, pruned to
     [window_s] on each [status] request: the window is poller-driven
     (Prometheus-style), so its resolution is the status polling
     cadence, and an idle daemon keeps no background thread. *)
  mutable r_requests : int;
  mutable r_stop : bool;
  mutable r_shut : bool;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The pool function is fixed at fork time, so it takes everything a
   batch item needs — workload name, configuration, reference flag — as
   marshal-safe data and resolves the case inside the worker, from the
   name index the lane inherited at fork ([create] builds it first).
   The request's backend rides with the batch itself (see
   [Core.Parallel.pool_map]). *)
let compute_entry (name, config, with_ref) =
  Core.Eval_cache.compute ~config ~with_ref (Service.find_case name)

(* The [status] op's rolling-window width, seconds. *)
let window_s = 60.0

let known_ops =
  [ "ping"; "estimate"; "attribute"; "profile"; "audit"; "explore"; "metrics";
    "stats"; "status"; "shutdown"; "invalid" ]

let create ?jobs ?read_timeout_s ?cache_dir ?characterize ?model ?slow_ms
    () =
  (* Register every metric family this router will ever touch now,
     while the process is still single-threaded: the metrics registry's
     own table is then only read (never resized) by concurrent
     connection threads.  Op labels are normalized to [known_ops]
     (arbitrary request strings count as "invalid"), so this set is
     exhaustive. *)
  let metrics = Hashtbl.create 16 in
  List.iter (fun op -> Hashtbl.add metrics op (M.op op)) known_ops;
  let inflight = Hashtbl.create 16 in
  List.iter (fun op -> Hashtbl.add inflight op (ref 0)) known_ops;
  (* Build the workload index before the pool forks, so every lane
     inherits it and no request pays for the build. *)
  ignore (Workloads.Suite.names ());
  let pool = Core.Parallel.create_pool ?jobs ?read_timeout_s compute_entry in
  (* Estimate misses simulate on the persistent pool, one batch at a
     time: its request/response pipes are shared state, and the workers
     are the same processes either way.  The wait for the pool is
     queueing, not simulation: charge the lock and the batch
     separately (both nest inside the estimate's cache phase). *)
  let pool_lock = Mutex.create () in
  let simulate ~config ~with_ref cs =
    Service.phase "queue" (fun () -> Mutex.lock pool_lock);
    Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
    Service.phase "simulate" @@ fun () ->
    Core.Parallel.pool_map pool
      (List.map
         (fun (c : Core.Extract.case) ->
           (c.Core.Extract.case_name, config, with_ref))
         cs)
  in
  let service =
    try
      Service.create ?jobs ~cache:(Core.Eval_cache.create ?dir:cache_dir ())
        ?characterize ~simulate ?model ()
    with e ->
      Core.Parallel.shutdown_pool pool;
      raise e
  in
  { r_service = service;
    r_pool = pool;
    r_pool_lock = pool_lock;
    r_state_lock = Mutex.create ();
    r_jobs = jobs;
    r_started = Unix.gettimeofday ();
    r_slow_s = Option.map (fun ms -> ms /. 1e3) slow_ms;
    r_inflight = inflight;
    r_metrics = metrics;
    r_snaps = [];
    r_requests = 0;
    r_stop = false;
    r_shut = false }

let stopped t = t.r_stop

let shutdown t =
  let first =
    locked t.r_state_lock (fun () ->
        let first = not t.r_shut in
        t.r_shut <- true;
        first)
  in
  if first then begin
    Core.Eval_cache.flush (Service.cache t.r_service);
    locked t.r_pool_lock (fun () -> Core.Parallel.shutdown_pool t.r_pool)
  end

(* --- Request decoding ----------------------------------------------------- *)

let member_opt k = function J.Obj fields -> List.assoc_opt k fields | _ -> None

let str_field ~op k req =
  match member_opt k req with
  | Some (J.Str s) -> s
  | Some _ | None ->
    failwith (Printf.sprintf "%s needs a string %S field" op k)

(* Integer request fields: integral JSON numbers in the [int] range
   only, never truncated or wrapped. *)
let int_value ~op k v =
  try J.to_int v
  with J.Parse_error _ ->
    failwith (Printf.sprintf "%s: %S must be an integer" op k)

let int_field ~op k req = Option.map (int_value ~op k) (member_opt k req)

let workload_list ~op req =
  match member_opt "workloads" req with
  | Some (J.Arr l) ->
    Some
      (List.map
         (function
           | J.Str s -> s
           | _ -> failwith (Printf.sprintf "%s: workloads must be strings" op))
         l)
  | Some (J.Str s) -> Some [ s ]
  | Some _ -> failwith (Printf.sprintf "%s: \"workloads\" must be an array" op)
  | None -> None

module C = Sim.Config

let config_of_json ~op = function
  | J.Null -> C.default
  | J.Obj fields ->
    let int_of k = int_value ~op ("config." ^ k) in
    let float_of k = function
      | J.Num f -> f
      | _ -> failwith (Printf.sprintf "config: %S must be a number" k)
    in
    let c =
      List.fold_left
        (fun c (k, v) ->
          match k with
          | "icache_size_bytes" ->
            { c with C.icache = { c.C.icache with C.size_bytes = int_of k v } }
          | "icache_ways" ->
            { c with C.icache = { c.C.icache with C.ways = int_of k v } }
          | "icache_line_bytes" ->
            { c with C.icache = { c.C.icache with C.line_bytes = int_of k v } }
          | "icache_miss_penalty" ->
            { c with
              C.icache = { c.C.icache with C.miss_penalty = int_of k v } }
          | "dcache_size_bytes" ->
            { c with C.dcache = { c.C.dcache with C.size_bytes = int_of k v } }
          | "dcache_ways" ->
            { c with C.dcache = { c.C.dcache with C.ways = int_of k v } }
          | "dcache_line_bytes" ->
            { c with C.dcache = { c.C.dcache with C.line_bytes = int_of k v } }
          | "dcache_miss_penalty" ->
            { c with
              C.dcache = { c.C.dcache with C.miss_penalty = int_of k v } }
          | "branch_taken_penalty" ->
            { c with C.branch_taken_penalty = int_of k v }
          | "window_penalty" -> { c with C.window_penalty = int_of k v }
          | "freq_mhz" -> { c with C.freq_mhz = float_of k v }
          | "max_cycles" -> { c with C.max_cycles = int_of k v }
          | k -> failwith (Printf.sprintf "config: unknown field %S" k))
        C.default fields
    in
    (try C.validate c
     with Invalid_argument msg -> failwith ("config: " ^ msg));
    c
  | _ -> failwith "\"config\" must be an object"

let request_config ~op req =
  config_of_json ~op (Option.value ~default:J.Null (member_opt "config" req))

(* Optional "backend" field: which execution substrate simulates this
   request ([None]: the daemon's process-wide selection).  A bad value
   is the request's error, raised once the request is in scope. *)
let request_backend ~op req =
  match member_opt "backend" req with
  | None -> Ok None
  | Some (J.Str s) -> (
    match Sim.Backend.of_string s with
    | Some b -> Ok (Some b)
    | None -> Error (Printf.sprintf "%s: unknown backend %S" op s))
  | Some _ -> Error (Printf.sprintf "%s: \"backend\" must be a string" op)

(* The backend this request simulates on: [handle] has installed the
   request's override, if any, on this thread. *)
let backend_name () = Sim.Backend.name (Sim.Backend.current ())

(* --- Ops: decode, run the service op, encode ------------------------------- *)

(* The answer of an op served under one registry model. *)
let model_resp op (lookup : Registry.lookup) fields =
  Service.phase "serialize" @@ fun () ->
  J.Obj
    ([ ("ok", J.Bool true);
       ("op", J.Str op);
       ("model_key", J.Str lookup.Registry.l_key);
       ("registry_hit", J.Bool lookup.Registry.l_hit);
       ("backend", J.Str (backend_name ())) ]
    @ fields ())

let handle_estimate t req =
  let op = "estimate" in
  let names =
    match workload_list ~op req with
    | Some names -> names
    | None -> failwith "estimate needs a \"workloads\" array"
  in
  let config = request_config ~op req in
  let rows, lookup = Service.estimate t.r_service ~config names in
  model_resp op lookup @@ fun () ->
  let row n ((r : Core.Estimate.result), cached) =
    J.Obj
      [ ("name", J.Str n);
        ("energy_pj", J.Num r.Core.Estimate.energy_pj);
        ("energy_uj", J.Num r.Core.Estimate.energy_uj);
        ("cycles", J.int r.Core.Estimate.cycles);
        ("instructions", J.int r.Core.Estimate.instructions);
        ("cached", J.Bool cached) ]
  in
  [ ("results", J.Arr (List.map2 row names rows)) ]

let handle_attribute t req =
  let op = "attribute" in
  let name = str_field ~op "workload" req in
  let bucket_cycles = int_field ~op "bucket_cycles" req in
  let config = request_config ~op req in
  let b, lookup = Service.attribute t.r_service ~config ?bucket_cycles name in
  model_resp op lookup @@ fun () ->
  [ ("attribution", Core.Attribution.to_json b) ]

let handle_profile t req =
  let op = "profile" in
  let name = str_field ~op "workload" req in
  let top = int_field ~op "top" req in
  let config = request_config ~op req in
  let r, lookup = Service.profile t.r_service ~config ?top name in
  model_resp op lookup @@ fun () ->
  [ ("profile", Core.Profiler.to_json ?top r) ]

let handle_audit t req =
  let op = "audit" in
  let workloads = workload_list ~op req in
  let config = request_config ~op req in
  let report, lookup = Service.audit t.r_service ~config ?workloads () in
  model_resp op lookup @@ fun () -> [ ("audit", Core.Audit.to_json report) ]

(* Sweep a named candidate space against the live registry: points in
   space order, one frontier across every configuration, so a warm sweep
   runs zero simulations. *)
let handle_explore t req =
  let space = str_field ~op:"explore" "space" req in
  let o, lookups = Service.explore t.r_service space in
  Service.phase "serialize" @@ fun () ->
  let row (p : Core.Explore.point) =
    J.Obj
      [ ("name", J.Str p.Core.Explore.pt_name);
        ("energy_pj", J.Num p.Core.Explore.pt_energy_pj);
        ("energy_uj", J.Num p.Core.Explore.pt_energy_uj);
        ("cycles", J.int p.Core.Explore.pt_cycles);
        ("instructions", J.int p.Core.Explore.pt_instructions);
        ("cached", J.Bool p.Core.Explore.pt_cached);
        ("frontier", J.Bool (List.memq p o.Core.Explore.frontier)) ]
  in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "explore");
      ("space", J.Str space);
      ("backend", J.Str (backend_name ()));
      ("candidates", J.int (List.length o.Core.Explore.points));
      ("configs", J.int (List.length lookups));
      ( "registry_hits",
        J.int (List.length (List.filter (fun l -> l.Registry.l_hit) lookups))
      );
      ("simulations", J.int o.Core.Explore.simulations);
      ("wall_seconds", J.Num o.Core.Explore.wall_seconds);
      ("points", J.Arr (List.map row o.Core.Explore.points));
      ( "frontier",
        J.Arr
          (List.map
             (fun (p : Core.Explore.point) -> J.Str p.Core.Explore.pt_name)
             o.Core.Explore.frontier) ) ]

let handle_stats t =
  let rs = Registry.stats (Service.registry t.r_service) in
  let cs = Core.Eval_cache.stats (Service.cache t.r_service) in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "stats");
      ("pid", J.int (Unix.getpid ()));
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.r_started));
      ("requests", J.int t.r_requests);
      ("backend", J.Str (backend_name ()));
      ("registry_models", J.int rs.Registry.r_models);
      ("registry_hits", J.int rs.Registry.r_hits);
      ("registry_misses", J.int rs.Registry.r_misses);
      ("cache_hits", J.int cs.Core.Eval_cache.hits);
      ("cache_misses", J.int cs.Core.Eval_cache.misses);
      ("cache_errors", J.int cs.Core.Eval_cache.errors);
      ("cache_stores", J.int cs.Core.Eval_cache.stores);
      ("pool_live", J.int (Core.Parallel.pool_live t.r_pool)) ]

(* --- status: rolling-window RED stats ------------------------------------- *)

let snap_find snap name labels =
  let want = List.sort compare labels in
  List.find_opt
    (fun (n, ls, _, _) -> n = name && List.sort compare ls = want)
    snap

let snap_counter snap name labels =
  match snap_find snap name labels with
  | Some (_, _, _, Obs.Metrics.S_counter c) -> c
  | _ -> 0

let snap_gauge snap name labels =
  match snap_find snap name labels with
  | Some (_, _, _, Obs.Metrics.S_gauge v) -> v
  | _ -> 0.0

let handle_status t =
  let now = Unix.gettimeofday () in
  let snap = Obs.Metrics.snapshot () in
  (* Push this capture into the window ring and diff against the oldest
     survivor; before the window has history, the delta degenerates to
     the cumulative values over the whole uptime. *)
  let base =
    locked t.r_state_lock (fun () ->
        let keep =
          List.filter (fun (ts, _) -> now -. ts <= window_s) t.r_snaps
        in
        let base =
          match List.rev keep with [] -> None | oldest :: _ -> Some oldest
        in
        t.r_snaps <- (now, snap) :: keep;
        base)
  in
  let window_dt, delta =
    match base with
    | Some (ts, s) -> (now -. ts, Obs.Metrics.snapshot_diff snap s)
    | None -> (now -. t.r_started, snap)
  in
  let window_dt = Float.max window_dt 1e-9 in
  let ms = function Some s -> J.Num (s *. 1e3) | None -> J.Null in
  let quant s ~labels p =
    Obs.Export.snapshot_quantile s ~name:"serve_request_seconds" ~labels p
  in
  let op_row op =
    let l = [ ("op", op) ] in
    let cum_req = snap_counter snap "serve_requests_total" l in
    if cum_req = 0 then None
    else
      let inflight =
        locked t.r_state_lock (fun () -> !(Hashtbl.find t.r_inflight op))
      in
      let w_req = snap_counter delta "serve_requests_total" l in
      let w_err = snap_counter delta "serve_errors_total" l in
      Some
        (J.Obj
           [ ("op", J.Str op);
             ("requests", J.int cum_req);
             ("errors", J.int (snap_counter snap "serve_errors_total" l));
             ("slow", J.int (snap_counter snap "serve_slow_requests_total" l));
             ("inflight", J.int inflight);
             ( "window",
               J.Obj
                 [ ("requests", J.int w_req);
                   ("errors", J.int w_err);
                   ("rate_hz", J.Num (float_of_int w_req /. window_dt));
                   ( "error_rate_hz",
                     J.Num (float_of_int w_err /. window_dt) );
                   ("p50_ms", ms (quant delta ~labels:l 0.5));
                   ("p90_ms", ms (quant delta ~labels:l 0.9));
                   ("p99_ms", ms (quant delta ~labels:l 0.99)) ] );
             ( "cumulative",
               J.Obj
                 [ ("p50_ms", ms (quant snap ~labels:l 0.5));
                   ("p90_ms", ms (quant snap ~labels:l 0.9));
                   ("p99_ms", ms (quant snap ~labels:l 0.99)) ] ) ])
  in
  let rs = Registry.stats (Service.registry t.r_service) in
  let cs = Core.Eval_cache.stats (Service.cache t.r_service) in
  let requests, inflight_total =
    locked t.r_state_lock (fun () ->
        ( t.r_requests,
          Hashtbl.fold (fun _ c acc -> acc + !c) t.r_inflight 0 ))
  in
  J.Obj
    [ ("ok", J.Bool true);
      ("op", J.Str "status");
      ("pid", J.int (Unix.getpid ()));
      ("uptime_s", J.Num (now -. t.r_started));
      ("backend", J.Str (backend_name ()));
      ("requests", J.int requests);
      ("inflight", J.int inflight_total);
      ("window_s", J.Num window_s);
      ("window_dt_s", J.Num window_dt);
      ("ops", J.Arr (List.filter_map op_row known_ops));
      ( "registry",
        J.Obj
          [ ("models", J.int rs.Registry.r_models);
            ("hits", J.int rs.Registry.r_hits);
            ("misses", J.int rs.Registry.r_misses) ] );
      ( "cache",
        J.Obj
          [ ("hits", J.int cs.Core.Eval_cache.hits);
            ("misses", J.int cs.Core.Eval_cache.misses);
            ("errors", J.int cs.Core.Eval_cache.errors);
            ("stores", J.int cs.Core.Eval_cache.stores) ] );
      ( "pool",
        J.Obj
          [ ("live", J.int (Core.Parallel.pool_live t.r_pool));
            ( "lanes",
              J.int
                (match t.r_jobs with
                | Some j -> max 1 j
                | None -> Core.Parallel.default_jobs ()) ) ] );
      ( "connections",
        J.Obj
          [ ("active", J.Num (snap_gauge snap "serve_active_connections" []));
            ("total", J.int (snap_counter snap "serve_connections_total" []))
          ] ) ]

let dispatch t op req =
  match op with
  | "ping" ->
    J.Obj
      [ ("ok", J.Bool true);
        ("op", J.Str "ping");
        ("pid", J.int (Unix.getpid ())) ]
  | "estimate" -> handle_estimate t req
  | "attribute" -> handle_attribute t req
  | "profile" -> handle_profile t req
  | "audit" -> handle_audit t req
  | "explore" -> handle_explore t req
  | "metrics" ->
    Service.phase "serialize" (fun () ->
        J.Obj
          [ ("ok", J.Bool true);
            ("op", J.Str "metrics");
            ("exposition", J.Str (Obs.Export.to_openmetrics ())) ])
  | "stats" -> handle_stats t
  | "status" -> handle_status t
  | "shutdown" ->
    t.r_stop <- true;
    J.Obj [ ("ok", J.Bool true); ("op", J.Str "shutdown") ]
  | "" -> failwith "request needs a string \"op\" field"
  | op -> failwith (Printf.sprintf "unknown op %S" op)

(* The request's trace context: adopt the client's ids when it sent
   any (its [parent_span_id] becomes the parent of every server span),
   mint a fresh trace otherwise.  Either way the response echoes the
   trace_id, so a client can find its request in an exported trace. *)
let request_context req =
  match member_opt "trace_id" req with
  | Some (J.Str tid) when tid <> "" ->
    let span =
      match member_opt "parent_span_id" req with
      | Some (J.Str s) when s <> "" -> s
      | _ -> Obs.Trace.new_id ()
    in
    { Obs.Trace.trace_id = tid; span_id = span; parent_id = None }
  | _ ->
    { Obs.Trace.trace_id = Obs.Trace.new_id ();
      span_id = Obs.Trace.new_id ();
      parent_id = None }

let inflight_adjust t op gauge d =
  locked t.r_state_lock (fun () ->
      let cell = Hashtbl.find t.r_inflight op in
      cell := !cell + d;
      Obs.Metrics.set gauge (float_of_int !cell))

let handle ?received ?parse_s t req =
  locked t.r_state_lock (fun () -> t.r_requests <- t.r_requests + 1);
  let t0 = Unix.gettimeofday () in
  (* The request clock starts when the server finished reading the
     frame ([received]); the gap to now is time spent queued behind
     this connection thread's other work plus the JSON parse, which
     the server pre-measured ([parse_s]). *)
  let t_start = Option.value received ~default:t0 in
  let op =
    match member_opt "op" req with Some (J.Str s) -> s | Some _ | None -> ""
  in
  (* Metric labels are normalized to the known-op set so a stream of
     garbage op names cannot grow label cardinality without bound. *)
  let opl = if List.mem op known_ops then op else "invalid" in
  let m = Hashtbl.find t.r_metrics opl in
  Obs.Metrics.inc m.M.o_requests;
  inflight_adjust t opl m.M.o_inflight 1;
  let preset =
    (match received with
     | Some r ->
       [ ("queue", Float.max 0.0 (t0 -. r -. Option.value parse_s ~default:0.0)) ]
     | None -> [])
    @ match parse_s with Some s -> [ ("parse", s) ] | None -> []
  in
  let want_timings =
    match member_opt "timings" req with Some (J.Bool b) -> b | _ -> false
  in
  (* The request's scope, installed once for the whole handler: every
     span, log line (dispatch, serve:error, serve:slow-request,
     serve:request) and pool batch below carries its trace_id and
     simulates on its backend. *)
  let ctx = request_context req in
  let backend = request_backend ~op req in
  let with_backend f =
    match backend with
    | Ok (Some b) -> Sim.Backend.with_current b f
    | Ok None | Error _ -> f ()
  in
  Obs.Trace.with_context ctx @@ fun () ->
  with_backend @@ fun () ->
  let resp, named =
    Service.timed ~preset @@ fun () ->
    Fun.protect ~finally:(fun () -> inflight_adjust t opl m.M.o_inflight (-1))
    @@ fun () ->
    Obs.Trace.with_span ~cat:"serve"
      ~args:[ ("op", Obs.Trace.S opl) ]
      ("serve:" ^ opl)
    @@ fun () ->
    match
      Result.iter_error failwith backend;
      dispatch t op req
    with
    | resp -> resp
    | exception e ->
      (* A bad request — or a genuinely failing pipeline stage — must
         answer this client, not take the daemon down. *)
      let msg =
        match Service.message e with
        | Some msg -> msg
        | None -> Printexc.to_string e
      in
      Obs.Metrics.inc m.M.o_errors;
      Obs.Log.event ~level:Obs.Log.Warn "serve:error"
        [ ("op", Obs.Trace.S op); ("error", Obs.Trace.S msg) ];
      J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ]
  in
  let t_end = Unix.gettimeofday () in
  let dt = t_end -. t0 in
  let total = t_end -. t_start in
  Obs.Metrics.observe m.M.o_seconds dt;
  (* The breakdown's phases sum to [total] exactly: whatever the named
     phases did not account for is reported honestly as "other". *)
  let phases =
    let accounted = List.fold_left (fun a (_, s) -> a +. s) 0.0 named in
    named @ [ ("other", Float.max 0.0 (total -. accounted)) ]
  in
  (match t.r_slow_s with
  | Some thr when total >= thr ->
    Obs.Metrics.inc m.M.o_slow;
    (* The per-phase fields cost a string per phase: build them only
       for a sink that will write them. *)
    if Obs.Log.enabled () then
      Obs.Log.event ~level:Obs.Log.Warn "serve:slow-request"
        (("op", Obs.Trace.S op)
        :: ("total_ms", Obs.Trace.F (total *. 1e3))
        :: List.map
             (fun (n, s) -> ("phase_" ^ n ^ "_ms", Obs.Trace.F (s *. 1e3)))
             phases)
  | _ -> ());
  let ok = match resp with J.Obj (("ok", J.Bool b) :: _) -> b | _ -> false in
  Obs.Log.event "serve:request"
    [ ("op", Obs.Trace.S op);
      ("ok", Obs.Trace.B ok);
      ("seconds", Obs.Trace.F dt) ];
  let extra =
    ("trace_id", J.Str ctx.Obs.Trace.trace_id)
    ::
    (if want_timings then
       [ ( "timings",
           J.Obj
             [ ("total_us", J.Num (total *. 1e6));
               ( "phases",
                 J.Obj
                   (List.map (fun (n, s) -> (n, J.Num (s *. 1e6))) phases) )
             ] ) ]
     else [])
  in
  match resp with J.Obj fields -> J.Obj (fields @ extra) | other -> other

let handle_text ?received t payload =
  let tp = Unix.gettimeofday () in
  match J.parse payload with
  | req ->
    let parse_s = Unix.gettimeofday () -. tp in
    J.print (handle ?received ~parse_s t req)
  | exception J.Parse_error msg ->
    (* No request to adopt ids from: mint a trace id, so this reply
       joins its log line like every other. *)
    let tid = Obs.Trace.new_id () in
    Obs.Metrics.inc (Hashtbl.find t.r_metrics "invalid").M.o_errors;
    Obs.Log.event ~level:Obs.Log.Warn "serve:error"
      [ ("op", Obs.Trace.S "parse"); ("error", Obs.Trace.S msg);
        ("trace_id", Obs.Trace.S tid) ];
    J.print
      (J.Obj
         [ ("ok", J.Bool false);
           ("error", J.Str ("invalid JSON: " ^ msg));
           ("trace_id", J.Str tid) ])
