(* Unix.fork-based worker pool for the characterization engine and the
   serving daemon.

   There is one path.  A pool is an array of lanes: forked children that
   compute batches of indexed items and ship each batch's results back
   as one marshalled [payload].  A batch is split round-robin over the
   lanes, every lane's payload is joined in lane order (deadline-guarded
   when [read_timeout_s] is set), and each slice whose lane failed —
   send error, death, timeout, in-worker exception, unmarshalable result
   — is recomputed in the parent, re-raising there if the computation
   genuinely fails.  Results are reassembled in input order, so a batch
   is observably [List.map] (marshalling round-trips floats bit-exactly).

   - [create_pool]/[pool_map]: lanes are forked once and fed batches
     over request pipes, so a long-lived process (the [xenergy serve]
     daemon) pays the fork once.  Dead lanes are respawned before the
     next batch.
   - [map]: a pool that lives for one call.  Its lanes start empty, and
     each is forked with its slice of indices already in memory: the
     lane function is [fun i -> f arr.(i)], so only results cross a
     pipe and items never need to be marshal-safe (an [Extract.case]'s
     compiled extension is closures).  The parent never
     writes to such a lane, so a CLI keeps its default SIGPIPE
     disposition.  With one job or fewer than two items nothing forks.

   Lanes are ended with SIGKILL and reaped: a lane is idle between
   batches and has nothing to flush, and a kill cannot be held up by a
   sibling (or a concurrent pool's lane) that inherited its pipes.

   Lifecycle hardening, load-bearing for the daemon:

   - every [waitpid] retries on [EINTR] ({!reap}) — a swallowed
     interrupt used to leak the child as a zombie;
   - payload reads are deadline-guarded ([read_timeout_s]): [select]
     before every [read], and a lane that wedges is killed, counted in
     [parallel_trace_dropped_lanes_total] and recomputed instead of
     hanging the parent forever;
   - a rejected [XENERGY_JOBS] value is warned about through [Obs.Log]
     instead of being silently replaced.

   Observability: every degraded path is counted (metrics + [run_stats],
   surfaced in the characterization run report), and with tracing on
   each lane records its spans on trace lane [w + 1], shipping them back
   inside the payload so the parent's Chrome trace shows true per-lane
   spans; the parent frames each slice with a [worker:w] span from
   hand-off to payload and times the marshalled read as [join:w]. *)

let default_jobs () =
  match Sys.getenv_opt "XENERGY_JOBS" with
  | Some s when String.trim s = "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      let fallback = Domain.recommended_domain_count () in
      Obs.Log.event ~level:Obs.Log.Warn "parallel:bad-jobs-env"
        [ ("value", Obs.Trace.S s); ("fallback", Obs.Trace.I fallback) ];
      fallback)
  | None -> Domain.recommended_domain_count ()

(* A signal landing mid-wait surfaces as EINTR; giving up there (as a
   blanket [try ... with _ -> ()] used to) leaves the child unreaped — a
   zombie per interrupted join under signal load.  Any other error
   (ECHILD after a double wait) genuinely means there is nothing left to
   reap. *)
let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

type run_stats = {
  jobs : int;
  workers_spawned : int;
  failed_forks : int;
  serial_fallback : bool;
  recomputed_slices : int;
  recomputed_items : int;
}

let no_stats =
  { jobs = 1;
    workers_spawned = 0;
    failed_forks = 0;
    serial_fallback = false;
    recomputed_slices = 0;
    recomputed_items = 0 }

module M = struct
  let serial_fallbacks =
    lazy (Obs.Metrics.counter "parallel_serial_fallbacks_total")

  let failed_forks = lazy (Obs.Metrics.counter "parallel_failed_forks_total")

  let recomputed_slices =
    lazy (Obs.Metrics.counter "parallel_recomputed_slices_total")

  let recomputed_items =
    lazy (Obs.Metrics.counter "parallel_recomputed_items_total")

  let workers_spawned =
    lazy (Obs.Metrics.counter "parallel_workers_spawned_total")

  let slice_seconds = lazy (Obs.Metrics.histogram "parallel_slice_seconds")

  let trace_dropped_lanes =
    lazy
      (Obs.Metrics.counter
         ~help:"workers that died or timed out before shipping their trace \
                lane back"
         "parallel_trace_dropped_lanes_total")

  let pool_respawns =
    lazy
      (Obs.Metrics.counter ~help:"persistent-pool lanes respawned after death"
         "parallel_pool_respawns_total")
end

type 'b payload = {
  p_res : ((int * 'b) list, string) result;
  p_events : Obs.Trace.event list;
  p_metrics : Obs.Metrics.snapshot option;
}

(* --- Deadline-guarded payload reads ------------------------------------- *)

(* A worker that wedges mid-computation never writes its payload; a
   blocking [Marshal.from_channel] on its pipe would hang the parent
   with it.  Reading at the descriptor level lets every byte be guarded
   by [select] against [deadline] (absolute, seconds; [None] = block),
   and the Marshal header carries the payload length, so a complete
   value is read with exactly two guarded reads. *)

type 'b read_outcome = Payload of 'b payload | Eof | Timeout

let rec read_exact ~deadline fd buf off len =
  if len = 0 then `Ok
  else
    let timeout =
      match deadline with
      | None -> -1.0 (* block *)
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> `Timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exact ~deadline fd buf off len
    | _ :: _, _, _ -> (
      match Unix.read fd buf off len with
      | 0 -> `Eof
      | n -> read_exact ~deadline fd buf (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        read_exact ~deadline fd buf off len
      | exception Unix.Unix_error _ -> `Eof)

let read_payload ~deadline fd : _ read_outcome =
  let header = Bytes.create Marshal.header_size in
  match read_exact ~deadline fd header 0 Marshal.header_size with
  | `Timeout -> Timeout
  | `Eof -> Eof
  | `Ok -> (
    match Marshal.data_size header 0 with
    | exception Failure _ -> Eof (* corrupt stream *)
    | size -> (
      let buf = Bytes.create (Marshal.header_size + size) in
      Bytes.blit header 0 buf 0 Marshal.header_size;
      match read_exact ~deadline fd buf Marshal.header_size size with
      | `Timeout -> Timeout
      | `Eof -> Eof
      | `Ok -> (
        match (Marshal.from_bytes buf 0 : _ payload) with
        | p -> Payload p
        | exception _ -> Eof)))

(* --- Lanes --------------------------------------------------------------- *)

(* Compute a batch in a lane and marshal the payload out: trace events
   recorded since the last drain, metric increments on top of a zeroed
   registry (the fork copied the parent's values; resetting touches only
   the child's copy).  Gauges stay home: a gauge is a level of the
   process that sets it (the daemon's resident-model count), and the
   lane's zeroed copy merged back would overwrite the parent's. *)
let compute_payload f items =
  let metrics_on = Obs.Metrics.enabled () in
  if metrics_on then Obs.Metrics.reset ();
  let res =
    try
      Ok
        (List.map
           (fun (i, x) ->
             ( i,
               Obs.Trace.with_span ~cat:"parallel"
                 (Printf.sprintf "item:%d" i)
                 (fun () -> f x) ))
           items)
    with e -> Error (Printexc.to_string e)
  in
  { p_res = res;
    p_events = Obs.Trace.drain ();
    p_metrics =
      (if metrics_on then
         Some
           (List.filter
              (function _, _, _, Obs.Metrics.S_gauge _ -> false | _ -> true)
              (Obs.Metrics.snapshot ()))
       else None)
  }

let ship_payload oc payload =
  try
    Marshal.to_channel oc payload [];
    flush oc
  with _ -> (
    (* The results may be unmarshalable (e.g. a closure in 'b).  Don't
       lose the lane with them: ship the observability data alone, with
       an Error result so the parent recomputes the slice. *)
    try
      Marshal.to_channel oc
        { payload with p_res = Error "worker: unmarshalable result" }
        [];
      flush oc
    with _ -> ())

(* A batch carries the requesting thread's scope — its trace context and
   its backend: a persistent lane is forked before any request exists,
   so it cannot inherit either through memory. *)
type 'a batch = Obs.Trace.context option * Sim.Backend.t * (int * 'a) list

type lane = {
  l_pid : int;
  l_oc : out_channel;           (* parent -> child batches *)
  l_from : Unix.file_descr;     (* child -> parent payloads *)
}

type ('a, 'b) pool = {
  p_timeout : float option;
  p_f : 'a -> 'b;
  p_lanes : lane option array;  (* lane w, trace tid w + 1; None = no lane *)
  mutable p_closed : bool;
}

let lane_child ~f ~w ?first rd_req wr_res =
  (* Replace locks another thread may have held at fork time before
     touching any guarded structure, and give the lane its own trace-id
     pid and seed. *)
  Obs.Metrics.after_fork ();
  Obs.Trace.after_fork ();
  Obs.Log.after_fork ();
  Obs.Trace.set_tid (w + 1);
  Obs.Trace.clear ();
  let ic = Unix.in_channel_of_descr rd_req in
  let oc = Unix.out_channel_of_descr wr_res in
  (* Adopt the requester's scope for the batch, so item spans and log
     lines carry its trace_id and items simulate on its backend, then
     drop it: the lane outlives the request.  _exit skips at_exit
     handlers and inherited buffers. *)
  let rec run (ctx, backend, items) =
    Obs.Trace.set_context ctx;
    Sim.Backend.with_current backend (fun () ->
        ship_payload oc (compute_payload f items));
    Obs.Trace.set_context None;
    next ()
  and next () =
    match (Marshal.from_channel ic : _ batch) with
    | exception _ -> Unix._exit 0
    | b -> run b
  in
  match first with Some b -> run b | None -> next ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork lane [w] into its (empty) slot.  A lane given [first] computes
   that batch before reading any request, so the parent need not write
   to it. *)
let spawn_lane ?first pool w =
  let lane =
    match Unix.pipe ~cloexec:false () with
    | exception Unix.Unix_error _ -> None
    | req_rd, req_wr -> (
      match Unix.pipe ~cloexec:false () with
      | exception Unix.Unix_error _ ->
        List.iter close_noerr [ req_rd; req_wr ];
        None
      | res_rd, res_wr -> (
        (* Children inherit the stdio buffers: flush so nothing is
           emitted twice. *)
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | exception Unix.Unix_error _ ->
          List.iter close_noerr [ req_rd; req_wr; res_rd; res_wr ];
          None
        | 0 ->
          Unix.close req_wr;
          Unix.close res_rd;
          lane_child ~f:pool.p_f ~w ?first req_rd res_wr
        | pid ->
          Unix.close req_rd;
          Unix.close res_wr;
          Some
            { l_pid = pid;
              l_oc = Unix.out_channel_of_descr req_wr;
              l_from = res_rd }))
  in
  (match lane with
   | Some _ ->
     Obs.Metrics.inc (Lazy.force M.workers_spawned);
     if w = 0 then Obs.Trace.thread_name ~tid:0 "main";
     Obs.Trace.thread_name ~tid:(w + 1) (Printf.sprintf "worker %d" (w + 1))
   | None ->
     Obs.Metrics.inc (Lazy.force M.failed_forks);
     Obs.Log.event ~level:Obs.Log.Warn "parallel:fork-failed"
       [ ("worker", Obs.Trace.I (w + 1)) ]);
  pool.p_lanes.(w) <- lane;
  lane

let close_lane pool w =
  Option.iter
    (fun l ->
      (try Unix.kill l.l_pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_out_noerr l.l_oc;
      close_noerr l.l_from;
      reap l.l_pid;
      pool.p_lanes.(w) <- None)
    pool.p_lanes.(w)

let send_batch lane batch =
  try
    Marshal.to_channel lane.l_oc batch [];
    flush lane.l_oc;
    true
  with Sys_error _ | Unix.Unix_error _ -> false

(* --- One batch ------------------------------------------------------------ *)

(* Split [xs] round-robin over the lane numbers in [slots] and hand each
   slice out — over the lane's request pipe, or, into an empty slot, by
   forking a lane born with it — before joining any, so lanes run
   concurrently.  Then join in slot order and recompute every slice no
   lane delivered. *)
let run_batch pool slots xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = Array.length slots in
  let ctx = Obs.Trace.context () in
  let backend = Sim.Backend.current () in
  let slices = Array.make k [] in
  if k > 0 then
    for i = n - 1 downto 0 do
      slices.(i mod k) <- (i, arr.(i)) :: slices.(i mod k)
    done;
  let handed =
    Array.mapi
      (fun j slice ->
        let w = slots.(j) in
        let t0 = Obs.Trace.now_us () in
        match (slice, pool.p_lanes.(w)) with
        | [], _ -> None
        | _, Some l -> Some (w, l, t0, send_batch l (ctx, backend, slice))
        | _, None ->
          Option.map (fun l -> (w, l, t0, true))
            (spawn_lane ~first:(ctx, backend, slice) pool w))
      slices
  in
  let count p a = Array.fold_left (fun c x -> if p x then c + 1 else c) 0 a in
  let spawned = count Option.is_some handed in
  let failed_forks = count (fun s -> s <> []) slices - spawned in
  let stats = { no_stats with jobs = k; failed_forks } in
  if spawned = 0 then begin
    (* Parallelism was requested but no lane exists: run the whole batch
       serially in the parent. *)
    Obs.Metrics.inc (Lazy.force M.serial_fallbacks);
    Obs.Log.event ~level:Obs.Log.Warn "parallel:serial-fallback"
      [ ("items", Obs.Trace.I n) ];
    (List.map pool.p_f xs, { stats with serial_fallback = true })
  end
  else begin
    let results = Array.make n None in
    let leftover = ref [] in
    let recomputed_slices = ref 0 in
    let recompute slice = leftover := List.map fst slice @ !leftover in
    Array.iteri
      (fun j h ->
        let slice = slices.(j) in
        match h with
        | None -> recompute slice (* no lane: a failed fork *)
        | Some (w, lane, t0, sent) ->
          let items = ("items", Obs.Trace.I (List.length slice)) in
          let worker = ("worker", Obs.Trace.I (w + 1)) in
          let t_read = Obs.Trace.now_us () in
          let deadline =
            Option.map (fun s -> Unix.gettimeofday () +. s) pool.p_timeout
          in
          (* A failed send means the lane is gone: a dead lane's Eof. *)
          let outcome = if sent then read_payload ~deadline lane.l_from else Eof in
          let t_done = Obs.Trace.now_us () in
          Obs.Trace.complete ?ctx ~cat:"parallel" ~tid:0
            ~name:(Printf.sprintf "join:%d" (w + 1))
            ~ts:t_read ~dur:(t_done -. t_read) ();
          Obs.Trace.complete ?ctx ~cat:"parallel" ~tid:(w + 1)
            ~name:(Printf.sprintf "worker:%d" (w + 1))
            ~args:[ items ] ~ts:t0 ~dur:(t_done -. t0) ();
          Obs.Metrics.observe (Lazy.force M.slice_seconds)
            ((t_done -. t0) /. 1e6);
          let lost event fields =
            (* Dead or wedged lane: its trace lane is gone.  Count the
               loss instead of hiding it, end the lane (a dead slot is
               respawned by the next batch) and recompute the slice. *)
            Obs.Metrics.inc (Lazy.force M.trace_dropped_lanes);
            Obs.Trace.instant ~cat:"parallel" event ~args:[ worker ];
            Obs.Log.event ~level:Obs.Log.Warn event (worker :: items :: fields);
            close_lane pool w;
            incr recomputed_slices;
            recompute slice
          in
          match outcome with
          | Payload { p_res; p_events; p_metrics } -> (
            Obs.Trace.emit_all p_events;
            Option.iter Obs.Metrics.merge p_metrics;
            match p_res with
            | Ok pairs -> List.iter (fun (i, r) -> results.(i) <- Some r) pairs
            | Error reason ->
              (* The computation (or the result marshal) raised, but the
                 lane shipped its partial trace and metrics and is still
                 healthy: recompute the slice in the parent so a genuine
                 exception surfaces with its real backtrace. *)
              Obs.Log.event ~level:Obs.Log.Warn "parallel:worker-failed"
                [ worker; items; ("reason", Obs.Trace.S reason) ];
              incr recomputed_slices;
              recompute slice)
          | Eof -> lost "parallel:lane-dropped" []
          | Timeout ->
            lost "parallel:worker-timeout"
              [ ("timeout_s",
                 Obs.Trace.F (Option.value ~default:0.0 pool.p_timeout)) ])
      handed;
    Obs.Metrics.inc ~by:!recomputed_slices (Lazy.force M.recomputed_slices);
    let recomputed_items = List.length !leftover in
    Obs.Metrics.inc ~by:recomputed_items (Lazy.force M.recomputed_items);
    List.iter (fun i -> results.(i) <- Some (pool.p_f arr.(i))) !leftover;
    ( Array.to_list (Array.map Option.get results),
      { stats with
        workers_spawned = spawned;
        recomputed_slices = !recomputed_slices;
        recomputed_items } )
  end

(* --- Pools --------------------------------------------------------------- *)

let empty_pool ~jobs ?read_timeout_s f =
  { p_timeout = read_timeout_s;
    p_f = f;
    p_lanes = Array.make jobs None;
    p_closed = false }

let shutdown_pool pool =
  if not pool.p_closed then begin
    pool.p_closed <- true;
    Array.iteri (fun w _ -> close_lane pool w) pool.p_lanes
  end

let map_with_stats ?jobs ?read_timeout_s f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let jobs =
    max 1 (min (match jobs with Some j -> j | None -> default_jobs ()) n)
  in
  if jobs <= 1 || n <= 1 then (List.map f xs, no_stats)
  else begin
    let pool = empty_pool ~jobs ?read_timeout_s (fun i -> f arr.(i)) in
    Fun.protect
      ~finally:(fun () -> shutdown_pool pool)
      (fun () -> run_batch pool (Array.init jobs Fun.id) (List.init n Fun.id))
  end

let map ?jobs ?read_timeout_s f xs =
  fst (map_with_stats ?jobs ?read_timeout_s f xs)

let create_pool ?jobs ?read_timeout_s f =
  (* Writing a batch to a lane that just died must surface as EPIPE (a
     respawnable event), not kill the whole daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let pool = empty_pool ~jobs ?read_timeout_s f in
  for w = 0 to jobs - 1 do
    ignore (spawn_lane pool w)
  done;
  pool

let live_slots pool =
  List.filter
    (fun w -> Option.is_some pool.p_lanes.(w))
    (List.init (Array.length pool.p_lanes) Fun.id)

let pool_live pool = List.length (live_slots pool)

let pool_map pool xs =
  if pool.p_closed then invalid_arg "Parallel.pool_map: pool is shut down";
  match xs with
  | [] -> []
  | _ ->
    (* Lanes that died are replaced before the batch, so one bad request
       does not permanently shrink the pool. *)
    Array.iteri
      (fun w lane ->
        if Option.is_none lane then
          Option.iter
            (fun l ->
              Obs.Metrics.inc (Lazy.force M.pool_respawns);
              Obs.Log.event "parallel:pool-respawn"
                [ ("lane", Obs.Trace.I (w + 1)); ("pid", Obs.Trace.I l.l_pid) ])
            (spawn_lane pool w))
      pool.p_lanes;
    fst (run_batch pool (Array.of_list (live_slots pool)) xs)
