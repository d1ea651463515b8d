type entry = {
  e_name : string;
  e_variables : float array;
  e_cycles : int;
  e_instructions : int;
  e_stall_cycles : int;
  e_measured_pj : float option;
}

type stats = { hits : int; misses : int; errors : int; stores : int }

type t = {
  c_lock : Mutex.t;
  (* Held by every public operation on an instance (find, store, flush,
     stats): connection threads of one daemon share a cache, and the
     table, the counters and [c_touched] are not safe under concurrent
     mutation.  Callers never lock around the cache themselves. *)
  c_dir : string option;
  c_mem : (string, entry) Hashtbl.t;
  mutable c_stats : stats;
  (* Index updates (stores and disk hits) accumulated since the last
     {!flush}; merged into the directory's index.json in one atomic
     rewrite instead of one per lookup; without a store ([c_stored]),
     as the entry files' mtimes. *)
  c_touched : (string, Cache_index.meta) Hashtbl.t;
  mutable c_stored : bool;
  (* Inline size cap: when a store pushes the directory's estimated
     payload past [c_max_bytes], LRU eviction runs immediately instead
     of waiting for a manual prune.  [c_approx_bytes] is the running
     estimate (seeded from the index at the first capped store, then
     advanced per store); -1 = not yet seeded. *)
  c_max_bytes : int option;
  mutable c_approx_bytes : int;
}

module M = struct
  let hits = lazy (Obs.Metrics.counter "eval_cache_hits_total")
  let misses = lazy (Obs.Metrics.counter "eval_cache_misses_total")
  let errors = lazy (Obs.Metrics.counter "eval_cache_errors_total")
  let stores = lazy (Obs.Metrics.counter "eval_cache_stores_total")
  let evictions = lazy (Obs.Metrics.counter "eval_cache_evictions_total")
  let orphans = lazy (Obs.Metrics.counter "eval_cache_orphans_total")
  let index_rebuilds =
    lazy (Obs.Metrics.counter "eval_cache_index_rebuilds_total")
end

let create ?dir ?max_bytes () =
  { c_lock = Mutex.create ();
    c_dir = dir; c_mem = Hashtbl.create 64;
    c_stats = { hits = 0; misses = 0; errors = 0; stores = 0 };
    c_touched = Hashtbl.create 16;
    c_stored = false;
    c_max_bytes = max_bytes;
    c_approx_bytes = -1 }

let dir t = t.c_dir

let locked t f = Mutex.protect t.c_lock f

let stats t = locked t (fun () -> t.c_stats)

let diff a b =
  { hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    errors = a.errors - b.errors;
    stores = a.stores - b.stores }

let payload_version = 3

(* A fitted model's entry is a pure function of its samples' entries and
   of the fitting code.  Any change to [Regress.Lsq] or to
   [Characterize.fit_samples] that can change a coefficient's bits must
   bump this version, or a warm cache keeps serving the old fit. *)
let model_version = 1

let digest payload = Digest.to_hex (Digest.string (Marshal.to_string payload []))

(* Equal configurations marshal to equal bytes, but [=] also equates
   0.0 with -0.0, which marshal apart: compare the one float's bits. *)
let same_config (a : Sim.Config.t) b =
  a == b
  || a = b
     && Int64.equal
          (Int64.bits_of_float a.Sim.Config.freq_mhz)
          (Int64.bits_of_float b.Sim.Config.freq_mhz)

(* The key covers exactly what the cached computation reads: the
   program ({!Extract.digest}, computed once per case), the processor
   configuration, the C(W) tag, whether the reference estimator observes
   the run, and the simulation backend that would produce the entry.
   The backends are bit-identical by contract, but keying them apart
   means a cached vector never masks a divergence: an entry always
   records what the named backend actually computed. *)
let key ?backend ?(complexity_tag = "default") ?(with_reference = false)
    ~(config : Sim.Config.t) (c : Extract.case) =
  let backend =
    match backend with
    | Some b -> b
    | None -> Sim.Backend.name (Sim.Backend.current ())
  in
  (* Marshal + MD5 costs about a microsecond per case, so the case keeps
     its last key.  Threads keying one case under other settings just
     replace each other's memo. *)
  match Atomic.get c.Extract.key_slot with
  | Some m
    when String.equal m.Extract.km_backend backend
         && String.equal m.Extract.km_tag complexity_tag
         && Bool.equal m.Extract.km_with_reference with_reference
         && same_config m.Extract.km_config config ->
    m.Extract.km_key
  | _ ->
    let k =
      digest
        ( "xenergy-eval-cache", payload_version, backend, complexity_tag,
          with_reference, Extract.digest c, config )
    in
    Atomic.set c.Extract.key_slot
      (Some
         { Extract.km_backend = backend;
           km_tag = complexity_tag;
           km_with_reference = with_reference;
           km_config = config;
           km_key = k });
    k

let model_key ~nonnegative sample_keys =
  digest ("xenergy-model", model_version, nonnegative, sample_keys)

(* --- On-disk format ------------------------------------------------------ *)

(* The printer's numbers recover the exact bits: a warm (disk) sweep
   is bit-identical to the cold one.  Non-finite values have no JSON
   representation (they would print as null, a permanent parse error
   on every warm read) — refuse them here, so a bad value fails fast at
   store time (error-counted) instead of poisoning the entry on disk. *)
let finite x =
  if not (Float.is_finite x) then failwith "cache: non-finite value";
  Obs.Json.Num x

let entry_to_json ~key:k e =
  let module J = Obs.Json in
  J.Obj
    [ ("format", J.Str "xenergy-eval-cache");
      ("version", J.int 1);
      ("key", J.Str k);
      ("name", J.Str e.e_name);
      ("cycles", J.int e.e_cycles);
      ("instructions", J.int e.e_instructions);
      ("stall_cycles", J.int e.e_stall_cycles);
      ( "measured_pj",
        match e.e_measured_pj with None -> J.Null | Some x -> finite x );
      ("variables", J.Arr (Array.to_list (Array.map finite e.e_variables))) ]

let entry_of_json ~expect_key s =
  let j = Obs.Json.parse s in
  let str f = Obs.Json.(to_string (member f j)) in
  let int f = Obs.Json.(to_int (member f j)) in
  if str "format" <> "xenergy-eval-cache" then failwith "cache: bad format";
  if int "version" <> 1 then failwith "cache: unsupported version";
  if str "key" <> expect_key then failwith "cache: key mismatch";
  let variables =
    Obs.Json.(to_list (member "variables" j))
    |> List.map Obs.Json.to_float |> Array.of_list
  in
  if Array.length variables <> Variables.count then
    failwith "cache: wrong variable count";
  let measured_pj =
    match Obs.Json.member "measured_pj" j with
    | Obs.Json.Null -> None
    | v -> Some (Obs.Json.to_float v)
  in
  { e_name = str "name";
    e_variables = variables;
    e_cycles = int "cycles";
    e_instructions = int "instructions";
    e_stall_cycles = int "stall_cycles";
    e_measured_pj = measured_pj }

(* --- Lookup / store ------------------------------------------------------ *)

let path_of t k =
  Option.map (fun d -> Filename.concat d (Cache_index.file_of_key k)) t.c_dir

let count_error t =
  t.c_stats <- { t.c_stats with errors = t.c_stats.errors + 1 };
  Obs.Metrics.inc (Lazy.force M.errors);
  Obs.Trace.instant ~cat:"cache" "cache:error"

let touch t k (e : entry) ~size =
  if t.c_dir <> None then
    Hashtbl.replace t.c_touched k
      { Cache_index.m_key = k;
        m_name = e.e_name;
        m_size = size;
        m_last_used = Unix.gettimeofday () }

let load_disk t k =
  match path_of t k with
  | None -> None
  | Some path ->
    (* Open directly: a file that is not there (never stored, or pruned
       by another process since the caller asked) is a plain miss. *)
    match
      let ic =
        Unix.in_channel_of_descr
          (Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
      in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_all ic)
      in
      (entry_of_json ~expect_key:k s, String.length s)
    with
    | e, size ->
      touch t k e ~size;
      Some e
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
    | exception _ ->
      (* Corrupted, truncated or foreign file: recompute rather than
         fail, and leave a trail in the error counter. *)
      count_error t;
      None

let find t k =
  locked t @@ fun () ->
  let hit ~layer e =
    t.c_stats <- { t.c_stats with hits = t.c_stats.hits + 1 };
    Obs.Metrics.inc (Lazy.force M.hits);
    Obs.Trace.instant ~cat:"cache" "cache:hit"
      ~args:[ ("name", Obs.Trace.S e.e_name) ];
    Obs.Log.event ~level:Obs.Log.Debug "cache:hit"
      [ ("key", Obs.Trace.S k); ("name", Obs.Trace.S e.e_name);
        ("layer", Obs.Trace.S layer) ];
    Some e
  in
  match Hashtbl.find_opt t.c_mem k with
  | Some e -> hit ~layer:"memory" e
  | None -> (
    match load_disk t k with
    | Some e ->
      Hashtbl.replace t.c_mem k e;
      hit ~layer:"disk" e
    | None ->
      t.c_stats <- { t.c_stats with misses = t.c_stats.misses + 1 };
      Obs.Metrics.inc (Lazy.force M.misses);
      Obs.Log.event ~level:Obs.Log.Debug "cache:miss"
        [ ("key", Obs.Trace.S k) ];
      None)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()
  end

(* Returns the published entry's size in bytes, [None] when the cache
   has no directory or the write failed (error-counted). *)
let store_disk t k e =
  match path_of t k with
  | None -> None
  | Some path -> (
    (* Atomic publication: never leave a torn file for a concurrent or
       later reader to trip over. *)
    try
      (* Serialize before creating the temp file: a non-finite value
         aborts the store without touching the directory. *)
      let doc = Obs.Json.print (entry_to_json ~key:k e) ^ "\n" in
      Option.iter mkdir_p t.c_dir;
      let tmp =
        Filename.temp_file ~temp_dir:(Option.get t.c_dir) "cache" ".tmp"
      in
      (try
         Out_channel.with_open_text tmp (fun oc ->
             Out_channel.output_string oc doc);
         (* temp_file creates 0o600 and rename preserves it, which
            would make a shared cache directory unreadable to other
            users; publish world-readable. *)
         Unix.chmod tmp 0o644;
         Sys.rename tmp path
       with exn ->
         (* Never leak the temp file on a failed write. *)
         (try Sys.remove tmp with Sys_error _ | Unix.Unix_error _ -> ());
         raise exn);
      touch t k e ~size:(String.length doc);
      t.c_stored <- true;
      Some (String.length doc)
    with Sys_error _ | Unix.Unix_error _ | Invalid_argument _ | Failure _ ->
      count_error t;
      None)

(* --- Index maintenance ---------------------------------------------------- *)

let count_index_rebuild () =
  Obs.Metrics.inc (Lazy.force M.index_rebuilds);
  Obs.Trace.instant ~cat:"cache" "cache:index-rebuild"

let flush_index t =
  match t.c_dir with
  | None -> ()
  | Some d ->
    if Hashtbl.length t.c_touched > 0 && Sys.file_exists d then begin
      (* Hits only: entry mtimes, not the index.  A file pruned meanwhile
         needs nothing; one we may not touch (another user's) goes below. *)
      if not t.c_stored then
        Hashtbl.filter_map_inplace
          (fun k (m : Cache_index.meta) ->
            let path = Filename.concat d (Cache_index.file_of_key k) in
            match Unix.utimes path m.m_last_used m.m_last_used with
            | () | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> None
            | exception Unix.Unix_error _ -> Some m)
          t.c_touched;
      if Hashtbl.length t.c_touched > 0 then
        try
          let idx, rebuilt = Cache_index.load_or_rebuild d in
          if rebuilt then count_index_rebuild ();
          Hashtbl.iter (fun _ m -> Cache_index.record idx m) t.c_touched;
          Cache_index.save d idx;
          Hashtbl.reset t.c_touched;
          t.c_stored <- false
        with Sys_error _ | Unix.Unix_error _ -> count_error t
    end

(* --- Lifecycle management over a directory -------------------------------- *)

type policy = {
  max_entries : int option;
  max_bytes : int option;
  max_age_s : float option;
}

let unlimited = { max_entries = None; max_bytes = None; max_age_s = None }

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_oldest : float option;
  d_newest : float option;
  d_index_rebuilt : bool;
}

(* Load-or-rebuild plus reconcile: the index is advisory, the files are
   the truth, so every lifecycle operation re-syncs before acting. *)
let synced_index dir =
  let idx, rebuilt = Cache_index.load_or_rebuild dir in
  if rebuilt then count_index_rebuild ()
  else ignore (Cache_index.reconcile dir idx);
  (idx, rebuilt)

let disk_stats dirname =
  let idx, rebuilt = synced_index dirname in
  let ms = Cache_index.entries idx in
  { d_entries = Cache_index.count idx;
    d_bytes = Cache_index.total_bytes idx;
    d_oldest =
      (match ms with [] -> None | m :: _ -> Some m.Cache_index.m_last_used);
    d_newest =
      (match List.rev ms with
      | [] -> None
      | m :: _ -> Some m.Cache_index.m_last_used);
    d_index_rebuilt = rebuilt }

type prune_report = {
  p_kept : int;
  p_kept_bytes : int;
  p_evicted : int;
  p_evicted_bytes : int;
  p_index_rebuilt : bool;
}

let prune ?now ~policy dirname =
  let now =
    match now with Some n -> n | None -> Unix.gettimeofday ()
  in
  let idx, rebuilt = synced_index dirname in
  let victims =
    Cache_index.plan_eviction ~now ?max_entries:policy.max_entries
      ?max_bytes:policy.max_bytes ?max_age_s:policy.max_age_s idx
  in
  let evicted_bytes = ref 0 in
  List.iter
    (fun (m : Cache_index.meta) ->
      (* Entries are immutable and recomputable, so deletion is always
         safe; a file already gone is not an error. *)
      (try
         Sys.remove
           (Filename.concat dirname (Cache_index.file_of_key m.Cache_index.m_key))
       with Sys_error _ -> ());
      Cache_index.remove idx m.Cache_index.m_key;
      evicted_bytes := !evicted_bytes + m.Cache_index.m_size;
      Obs.Metrics.inc (Lazy.force M.evictions);
      Obs.Trace.instant ~cat:"cache" "cache:evict"
        ~args:[ ("key", Obs.Trace.S m.Cache_index.m_key) ];
      Obs.Log.event "cache:evict"
        [ ("key", Obs.Trace.S m.Cache_index.m_key);
          ("name", Obs.Trace.S m.Cache_index.m_name);
          ("bytes", Obs.Trace.I m.Cache_index.m_size) ])
    victims;
  (try Cache_index.save dirname idx with Sys_error _ | Unix.Unix_error _ -> ());
  { p_kept = Cache_index.count idx;
    p_kept_bytes = Cache_index.total_bytes idx;
    p_evicted = List.length victims;
    p_evicted_bytes = !evicted_bytes;
    p_index_rebuilt = rebuilt }

(* --- Store (with the inline size cap) ------------------------------------- *)

(* When the cache was created with [max_bytes], a store that pushes the
   directory's estimated payload past the bound triggers LRU eviction on
   the spot.  The estimate is seeded from the index once (first capped
   store) and advanced per store, so the steady-state cost is one
   comparison; an actual enforcement pass re-syncs the index, evicts and
   re-seeds the estimate from the authoritative result. *)
let enforce_cap t =
  match (t.c_dir, t.c_max_bytes) with
  | Some d, Some mb when t.c_approx_bytes > mb && Sys.file_exists d ->
    (* Publish this instance's pending last-used times first, so the
       LRU order sees the current sweep's entries as fresh and evicts
       genuinely cold ones. *)
    flush_index t;
    let r = prune ~policy:{ unlimited with max_bytes = Some mb } d in
    t.c_approx_bytes <- r.p_kept_bytes;
    Obs.Log.event "cache:cap-enforced"
      [ ("max_bytes", Obs.Trace.I mb);
        ("evicted", Obs.Trace.I r.p_evicted);
        ("evicted_bytes", Obs.Trace.I r.p_evicted_bytes);
        ("kept_bytes", Obs.Trace.I r.p_kept_bytes) ]
  | _ -> ()

let flush t = locked t (fun () -> flush_index t)

let store t k e =
  locked t @@ fun () ->
  Hashtbl.replace t.c_mem k e;
  (match store_disk t k e with
  | None -> ()
  | Some size ->
    if t.c_max_bytes <> None then begin
      if t.c_approx_bytes < 0 then
        (* First capped store: seed the estimate from the index (the
           entry just stored is already on disk and indexed-or-adopted
           by the re-sync below on enforcement). *)
        t.c_approx_bytes <-
          (match t.c_dir with
          | Some d ->
            let idx, rebuilt = Cache_index.load_or_rebuild d in
            if rebuilt then count_index_rebuild ();
            ignore (Cache_index.reconcile d idx);
            Cache_index.total_bytes idx
          | None -> size)
      else t.c_approx_bytes <- t.c_approx_bytes + size;
      enforce_cap t
    end);
  t.c_stats <- { t.c_stats with stores = t.c_stats.stores + 1 };
  Obs.Metrics.inc (Lazy.force M.stores)

(* --- Read-through collection ---------------------------------------------- *)

type complexity = string * (Tie.Component.t -> float)

(* One simulation yields everything an entry holds; with the reference
   estimator attached to the retire hook (characterization, audit,
   Table II) it stays single-pass.  Under [Check] the event-by-event
   oracle folds an interpreter run's events and must agree with the
   compiled estimator, fed by the checked run's threaded half, to the
   bit. *)
let compute ?complexity ~config ~with_ref (c : Extract.case) =
  let complexity = Option.map snd complexity in
  let prof, measured =
    if with_ref then begin
      let extension = c.Extract.extension in
      let est = Power.Estimator.create ?extension config in
      let p =
        Extract.profile ~config ?complexity
          ~hook:(Power.Estimator.hook est c.Extract.asm) c
      in
      if Sim.Backend.current () = Sim.Backend.Check then begin
        let oracle = Power.Oracle.create ?extension config in
        ignore
          (Sim.Backend.run_program ~backend:Sim.Backend.Interp ~config
             ?extension ~observers:[ Power.Oracle.observer oracle ]
             c.Extract.asm);
        Power.Estimator.check est oracle
      end;
      (p, Some (Power.Estimator.total_energy est))
    end
    else (Extract.profile ~config ?complexity c, None)
  in
  { e_name = c.Extract.case_name;
    e_variables = prof.Extract.variables;
    e_cycles = prof.Extract.cycles;
    e_instructions = prof.Extract.instructions;
    e_stall_cycles = prof.Extract.stall_cycles;
    e_measured_pj = measured }

type simulate =
  config:Sim.Config.t -> with_ref:bool -> Extract.case list -> entry list

(* Resolve every case to an entry: probe the cache, simulate the
   distinct misses (on the worker pool unless the caller supplies its
   own [simulate]), publish them, and mark each row with whether its
   vector was reused (cache or an earlier identical case in this very
   call) or freshly simulated.  Returns rows in input order plus the
   number of simulations actually run. *)
let collect ?jobs ?simulate ?complexity t ~with_ref ~config cases =
  let complexity_tag = Option.map fst complexity in
  let probed =
    List.map
      (fun (c : Extract.case) ->
        let k = key ?complexity_tag ~with_reference:with_ref ~config c in
        match find t k with
        | Some e when (not with_ref) || Option.is_some e.e_measured_pj ->
          (k, c, Some e)
        | Some _ | None ->
          (* An entry without the reference energy cannot serve a
             characterization lookup; recompute it. *)
          (k, c, None))
      cases
  in
  let misses =
    List.fold_left
      (fun acc (k, c, hit) ->
        if hit <> None || List.mem_assoc k acc then acc else (k, c) :: acc)
      [] probed
    |> List.rev
  in
  let computed =
    match (List.map snd misses, simulate) with
    | [], _ -> []
    | cs, Some f -> f ~config ~with_ref cs
    | cs, None -> Parallel.map ?jobs (compute ?complexity ~config ~with_ref) cs
  in
  (* The first row of a fresh key owns its simulation; later copies of
     the key read as reused. *)
  let fresh = Hashtbl.create 16 in
  List.iter2
    (fun (k, _) e ->
      store t k e;
      Hashtbl.replace fresh k (e, false))
    misses computed;
  let rows =
    List.map
      (fun (k, _, hit) ->
        match hit with
        | Some e -> (e, true)
        | None ->
          let e, reused = Hashtbl.find fresh k in
          Hashtbl.replace fresh k (e, true);
          (e, reused))
      probed
  in
  (rows, List.length computed)

type verify_report = {
  v_ok : int;
  v_corrupt : (string * string) list;
  v_foreign : string list;
  v_tmp : string list;
}

let list_dir dirname =
  match Sys.readdir dirname with
  | files -> Array.to_list files |> List.sort compare
  | exception Sys_error _ -> []

let verify dirname =
  let ok = ref 0 and corrupt = ref [] and foreign = ref [] and tmp = ref [] in
  List.iter
    (fun fname ->
      let path = Filename.concat dirname fname in
      if fname = Cache_index.index_basename then ()
      else if try Sys.is_directory path with Sys_error _ -> false then
        foreign := fname :: !foreign
      else if Filename.check_suffix fname ".tmp" then tmp := fname :: !tmp
      else
        match Cache_index.key_of_entry_file fname with
        | None -> foreign := fname :: !foreign
        | Some k -> (
          match
            entry_of_json ~expect_key:k
              (In_channel.with_open_text path In_channel.input_all)
          with
          | _ -> incr ok
          | exception Failure msg -> corrupt := (fname, msg) :: !corrupt
          | exception Obs.Json.Parse_error msg ->
            corrupt := (fname, msg) :: !corrupt
          | exception Sys_error msg -> corrupt := (fname, msg) :: !corrupt))
    (list_dir dirname);
  { v_ok = !ok;
    v_corrupt = List.rev !corrupt;
    v_foreign = List.rev !foreign;
    v_tmp = List.rev !tmp }

type gc_report = {
  g_tmp_removed : int;
  g_foreign_removed : int;
  g_index_added : int;
  g_index_dropped : int;
}

let gc dirname =
  let tmp = ref 0 and foreign = ref 0 in
  List.iter
    (fun fname ->
      let path = Filename.concat dirname fname in
      if fname = Cache_index.index_basename then ()
      else if try Sys.is_directory path with Sys_error _ -> false then ()
      else if Cache_index.key_of_entry_file fname <> None then ()
      else begin
        (* An orphaned temp file (from a writer that died between
           temp_file and rename) or a file that can never be indexed:
           sweep it. *)
        let counter =
          if Filename.check_suffix fname ".tmp" then tmp else foreign
        in
        try
          Sys.remove path;
          incr counter;
          Obs.Metrics.inc (Lazy.force M.orphans);
          Obs.Trace.instant ~cat:"cache" "cache:gc"
            ~args:[ ("file", Obs.Trace.S fname) ]
        with Sys_error _ -> ()
      end)
    (list_dir dirname);
  let idx, rebuilt = Cache_index.load_or_rebuild dirname in
  if rebuilt then count_index_rebuild ();
  let added, dropped =
    if rebuilt then (0, 0) else Cache_index.reconcile dirname idx
  in
  (try Cache_index.save dirname idx with Sys_error _ | Unix.Unix_error _ -> ());
  { g_tmp_removed = !tmp;
    g_foreign_removed = !foreign;
    g_index_added = added;
    g_index_dropped = dropped }
