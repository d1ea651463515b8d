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
  (* Disk hits since the last {!flush}, with the time of each: flushed
     as the hit entries' mtimes.  A store needs no record, its own
     write sets the mtime. *)
  c_touched : (string, float) Hashtbl.t;
  (* Inline size cap: when a store pushes the directory's estimated
     payload past [c_max_bytes], LRU eviction runs immediately instead
     of waiting for a manual prune.  [c_approx_bytes] is the running
     estimate (seeded from a directory scan at the first capped store, then
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
end

let create ?dir ?max_bytes () =
  { c_lock = Mutex.create ();
    c_dir = dir; c_mem = Hashtbl.create 64;
    c_stats = { hits = 0; misses = 0; errors = 0; stores = 0 };
    c_touched = Hashtbl.create 16;
    c_max_bytes = max_bytes;
    c_approx_bytes = -1 }

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
   configuration, whether the reference estimator observes the run, and
   the simulation backend that would produce the entry.
   The backends are bit-identical by contract, but keying them apart
   means a cached vector never masks a divergence: an entry always
   records what the named backend actually computed. *)
let key ?backend ?(with_reference = false) ~(config : Sim.Config.t)
    (c : Extract.case) =
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
         && Bool.equal m.Extract.km_with_reference with_reference
         && same_config m.Extract.km_config config ->
    m.Extract.km_key
  | _ ->
    (* ["default"] names the C(W) weighting keys once carried:
       keeping it finds every entry stored before it became a
       constant. *)
    let k =
      digest
        ( "xenergy-eval-cache", payload_version, backend, "default",
          with_reference, Extract.digest c, config )
    in
    Atomic.set c.Extract.key_slot
      (Some
         { Extract.km_backend = backend;
           km_with_reference = with_reference;
           km_config = config;
           km_key = k });
    k

(* [true] is the non-negative fitting flag models were once keyed by:
   keeping it finds every model stored before the flag became a
   constant. *)
let model_key sample_keys =
  digest ("xenergy-model", model_version, true, sample_keys)

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

(* --- Directory layout ------------------------------------------------------ *)

(* The directory is the cache's only record: an entry is a regular file
   named [<32-hex>.json], its size is [st_size] and its last use
   [st_mtime] (a store's write or a flushed hit sets it). *)

let file_of_key k = k ^ ".json"

let key_of_entry_file fname =
  if Filename.check_suffix fname ".json" then
    let stem = Filename.chop_suffix fname ".json" in
    if
      String.length stem = 32
      && String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           stem
    then Some stem
    else None
  else None

type kind = Entry of string * Unix.stats | Tmp | Live_tmp | Foreign

(* A writer's temp file lives between its open and its rename, a few
   milliseconds; one younger than this may still be in flight. *)
let tmp_grace_s = 600.0

(* How every directory operation reads a name: only a regular file named
   like an entry is one (a directory so named is foreign); a [*.tmp]
   file modified in the last [tmp_grace_s] (as of [now]) may belong to a
   live writer, an older one is an orphan; anything else, an entry name
   that vanished under the scan included, is foreign. *)
let classify ~now dirname fname =
  let path = Filename.concat dirname fname in
  match key_of_entry_file fname with
  | Some k -> (
    match Unix.stat path with
    | st when st.Unix.st_kind = Unix.S_REG -> Entry (k, st)
    | _ | (exception Unix.Unix_error _) -> Foreign)
  | None when Filename.check_suffix fname ".tmp" -> (
    match Unix.stat path with
    | st when st.Unix.st_kind = Unix.S_DIR -> Foreign
    | st when now -. st.Unix.st_mtime < tmp_grace_s -> Live_tmp
    | _ | (exception Unix.Unix_error _) -> Tmp)
  | None -> Foreign

let list_dir dirname =
  match Sys.readdir dirname with
  | files -> Array.to_list files
  | exception Sys_error _ -> []

type file = { f_key : string; f_size : int; f_last_used : float }

(* Every entry with its size and last use.  An mtime is a last use, but
   never a future one: a file copied from a clock-skewed host must not
   outrank every real use for good. *)
let scan dirname =
  let now = Unix.gettimeofday () in
  List.filter_map
    (fun fname ->
      match classify ~now dirname fname with
      | Entry (k, st) ->
        Some
          { f_key = k;
            f_size = st.Unix.st_size;
            f_last_used = Float.min st.Unix.st_mtime now }
      | Tmp | Live_tmp | Foreign -> None)
    (list_dir dirname)

let total_bytes files = List.fold_left (fun n f -> n + f.f_size) 0 files

(* --- Lookup / store ------------------------------------------------------ *)

let path_of t k =
  Option.map (fun d -> Filename.concat d (file_of_key k)) t.c_dir

let count_error t =
  t.c_stats <- { t.c_stats with errors = t.c_stats.errors + 1 };
  Obs.Metrics.inc (Lazy.force M.errors);
  Obs.Trace.instant ~cat:"cache" "cache:error"

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
      entry_of_json ~expect_key:k s
    with
    | e ->
      Hashtbl.replace t.c_touched k (Unix.gettimeofday ());
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

(* Temp names are [cache<key>-<n>.tmp], so [classify] and [gc] know
   them; [n] counts this process's attempts.  A name taken by another
   writer (another process, or a forked child that inherited the count)
   or by an orphan fails the exclusive open, and the next [n] is tried. *)
let tmp_seq = Atomic.make 0

(* Create a fresh temp file for [k] in [dir], exclusively and without
   following a planted link.  The directory is made only when it is
   missing (the open fails with ENOENT), then the open is retried. *)
let open_tmp dir k =
  let flags = Unix.[ O_WRONLY; O_CREAT; O_EXCL; O_CLOEXEC ] in
  let rec attempt ~made_dir tries =
    let tmp =
      Filename.concat dir
        (Printf.sprintf "cache%s-%d.tmp" k (Atomic.fetch_and_add tmp_seq 1))
    in
    match Unix.openfile tmp flags 0o644 with
    | fd -> (tmp, fd)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) when not made_dir ->
      mkdir_p dir;
      attempt ~made_dir:true tries
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 ->
      attempt ~made_dir (tries - 1)
  in
  attempt ~made_dir:false 16

(* Returns the published entry's size in bytes, [None] when the cache
   has no directory or the write failed (error-counted).  Five system
   calls: open, write, fchmod, close, rename. *)
let store_disk t k e =
  match t.c_dir with
  | None -> None
  | Some dir -> (
    let path = Filename.concat dir (file_of_key k) in
    (* Atomic publication: never leave a torn file for a concurrent or
       later reader to trip over. *)
    try
      (* Serialize before creating the temp file: a non-finite value
         aborts the store without touching the directory. *)
      let doc = Obs.Json.print (entry_to_json ~key:k e) ^ "\n" in
      let tmp, fd = open_tmp dir k in
      let closed = ref false in
      (try
         (* [Unix.write_substring] repeats until every byte is written. *)
         ignore (Unix.write_substring fd doc 0 (String.length doc));
         (* The umask may have narrowed the open's mode, and a shared
            cache directory must stay readable to other users: publish
            world-readable. *)
         Unix.fchmod fd 0o644;
         closed := true;
         Unix.close fd;
         Unix.rename tmp path
       with exn ->
         (* Never leak the descriptor or the temp file on a failed
            write. *)
         if not !closed then (try Unix.close fd with Unix.Unix_error _ -> ());
         (try Unix.unlink tmp with Unix.Unix_error _ -> ());
         raise exn);
      Some (String.length doc)
    with Sys_error _ | Unix.Unix_error _ | Invalid_argument _ | Failure _ ->
      count_error t;
      None)

(* Publish each pending hit as its entry's mtime.  A file pruned
   meanwhile needs nothing; one whose mtime we may not set (another
   user's, in a shared directory) is written anew from memory, and that
   write's mtime records the use. *)
let flush_hits t =
  match t.c_dir with
  | None -> ()
  | Some d ->
    Hashtbl.iter
      (fun k used ->
        match Unix.utimes (Filename.concat d (file_of_key k)) used used with
        | () | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> ()
        | exception Unix.Unix_error _ ->
          Option.iter
            (fun e -> ignore (store_disk t k e))
            (Hashtbl.find_opt t.c_mem k))
      t.c_touched;
    Hashtbl.reset t.c_touched

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
}

let disk_stats dirname =
  let files = scan dirname in
  let bound pick = function
    | [] -> None
    | f :: fs ->
      Some
        (List.fold_left
           (fun acc f -> pick acc f.f_last_used)
           f.f_last_used fs)
  in
  { d_entries = List.length files;
    d_bytes = total_bytes files;
    d_oldest = bound Float.min files;
    d_newest = bound Float.max files }

(* LRU eviction plan: walking the entries newest first, keep each one
   while every bound of [policy] still holds and evict the rest.  Ties
   on last use break by key, so plans are deterministic. *)
let plan_eviction ~now policy files =
  let newest_first =
    List.sort
      (fun a b ->
        match Float.compare b.f_last_used a.f_last_used with
        | 0 -> String.compare b.f_key a.f_key
        | c -> c)
      files
  in
  let too_old f =
    match policy.max_age_s with
    | None -> false
    | Some age -> now -. f.f_last_used > age
  in
  let _, _, evicted =
    List.fold_left
      (fun (kept, kept_bytes, evicted) f ->
        let over_count =
          match policy.max_entries with Some n -> kept >= n | None -> false
        in
        let over_bytes =
          match policy.max_bytes with
          | Some b -> kept_bytes + f.f_size > b
          | None -> false
        in
        if over_count || over_bytes || too_old f then
          (kept, kept_bytes, f :: evicted)
        else (kept + 1, kept_bytes + f.f_size, evicted))
      (0, 0, []) newest_first
  in
  (* Oldest first. *)
  evicted

type prune_report = {
  p_kept : int;
  p_kept_bytes : int;
  p_evicted : int;
  p_evicted_bytes : int;
}

let prune ?now ~policy dirname =
  let now =
    match now with Some n -> n | None -> Unix.gettimeofday ()
  in
  let files = scan dirname in
  (* Entries are immutable and recomputable, so deletion is always safe.
     Only a file this pass removed, or one already gone, is evicted. *)
  let evicted =
    List.filter
      (fun f ->
        let path = Filename.concat dirname (file_of_key f.f_key) in
        match Sys.remove path with
        | () -> true
        | exception Sys_error _ -> not (Sys.file_exists path))
      (plan_eviction ~now policy files)
  in
  List.iter
    (fun f ->
      Obs.Metrics.inc (Lazy.force M.evictions);
      Obs.Trace.instant ~cat:"cache" "cache:evict"
        ~args:[ ("key", Obs.Trace.S f.f_key) ];
      Obs.Log.event "cache:evict"
        [ ("key", Obs.Trace.S f.f_key); ("bytes", Obs.Trace.I f.f_size) ])
    evicted;
  let evicted_bytes = total_bytes evicted in
  let n_evicted = List.length evicted in
  { p_kept = List.length files - n_evicted;
    p_kept_bytes = total_bytes files - evicted_bytes;
    p_evicted = n_evicted;
    p_evicted_bytes = evicted_bytes }

(* --- Store (with the inline size cap) ------------------------------------- *)

(* When the cache was created with [max_bytes], a store that pushes the
   directory's estimated payload past the bound triggers LRU eviction on
   the spot, down to three quarters of the bound: pruning only to just
   under it would make nearly every later store cross it again and pay
   another scan.  The estimate is seeded from one directory scan (first
   capped store) and advanced per store, so the steady-state cost is one
   comparison; an actual enforcement pass rescans, evicts and re-seeds
   the estimate from what it kept. *)
let enforce_cap t =
  match (t.c_dir, t.c_max_bytes) with
  | Some d, Some mb when t.c_approx_bytes > mb ->
    (* Publish this instance's pending hits first, so the LRU order sees
       the current sweep's entries as fresh and evicts genuinely cold
       ones. *)
    flush_hits t;
    let r = prune ~policy:{ unlimited with max_bytes = Some (mb * 3 / 4) } d in
    t.c_approx_bytes <- r.p_kept_bytes;
    Obs.Log.event "cache:cap-enforced"
      [ ("max_bytes", Obs.Trace.I mb);
        ("evicted", Obs.Trace.I r.p_evicted);
        ("evicted_bytes", Obs.Trace.I r.p_evicted_bytes);
        ("kept_bytes", Obs.Trace.I r.p_kept_bytes) ]
  | _ -> ()

let flush t = locked t (fun () -> flush_hits t)

let store t k e =
  locked t @@ fun () ->
  Hashtbl.replace t.c_mem k e;
  (* The write below sets the entry's mtime, later than a pending hit. *)
  Hashtbl.remove t.c_touched k;
  (match store_disk t k e with
  | None -> ()
  | Some size ->
    if t.c_max_bytes <> None then begin
      t.c_approx_bytes <-
        (if t.c_approx_bytes < 0 then
           (* First capped store: the scan already sees this entry. *)
           total_bytes (scan (Option.get t.c_dir))
         else t.c_approx_bytes + size);
      enforce_cap t
    end);
  t.c_stats <- { t.c_stats with stores = t.c_stats.stores + 1 };
  Obs.Metrics.inc (Lazy.force M.stores)

(* --- Read-through collection ---------------------------------------------- *)

(* One simulation yields everything an entry holds; with the reference
   estimator attached to the retire hook (characterization, audit,
   Table II) it stays single-pass.  Under [Check] the event-by-event
   oracle folds an interpreter run's events and must agree with the
   compiled estimator, fed by the checked run's threaded half, to the
   bit. *)
let compute ~config ~with_ref (c : Extract.case) =
  let prof, measured =
    if with_ref then begin
      let extension = c.Extract.extension in
      let est = Power.Estimator.create ?extension config in
      let p =
        Extract.profile ~config ~hook:(Power.Estimator.hook est c.Extract.asm)
          c
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
    else (Extract.profile ~config c, None)
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
let collect ?jobs ?simulate t ~with_ref ~config cases =
  let probed =
    List.map
      (fun (c : Extract.case) ->
        let k = key ~with_reference:with_ref ~config c in
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
    | cs, None -> Parallel.map ?jobs (compute ~config ~with_ref) cs
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

let verify dirname =
  let ok = ref 0 and corrupt = ref [] and foreign = ref [] and tmp = ref [] in
  let now = Unix.gettimeofday () in
  List.iter
    (fun fname ->
      match classify ~now dirname fname with
      | Foreign -> foreign := fname :: !foreign
      | Tmp -> tmp := fname :: !tmp
      | Live_tmp -> ()
      | Entry (k, _) -> (
        match
          entry_of_json ~expect_key:k
            (In_channel.with_open_text
               (Filename.concat dirname fname)
               In_channel.input_all)
        with
        | _ -> incr ok
        | exception Failure msg -> corrupt := (fname, msg) :: !corrupt
        | exception Obs.Json.Parse_error msg ->
          corrupt := (fname, msg) :: !corrupt
        | exception Sys_error msg -> corrupt := (fname, msg) :: !corrupt))
    (List.sort compare (list_dir dirname));
  { v_ok = !ok;
    v_corrupt = List.rev !corrupt;
    v_foreign = List.rev !foreign;
    v_tmp = List.rev !tmp }

type gc_report = { g_tmp_removed : int; g_foreign_removed : int }

let gc dirname =
  let tmp = ref 0 and foreign = ref 0 in
  let now = Unix.gettimeofday () in
  List.iter
    (fun fname ->
      let counter =
        match classify ~now dirname fname with
        | Entry _ | Live_tmp -> None
        | Tmp -> Some tmp
        | Foreign -> Some foreign
      in
      (* An orphaned temp file (from a writer that died between
         temp_file and rename) or a file that can never be an entry:
         sweep it.  A directory stays (its removal fails). *)
      Option.iter
        (fun counter ->
          try
            Sys.remove (Filename.concat dirname fname);
            incr counter;
            Obs.Metrics.inc (Lazy.force M.orphans);
            Obs.Trace.instant ~cat:"cache" "cache:gc"
              ~args:[ ("file", Obs.Trace.S fname) ]
          with Sys_error _ -> ())
        counter)
    (list_dir dirname);
  { g_tmp_removed = !tmp; g_foreign_removed = !foreign }
