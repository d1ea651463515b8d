module M = struct
  let hits =
    lazy
      (Obs.Metrics.counter
         ~help:"model-registry lookups served from memory"
         "serve_registry_hits_total")

  let misses =
    lazy
      (Obs.Metrics.counter
         ~help:
           "model-registry lookups that characterized (or read a stored \
            model)"
         "serve_registry_misses_total")

  let evictions =
    lazy
      (Obs.Metrics.counter ~help:"models LRU-evicted from the registry"
         "serve_registry_evictions_total")

  let models =
    lazy
      (Obs.Metrics.gauge ~help:"models currently resident in the registry"
         "serve_registry_models")

  let characterize_seconds =
    lazy
      (Obs.Metrics.histogram
         ~help:"wall time of registry-triggered characterizations"
         "serve_characterize_seconds")
end

type lookup = {
  l_key : string;
  l_model : Core.Template.model;
  l_hit : bool;
}

type stats = {
  r_models : int;
  r_hits : int;
  r_misses : int;
  r_evictions : int;
}

type slot = { model : Core.Template.model; mutable last_used : float }

type t = {
  max_models : int;
  characterize : Sim.Config.t -> Core.Template.model;
  table : (string, slot) Hashtbl.t;
  lock : Mutex.t;               (* guards table/counters/inflight *)
  cond : Condition.t;           (* broadcast when a characterization lands *)
  inflight : (string, unit) Hashtbl.t;
  (* config hashes being characterized right now: a second thread
     asking for one of these waits instead of double-characterizing *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let key_of_config config =
  Digest.to_hex
    (Digest.string (Marshal.to_string ("xenergy-serve-model", 1, config) []))

let create ?(max_models = 4) ~characterize () =
  if max_models < 1 then invalid_arg "Registry.create: max_models must be >= 1";
  { max_models;
    characterize;
    table = Hashtbl.create 8;
    lock = Mutex.create ();
    cond = Condition.create ();
    inflight = Hashtbl.create 4;
    hits = 0;
    misses = 0;
    evictions = 0 }

let install t key model =
  Hashtbl.replace t.table key { model; last_used = Unix.gettimeofday () }

let publish_residency t =
  Obs.Metrics.set (Lazy.force M.models) (float_of_int (Hashtbl.length t.table))

(* Evict least recently used models past the bound; ties on last use
   break by key. *)
let evict_over_bound t =
  while Hashtbl.length t.table > t.max_models do
    let key, _ =
      Hashtbl.fold
        (fun k s ((k', u') as oldest) ->
          match Float.compare s.last_used u' with
          | c when c < 0 || (c = 0 && String.compare k k' < 0) ->
            (k, s.last_used)
          | _ -> oldest)
        t.table ("", Float.infinity)
    in
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.inc (Lazy.force M.evictions);
    Obs.Log.event "serve:evict-model" [ ("key", Obs.Trace.S key) ]
  done;
  publish_residency t

(* Characterization runs with the lock released (it is the multi-second
   step the daemon exists to amortize — holding the lock across it
   would serialize the whole registry, not just this config).  The
   [inflight] marker is what makes the flight single *per config*:
   racers on the same hash wait on [cond]; lookups of other configs
   take the lock briefly and proceed — including starting their own
   characterizations in parallel. *)
let get t config =
  let key = key_of_config config in
  Mutex.lock t.lock;
  let rec obtain () =
    match Hashtbl.find_opt t.table key with
    | Some slot ->
      t.hits <- t.hits + 1;
      slot.last_used <- Unix.gettimeofday ();
      Mutex.unlock t.lock;
      Obs.Metrics.inc (Lazy.force M.hits);
      { l_key = key; l_model = slot.model; l_hit = true }
    | None ->
      if Hashtbl.mem t.inflight key then begin
        (* Another connection is characterizing this very config; wait
           for its model rather than running a duplicate flight.  The
           woken lookup counts as a hit: no characterization of its
           own ran. *)
        Condition.wait t.cond t.lock;
        obtain ()
      end
      else begin
        Hashtbl.add t.inflight key ();
        t.misses <- t.misses + 1;
        Mutex.unlock t.lock;
        Obs.Metrics.inc (Lazy.force M.misses);
        Obs.Log.event "serve:characterize" [ ("key", Obs.Trace.S key) ];
        let t0 = Unix.gettimeofday () in
        let model =
          try t.characterize config
          with e ->
            (* Waiters must not sleep forever on a failed flight: clear
               the marker and let them retry (and fail) for themselves. *)
            Mutex.lock t.lock;
            Hashtbl.remove t.inflight key;
            Condition.broadcast t.cond;
            Mutex.unlock t.lock;
            raise e
        in
        Obs.Metrics.observe
          (Lazy.force M.characterize_seconds)
          (Unix.gettimeofday () -. t0);
        Mutex.lock t.lock;
        install t key model;
        Hashtbl.remove t.inflight key;
        evict_over_bound t;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        { l_key = key; l_model = model; l_hit = false }
      end
  in
  obtain ()

let preload t config model =
  let key = key_of_config config in
  Mutex.lock t.lock;
  install t key model;
  evict_over_bound t;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let s =
    { r_models = Hashtbl.length t.table;
      r_hits = t.hits;
      r_misses = t.misses;
      r_evictions = t.evictions }
  in
  Mutex.unlock t.lock;
  s
