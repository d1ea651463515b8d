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
  l_simulations : int;
}

type stats = {
  r_models : int;
  r_hits : int;
  r_misses : int;
}

type t = {
  characterize : Sim.Config.t -> Core.Template.model * int;
  table : (string, Core.Template.model) Hashtbl.t;
  lock : Mutex.t;               (* guards table/counters/inflight *)
  cond : Condition.t;           (* broadcast when a characterization lands *)
  inflight : (string, unit) Hashtbl.t;
  (* config hashes being characterized right now: a second thread
     asking for one of these waits instead of double-characterizing *)
  mutable hits : int;
  mutable misses : int;
}

let key_of_config config =
  Digest.to_hex
    (Digest.string (Marshal.to_string ("xenergy-serve-model", 1, config) []))

let create ~characterize () =
  { characterize;
    table = Hashtbl.create 8;
    lock = Mutex.create ();
    cond = Condition.create ();
    inflight = Hashtbl.create 4;
    hits = 0;
    misses = 0 }

(* Called with the lock held. *)
let install t key model =
  Hashtbl.replace t.table key model;
  Obs.Metrics.set (Lazy.force M.models) (float_of_int (Hashtbl.length t.table))

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
    | Some model ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Obs.Metrics.inc (Lazy.force M.hits);
      { l_key = key; l_model = model; l_hit = true; l_simulations = 0 }
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
        let model, sims =
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
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        { l_key = key; l_model = model; l_hit = false; l_simulations = sims }
      end
  in
  obtain ()

let preload t config model =
  let key = key_of_config config in
  Mutex.lock t.lock;
  install t key model;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let s =
    { r_models = Hashtbl.length t.table; r_hits = t.hits; r_misses = t.misses }
  in
  Mutex.unlock t.lock;
  s
