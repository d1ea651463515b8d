(* The serving stack, bottom-up: the length-prefixed frame codec (and
   its deadline/oversize/truncation refusals in both directions), the
   JSON printer round-trip, the model registry's
   hit/characterize lifecycle and preload residency, the router's ops in process, and
   a forked end-to-end daemon exercised through the real client —
   including the concurrency contract: overlapping connections,
   per-config single-flight characterization, wedged/half-closed/
   hanging-up clients, socket-steal refusal and the /metrics scrape. *)

let check = Alcotest.check

module J = Obs.Json

let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Protocol ------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let a, b = socketpair () in
  Serve.Protocol.write_frame a "hello, frame";
  check Alcotest.(option string) "payload round-trips" (Some "hello, frame")
    (Serve.Protocol.read_frame b);
  Serve.Protocol.write_frame a "";
  check Alcotest.(option string) "empty payload round-trips" (Some "")
    (Serve.Protocol.read_frame b);
  (* Two frames written back to back arrive as two frames. *)
  Serve.Protocol.write_frame a "first";
  Serve.Protocol.write_frame a "second";
  check Alcotest.(option string) "first frame" (Some "first")
    (Serve.Protocol.read_frame b);
  check Alcotest.(option string) "second frame" (Some "second")
    (Serve.Protocol.read_frame b);
  Unix.close a;
  check Alcotest.(option string) "clean EOF between frames is None" None
    (Serve.Protocol.read_frame b);
  Unix.close b

let test_frame_truncation_and_oversize () =
  (* A peer that dies mid-frame is a Frame_error, not a hang or a None. *)
  let a, b = socketpair () in
  let partial = "\x00\x00\x00\x0aabc" (* claims 10 bytes, ships 3 *) in
  ignore (Unix.write_substring a partial 0 (String.length partial));
  Unix.close a;
  (match Serve.Protocol.read_frame b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "truncation named" true (contains msg "truncated")
   | _ -> Alcotest.fail "truncated frame not rejected");
  Unix.close b;
  (* An oversized length prefix is rejected before any allocation. *)
  let a, b = socketpair () in
  ignore (Unix.write_substring a "\x7f\xff\xff\xff" 0 4);
  (match Serve.Protocol.read_frame b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "bound named" true (contains msg "exceeds")
   | _ -> Alcotest.fail "oversized frame not rejected");
  Unix.close a;
  Unix.close b

let test_frame_read_deadline () =
  (* A silent peer cannot hold the reader past its deadline. *)
  let a, b = socketpair () in
  let t0 = Unix.gettimeofday () in
  (match Serve.Protocol.read_frame ~deadline:(t0 +. 0.2) b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "timeout named" true (contains msg "timed out")
   | _ -> Alcotest.fail "deadline did not fire");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.15 && dt < 2.0);
  Unix.close a;
  Unix.close b

let test_frame_write_deadline () =
  (* The write side is symmetric with the read side: a peer that stops
     draining cannot hold a writer past its deadline.  The writer must
     be non-blocking for the deadline to bound a single large write. *)
  let a, b = socketpair () in
  Unix.set_nonblock a;
  let big = String.make (4 * 1024 * 1024) 'x' in
  let t0 = Unix.gettimeofday () in
  (match Serve.Protocol.write_frame ~deadline:(t0 +. 0.3) a big with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "write timeout named" true (contains msg "timed out")
   | () -> Alcotest.fail "unread 4 MiB frame did not hit the write deadline");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.25 && dt < 2.0);
  Unix.close a;
  Unix.close b

(* The reader selects once for a frame to start, then reads header and
   payload straight away; on a non-blocking fd a payload that is not
   there yet comes back EAGAIN and is waited for against the same
   deadline.  Here the payload follows the header 50 ms later. *)
let test_frame_nonblocking_split () =
  let a, b = socketpair () in
  Unix.set_nonblock b;
  let payload = "split across a pause" in
  let frame = "\x00\x00\x00\x14" ^ payload in
  let writer =
    Thread.create
      (fun () ->
        ignore (Unix.write_substring a frame 0 4);
        Unix.sleepf 0.05;
        ignore (Unix.write_substring a frame 4 (String.length payload)))
      ()
  in
  check Alcotest.(option string) "frame read whole through EAGAIN"
    (Some payload)
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) b);
  Thread.join writer;
  (* Back to back on the non-blocking fd: each read stops at its frame. *)
  Serve.Protocol.write_frame a "first";
  Serve.Protocol.write_frame a "second";
  check Alcotest.(option string) "first frame" (Some "first")
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) b);
  check Alcotest.(option string) "second frame" (Some "second")
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) b);
  Unix.close a;
  check Alcotest.(option string) "clean EOF between frames is None" None
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) b);
  Unix.close b

let test_frame_mid_payload_stall () =
  (* A peer that ships the header and 3 of 10 payload bytes, then stalls
     with the connection open, cannot hold a non-blocking reader past
     its deadline. *)
  let a, b = socketpair () in
  Unix.set_nonblock b;
  let partial = "\x00\x00\x00\x0aabc" in
  ignore (Unix.write_substring a partial 0 (String.length partial));
  let t0 = Unix.gettimeofday () in
  (match Serve.Protocol.read_frame ~deadline:(t0 +. 0.3) b with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "timeout named" true (contains msg "timed out")
   | _ -> Alcotest.fail "stalled payload did not hit the deadline");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.25 && dt < 2.0);
  Unix.close a;
  Unix.close b

(* Fault injection at the frame reader: random well-formed, truncated
   and garbage byte streams, written to a socketpair whose writing end
   is then closed.  Every read ends under its deadline with what the
   frame format says: the payload of a complete frame (trailing bytes
   ignored), [None] for an empty stream, or [Frame_error] — never a
   timeout or another exception.  Garbage either starts with two zero
   bytes (a length prefix below 64 KiB) or with a byte of 2 or more
   (a prefix beyond the 16 MiB bound), so no case allocates much. *)
let gen_frame_stream =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (int_range 0 n) in
  let frame payload =
    let n = String.length payload in
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
    ^ payload
  in
  frequency
    [ (3, map2 (fun p tail -> frame p ^ tail) (bytes 64) (bytes 8));
      ( 3,
        map2
          (fun p cut ->
            let f = frame p in
            String.sub f 0 (1 + (cut mod (String.length f - 1))))
          (bytes 64) nat );
      (1, return "");
      (2, map (fun b -> "\000\000" ^ b) (bytes 48));
      ( 2,
        map2
          (fun c b -> String.make 1 (Char.chr c) ^ b)
          (int_range 2 255) (bytes 48) ) ]

(* What [read_frame] must make of a whole stream. *)
let frame_model stream =
  let n = String.length stream in
  if n = 0 then `None
  else if n < 4 then `Error
  else
    let len = Int32.to_int (String.get_int32_be stream 0) land 0xffff_ffff in
    if len > Serve.Protocol.max_frame_bytes || 4 + len > n then `Error
    else `Some (String.sub stream 4 len)

let test_frame_fuzz () =
  let prop stream =
    let a, b = socketpair () in
    Fun.protect ~finally:(fun () -> Unix.close b) @@ fun () ->
    ignore (Unix.write_substring a stream 0 (String.length stream));
    Unix.close a;
    let got =
      match
        Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 2.0) b
      with
      | Some p -> `Some p
      | None -> `None
      | exception Serve.Protocol.Frame_error msg ->
        if contains msg "timed out" then `Timeout else `Error
    in
    got = frame_model stream
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"read_frame on random byte streams" ~count:300
       (QCheck.make gen_frame_stream ~print:(Printf.sprintf "%S"))
       prop)

(* --- Registry ------------------------------------------------------------- *)

let stub_model = Core.Template.make (Array.make Core.Variables.count 1.0)

let config_ways n =
  { Sim.Config.default with
    Sim.Config.icache =
      { Sim.Config.default.Sim.Config.icache with Sim.Config.ways = n } }

let config_dcache_ways n =
  { Sim.Config.default with
    Sim.Config.dcache =
      { Sim.Config.default.Sim.Config.dcache with Sim.Config.ways = n } }

let test_registry_hit_and_resident () =
  let calls = ref 0 in
  let reg =
    Serve.Registry.create
      ~characterize:(fun _ -> incr calls; (stub_model, 25))
      ()
  in
  let l1 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "first lookup characterizes" false
    l1.Serve.Registry.l_hit;
  check Alcotest.int "one characterization" 1 !calls;
  check Alcotest.int "the miss reports its simulations" 25
    l1.Serve.Registry.l_simulations;
  let l2 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "second lookup hits" true l2.Serve.Registry.l_hit;
  check Alcotest.int "a hit simulates nothing" 0
    l2.Serve.Registry.l_simulations;
  check Alcotest.int "still one characterization" 1 !calls;
  check Alcotest.string "same key" l1.Serve.Registry.l_key
    l2.Serve.Registry.l_key;
  (* Distinct configurations get distinct models, and every one stays
     resident. *)
  ignore (Serve.Registry.get reg (config_ways 2));
  ignore (Serve.Registry.get reg (config_ways 1));
  check Alcotest.int "three characterizations" 3 !calls;
  let s = Serve.Registry.stats reg in
  check Alcotest.int "every configuration resident" 3
    s.Serve.Registry.r_models;
  let l3 = Serve.Registry.get reg Sim.Config.default in
  check Alcotest.bool "first configuration still hits" true
    l3.Serve.Registry.l_hit;
  check Alcotest.int "no new characterization" 3 !calls

(* A model preloaded from a coefficients file answers for the default
   configuration however many other configurations are resolved after
   it: it is never replaced by a fit. *)
let test_service_preload_survives () =
  let path = Filename.temp_file "xenergy-preload" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sevens = Array.make Core.Variables.count 7.0 in
  Core.Template.save path (Core.Template.make sevens);
  let calls = ref 0 in
  let service =
    Serve.Service.create ~model:path
      ~characterize:(fun _ -> incr calls; stub_model)
      ()
  in
  let others =
    List.map config_dcache_ways [ 1; 2; 8; 16 ] @ [ config_ways 2 ]
  in
  List.iter
    (fun c -> ignore (Serve.Registry.get (Serve.Service.registry service) c))
    others;
  check Alcotest.int "one characterization per other configuration"
    (List.length others) !calls;
  let bits m =
    Array.to_list (Array.map Int64.bits_of_float m.Core.Template.coefficients)
  in
  check
    Alcotest.(list int64)
    "preloaded coefficients, bit for bit"
    (bits (Core.Template.make sevens))
    (bits (Serve.Service.model service));
  check Alcotest.int "the preloaded model is a hit" (List.length others)
    !calls

(* A registry miss characterizes over the suite's cases instead of
   building the 25 programs again: every miss passes the same physical
   list, so each case's key slot records the configuration the latest
   miss keyed it under. *)
let test_service_miss_shares_cases () =
  let shared = Workloads.Suite.characterization () in
  check Alcotest.bool "one list on every call" true
    (shared == Workloads.Suite.characterization ());
  check Alcotest.int "the 25 characterization programs" 25 (List.length shared);
  List.iter
    (fun (c : Core.Extract.case) ->
      check Alcotest.bool
        (c.Core.Extract.case_name ^ " is the index's case") true
        (c == Workloads.Suite.find c.Core.Extract.case_name))
    shared;
  let service = Serve.Service.create () in
  let keyed_under config =
    List.for_all
      (fun (c : Core.Extract.case) ->
        match Atomic.get c.Core.Extract.key_slot with
        | Some m -> m.Core.Extract.km_config = config
        | None -> false)
      shared
  in
  List.iter
    (fun config ->
      let l = Serve.Registry.get (Serve.Service.registry service) config in
      check Alcotest.bool "a miss" false l.Serve.Registry.l_hit;
      check Alcotest.bool "the miss keyed the shared cases" true
        (keyed_under config))
    [ config_dcache_ways 2; config_dcache_ways 8 ]

(* --- Router (in-process) -------------------------------------------------- *)

let member name resp =
  match resp with
  | J.Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "response lacks %S" name))
  | _ -> Alcotest.fail "response is not an object"

let as_bool = function
  | J.Bool b -> b
  | _ -> Alcotest.fail "expected a boolean"

let as_int = function
  | J.Num f -> int_of_float f
  | _ -> Alcotest.fail "expected a number"

let as_float = function
  | J.Num f -> f
  | _ -> Alcotest.fail "expected a number"

let with_router f =
  let router =
    Serve.Router.create ~jobs:2
      ~characterize:(fun _ -> stub_model)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Router.shutdown router)
    (fun () -> f router)

let test_router_profile_op () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let resp =
    call (J.Obj [ ("op", J.Str "profile"); ("workload", J.Str "gcd") ])
  in
  check Alcotest.bool "profile ok" true (as_bool (member "ok" resp));
  check Alcotest.bool "cold profile characterizes" false
    (as_bool (member "registry_hit" resp));
  let p = member "profile" resp in
  let cycles = as_int (member "cycles" p) in
  let total_pj = as_float (member "total_energy_pj" p) in
  let blocks =
    match member "blocks" p with
    | J.Arr l -> l
    | _ -> Alcotest.fail "blocks is not an array"
  in
  check Alcotest.bool "some blocks executed" true (blocks <> []);
  (* The daemon answer carries the full executed-block list, so a client
     can re-check conservation from the wire format alone. *)
  let sum_c =
    List.fold_left (fun a b -> a + as_int (member "cycles" b)) 0 blocks
  in
  let sum_e =
    List.fold_left (fun a b -> a +. as_float (member "energy_pj" b)) 0.0 blocks
  in
  check Alcotest.int "block cycles conserve over the wire" cycles sum_c;
  check Alcotest.bool "block energy conserves over the wire" true
    (Float.abs (sum_e -. total_pj) <= 1e-6 *. Float.max 1.0 total_pj);
  check Alcotest.int "cycle gap reported as zero" 0
    (as_int (member "cycle_gap" p));
  (* Warm call: same registry model; "top" truncates the block list but
     never the totals. *)
  let resp2 =
    call
      (J.Obj
         [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
           ("top", J.Num 1.0) ])
  in
  check Alcotest.bool "warm profile hits the registry" true
    (as_bool (member "registry_hit" resp2));
  (match member "blocks" (member "profile" resp2) with
   | J.Arr [ _ ] -> ()
   | _ -> Alcotest.fail "top=1 did not truncate the block list");
  check Alcotest.int "truncation keeps totals" cycles
    (as_int (member "cycles" (member "profile" resp2)));
  (* Bad requests are refused, not fatal. *)
  List.iter
    (fun req ->
      check Alcotest.bool "bad profile request refused" false
        (as_bool (member "ok" (call req))))
    [ J.Obj [ ("op", J.Str "profile") ];
      J.Obj [ ("op", J.Str "profile"); ("workload", J.Str "nosuch") ];
      J.Obj
        [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
          ("top", J.Num 0.0) ] ];
  check Alcotest.bool "router still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

(* Fault injection at the router's front door: random byte payloads
   and random request shapes — every known op but shutdown, fields of
   random JSON types — never raise, and every reply is an object with a
   boolean "ok" and a string "trace_id".  The ops that simulate always
   carry an invalid "config" (explore an unknown space), so each one
   fails validation before it reaches the registry or the pool. *)
let gen_router_payload =
  let open QCheck.Gen in
  let str =
    oneof
      [ string_size ~gen:printable (int_range 0 8);
        oneofl [ ""; "gcd"; "des"; "rs"; "interp"; "threaded"; "nosuch" ] ]
  in
  let value =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [ return J.Null;
              map (fun b -> J.Bool b) bool;
              map
                (fun f -> J.Num f)
                (oneof [ float; map float_of_int small_signed_int ]);
              map (fun s -> J.Str s) str ]
        in
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf);
              ( 1,
                map
                  (fun l -> J.Arr l)
                  (list_size (int_range 0 3) (self (depth - 1))) );
              ( 1,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_range 0 3) (pair str (self (depth - 1)))) ) ])
      2
  in
  let field_name =
    oneof
      [ oneofl
          [ "workloads"; "workload"; "config"; "backend"; "top";
            "bucket_cycles"; "space"; "timings"; "trace_id";
            "parent_span_id" ];
        str ]
  in
  let ops =
    [ "ping"; "estimate"; "attribute"; "profile"; "audit"; "explore";
      "metrics"; "stats"; "status"; "invalid" ]
  in
  let simulating = [ "estimate"; "attribute"; "profile"; "audit"; "explore" ] in
  let request =
    map2
      (fun op fields ->
        let fields = List.filter (fun (k, _) -> k <> "op") fields in
        let fields =
          if not (List.mem op simulating) then fields
          else
            ("config", J.Str "invalid")
            :: ("space", J.Str "no such space")
            :: List.filter (fun (k, _) -> k <> "config" && k <> "space") fields
        in
        J.print (J.Obj (("op", J.Str op) :: fields)))
      (oneof [ oneofl ops; str ])
      (list_size (int_range 0 5) (pair field_name value))
  in
  let bytes = string_size ~gen:char (int_range 0 48) in
  frequency [ (4, request); (1, bytes); (1, map J.print value) ]

let test_router_fuzz () =
  with_router @@ fun router ->
  let prop payload =
    match J.parse (Serve.Router.handle_text router payload) with
    | J.Obj fields -> (
      match (List.assoc_opt "ok" fields, List.assoc_opt "trace_id" fields) with
      | Some (J.Bool _), Some (J.Str _) -> true
      | _ -> false)
    | _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"router replies are well formed" ~count:300
       (QCheck.make gen_router_payload ~print:(Printf.sprintf "%S"))
       prop)

(* Connection threads share the router's one case per workload: two
   profile requests for a custom-instruction workload simulating at
   once, one on the default backend and one on the interpreter, answer
   exactly what a lone request does (ids aside). *)
let test_router_concurrent_profiles () =
  with_router @@ fun router ->
  let req backend =
    J.Obj
      ([ ("op", J.Str "profile"); ("workload", J.Str "rs_gfmul4") ]
      @ match backend with Some b -> [ ("backend", J.Str b) ] | None -> [])
  in
  let body resp =
    match resp with
    | J.Obj fields ->
      Obs.Json.print
        (J.Obj
           (List.filter
              (fun (k, _) -> k <> "trace_id" && k <> "backend")
              fields))
    | _ -> Alcotest.fail "response is not an object"
  in
  (* Warm the registry, so every answer below is a registry hit. *)
  ignore (Serve.Router.handle router (req None));
  let lone = body (Serve.Router.handle router (req None)) in
  List.iter
    (fun backends ->
      let out = Array.make (List.length backends) "" in
      let ts =
        List.mapi
          (fun i b ->
            Thread.create
              (fun () -> out.(i) <- body (Serve.Router.handle router (req b)))
              ())
          backends
      in
      List.iter Thread.join ts;
      Array.iter
        (fun b ->
          check Alcotest.string "concurrent profile = lone profile" lone b)
        out)
    [ [ None; None ]; [ None; Some "interp" ] ]

let test_router_explore_op () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let explore = J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs") ] in
  let resp = call explore in
  check Alcotest.bool "explore ok" true (as_bool (member "ok" resp));
  check Alcotest.int "four candidates" 4 (as_int (member "candidates" resp));
  check Alcotest.int "one configuration" 1 (as_int (member "configs" resp));
  check Alcotest.int "cold sweep misses the registry" 0
    (as_int (member "registry_hits" resp));
  check Alcotest.bool "cold sweep simulated" true
    (as_int (member "simulations" resp) > 0);
  let points resp =
    match member "points" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "points is not an array"
  in
  check Alcotest.int "one row per candidate" 4 (List.length (points resp));
  let frontier =
    match member "frontier" resp with
    | J.Arr l ->
      List.map
        (function J.Str s -> s | _ -> Alcotest.fail "frontier entry not a name")
        l
    | _ -> Alcotest.fail "frontier is not an array"
  in
  check Alcotest.bool "frontier non-empty" true (frontier <> []);
  (* The per-row frontier flag and the frontier name list agree. *)
  List.iter
    (fun p ->
      let name =
        match member "name" p with
        | J.Str s -> s
        | _ -> Alcotest.fail "point lacks a name"
      in
      check Alcotest.bool (name ^ " frontier flag agrees")
        (List.mem name frontier)
        (as_bool (member "frontier" p)))
    (points resp);
  (* Warm sweep: same space answers from the registry and the shared
     evaluation cache without a single simulation. *)
  let resp2 = call explore in
  check Alcotest.int "warm sweep runs zero simulations" 0
    (as_int (member "simulations" resp2));
  check Alcotest.int "warm sweep hits the registry" 1
    (as_int (member "registry_hits" resp2));
  List.iter
    (fun p ->
      check Alcotest.bool "warm row served from cache" true
        (as_bool (member "cached" p)))
    (points resp2);
  (* Refusals name the valid spaces and never kill the router. *)
  let bad = call (J.Obj [ ("op", J.Str "explore"); ("space", J.Str "nosuch") ]) in
  check Alcotest.bool "unknown space refused" false (as_bool (member "ok" bad));
  (match member "error" bad with
   | J.Str msg ->
     check Alcotest.bool "error lists the valid spaces" true
       (contains msg "rs-cache")
   | _ -> Alcotest.fail "error is not a string");
  check Alcotest.bool "missing space refused" false
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "explore") ]))));
  check Alcotest.bool "router still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

let test_request_seconds_buckets () =
  (* The request-latency histogram must use latency-shaped bounds: the
     scrape carries sub-millisecond buckets, cumulative counts are
     monotone, and the +Inf bucket equals _count. *)
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  with_router @@ fun router ->
  for _ = 1 to 3 do
    ignore (Serve.Router.handle router (J.Obj [ ("op", J.Str "ping") ]))
  done;
  let scrape = Obs.Export.to_openmetrics () in
  (* The histogram is labelled per op; registered label first, the
     exporter's le label last. *)
  check Alcotest.bool "sub-millisecond bucket present" true
    (contains scrape "serve_request_seconds_bucket{op=\"ping\",le=\"0.0001\"}");
  let lines = String.split_on_char '\n' scrape in
  let starts p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let value line =
    match String.rindex_opt line ' ' with
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.fail ("unparsable sample: " ^ line)
  in
  let buckets =
    List.filter
      (fun l ->
        starts "serve_request_seconds_bucket" l && contains l "op=\"ping\"")
      lines
  in
  check Alcotest.bool "all bounds exposed" true (List.length buckets >= 12);
  let counts = List.map value buckets in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "cumulative bucket counts are monotone" true
    (monotone counts);
  let count =
    match
      List.filter
        (fun l ->
          starts "serve_request_seconds_count" l && contains l "op=\"ping\"")
        lines
    with
    | [ line ] -> value line
    | _ -> Alcotest.fail "expected exactly one ping _count sample"
  in
  check Alcotest.bool "requests were observed" true (count >= 3);
  let last = List.nth buckets (List.length buckets - 1) in
  check Alcotest.bool "last bucket is +Inf" true (contains last "+Inf");
  check Alcotest.int "+Inf bucket equals _count" count (value last);
  (* An in-process ping is microseconds; with honest bounds it cannot
     land above the 25 ms bucket.  (The old generic bounds started at
     100 ms and collapsed every fast request into one bucket.) *)
  let at_25ms =
    match
      List.filter (fun l -> contains l "le=\"0.025\"") buckets
    with
    | [ line ] -> value line
    | _ -> Alcotest.fail "25 ms bucket missing"
  in
  check Alcotest.bool "fast requests resolved by sub-100ms buckets" true
    (at_25ms >= 3)

let test_router_timings_and_trace () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let estimate extra =
    J.Obj
      (( [ ("op", J.Str "estimate");
           ("workloads", J.Arr [ J.Str "gcd"; J.Str "des" ]) ]
       @ extra ))
  in
  let timed_phases expect =
    let resp = call (estimate [ ("timings", J.Bool true) ]) in
    check Alcotest.bool "timed request ok" true (as_bool (member "ok" resp));
    let t = member "timings" resp in
    let total = as_float (member "total_us" t) in
    check Alcotest.bool "total wall time positive" true (total > 0.0);
    let phases =
      match member "phases" t with
      | J.Obj kv -> kv
      | _ -> Alcotest.fail "phases is not an object"
    in
    List.iter
      (fun n ->
        check Alcotest.bool (n ^ " phase reported") true
          (List.mem_assoc n phases))
      expect;
    (* Unattributed time lands in "other", and a phase nested in another
       (the pool wait and batch inside the cache lookup) is charged only
       its self time, so the breakdown accounts for the measured wall
       time — well within the 5% acceptance bound. *)
    let sum = List.fold_left (fun a (_, v) -> a +. as_float v) 0.0 phases in
    check Alcotest.bool "phases sum to total within 5%" true
      (Float.abs (sum -. total) <= 0.05 *. Float.max total 1.0);
    List.iter
      (fun (n, v) ->
        check Alcotest.bool (n ^ " phase non-negative") true
          (as_float v >= 0.0))
      phases;
    resp
  in
  (* Cold: the misses queue for and simulate on the pool. *)
  ignore
    (timed_phases
       [ "registry"; "cache"; "queue"; "simulate"; "serialize"; "other" ]);
  (* Warm: the acceptance criterion is about the steady state. *)
  let resp = timed_phases [ "registry"; "cache"; "serialize"; "other" ] in
  (* Every response echoes a trace id; fresh requests get fresh ones. *)
  let tid resp =
    match member "trace_id" resp with
    | J.Str s -> s
    | _ -> Alcotest.fail "trace_id is not a string"
  in
  check Alcotest.bool "trace id echoed" true (tid resp <> "");
  check Alcotest.bool "fresh requests get distinct ids" true
    (tid (call (J.Obj [ ("op", J.Str "ping") ]))
     <> tid (call (J.Obj [ ("op", J.Str "ping") ])));
  (* A client-supplied trace context is adopted, not replaced. *)
  let resp =
    call
      (J.Obj
         [ ("op", J.Str "ping");
           ("trace_id", J.Str "cafef00dcafef00d");
           ("parent_span_id", J.Str "beefbeefbeefbeef") ])
  in
  check Alcotest.string "supplied trace id adopted" "cafef00dcafef00d"
    (tid resp);
  (* Timings are opt-in. *)
  match call (J.Obj [ ("op", J.Str "ping") ]) with
  | J.Obj fields ->
    check Alcotest.bool "no timings unless requested" true
      (List.assoc_opt "timings" fields = None)
  | _ -> Alcotest.fail "response is not an object"

(* Integer request fields are decoded exactly: a fraction or a value
   outside the int range is refused naming the op and the field, never
   truncated (2.9 -> 2) or wrapped (1e300 -> 0). *)
let test_router_integer_fields () =
  with_router @@ fun router ->
  List.iter
    (fun (req, op, field) ->
      let resp = Serve.Router.handle router (J.Obj req) in
      check Alcotest.bool (op ^ " refused") false (as_bool (member "ok" resp));
      match member "error" resp with
      | J.Str msg ->
        check Alcotest.bool (msg ^ " names the op") true (contains msg op);
        check Alcotest.bool (msg ^ " names the field") true
          (contains msg field)
      | _ -> Alcotest.fail "error is not a string")
    [ ( [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
          ("top", J.Num 2.9) ],
        "profile", "top" );
      ( [ ("op", J.Str "attribute"); ("workload", J.Str "gcd");
          ("bucket_cycles", J.Num 1e300) ],
        "attribute", "bucket_cycles" );
      ( [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "gcd" ]);
          ("config", J.Obj [ ("icache_size_bytes", J.Num 4096.5) ]) ],
        "estimate", "icache_size_bytes" ) ]

(* A workload named twice in one request simulates once, through the
   shared collector: the second row is served from the first. *)
let test_router_duplicate_names () =
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  let stores () =
    as_int (member "cache_stores" (call (J.Obj [ ("op", J.Str "stats") ])))
  in
  let rows key resp =
    match member key resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail (key ^ " is not an array")
  in
  let cached r = as_bool (member "cached" r) in
  let s0 = stores () in
  let resp =
    call
      (J.Obj
         [ ("op", J.Str "estimate");
           ("workloads", J.Arr [ J.Str "gcd"; J.Str "gcd" ]) ])
  in
  check Alcotest.int "estimate simulates one copy" 1 (stores () - s0);
  (match rows "results" resp with
   | [ a; b ] ->
     check Alcotest.bool "first estimate row simulated" false (cached a);
     check Alcotest.bool "second estimate row reused" true (cached b);
     check Alcotest.bool "both rows agree" true
       (as_float (member "energy_pj" a) = as_float (member "energy_pj" b))
   | _ -> Alcotest.fail "expected two estimate rows");
  let s1 = stores () in
  let resp =
    call
      (J.Obj
         [ ("op", J.Str "audit");
           ("workloads", J.Arr [ J.Str "des"; J.Str "des" ]) ])
  in
  check Alcotest.int "audit simulates one copy" 1 (stores () - s1);
  match rows "programs" (member "audit" resp) with
  | [ a; b ] ->
    check Alcotest.bool "first audit row simulated" false (cached a);
    check Alcotest.bool "second audit row reused" true (cached b)
  | _ -> Alcotest.fail "expected two audit rows"

(* The daemon's explore answers what an independent oracle computes:
   one offline estimate per candidate under its own configuration, and
   the Pareto frontier of those points across all configurations. *)
let test_router_explore_oracle () =
  let m =
    Core.Template.make
      (Array.init Core.Variables.count (fun i -> float_of_int (i + 1)))
  in
  let router =
    Serve.Router.create ~jobs:2 ~characterize:(fun _ -> m) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let candidates = (Option.get (Workloads.Spaces.find "rs-cache")) () in
  let oracle =
    List.map
      (fun (c : Core.Explore.candidate) ->
        let r =
          Core.Estimate.run ~config:c.Core.Explore.config m c.Core.Explore.case
        in
        { Core.Explore.pt_name = c.Core.Explore.cand_name;
          pt_energy_pj = r.Core.Estimate.energy_pj;
          pt_energy_uj = r.Core.Estimate.energy_uj;
          pt_cycles = r.Core.Estimate.cycles;
          pt_instructions = r.Core.Estimate.instructions;
          pt_cached = false })
      candidates
  in
  let explore =
    J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs-cache") ]
  in
  let resp = Serve.Router.handle router explore in
  check Alcotest.bool "explore ok" true (as_bool (member "ok" resp));
  check Alcotest.int "sixteen candidates" 16
    (as_int (member "candidates" resp));
  check Alcotest.int "four configurations" 4 (as_int (member "configs" resp));
  let points =
    match member "points" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "points is not an array"
  in
  check Alcotest.int "one row per candidate" (List.length oracle)
    (List.length points);
  List.iter2
    (fun (o : Core.Explore.point) p ->
      let name = o.Core.Explore.pt_name in
      check Alcotest.string "space order" name
        (match member "name" p with J.Str s -> s | _ -> "");
      check Alcotest.int64 (name ^ " energy bit-identical")
        (Int64.bits_of_float o.Core.Explore.pt_energy_pj)
        (Int64.bits_of_float (as_float (member "energy_pj" p)));
      check Alcotest.int (name ^ " cycles") o.Core.Explore.pt_cycles
        (as_int (member "cycles" p)))
    oracle points;
  let names resp =
    match member "frontier" resp with
    | J.Arr l ->
      List.map (function J.Str s -> s | _ -> Alcotest.fail "bad name") l
    | _ -> Alcotest.fail "frontier is not an array"
  in
  check
    Alcotest.(list string)
    "frontier = pareto of the oracle"
    (List.map
       (fun (p : Core.Explore.point) -> p.Core.Explore.pt_name)
       (Core.Explore.pareto oracle))
    (names resp);
  let warm = Serve.Router.handle router explore in
  check Alcotest.int "warm repeat runs zero simulations" 0
    (as_int (member "simulations" warm));
  check Alcotest.(list string) "warm frontier unchanged" (names resp)
    (names warm)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

(* A scratch cache directory for [f], removed afterwards. *)
let with_cache_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xenergy-serve-%s.%d" name (Unix.getpid ()))
  in
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  rm_rf ();
  Fun.protect ~finally:rm_rf (fun () -> f dir)

(* A metrics counter's growth over [f]. *)
let counter_delta name f =
  let c = Obs.Metrics.counter name in
  let before = Obs.Metrics.counter_value c in
  let r = f () in
  (r, Obs.Metrics.counter_value c - before)

(* A daemon pointed at a directory an offline sweep filled reads every
   configuration's stored model: its registry misses, yet no cache
   lookup does, no fit runs, and its points equal the offline sweep's
   bit for bit. *)
let test_router_refits_from_explore_dir () =
  with_metrics @@ fun () ->
  with_cache_dir "explore" @@ fun dir ->
  let candidates = (Option.get (Workloads.Spaces.find "rs-cache")) () in
  let offline =
    Core.Explore.run
      ~cache:(Core.Eval_cache.create ~dir ())
      ~characterization:(Workloads.Suite.characterization ())
      candidates
  in
  let router = Serve.Router.create ~cache_dir:dir () in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let call req = Serve.Router.handle router req in
  let counter name =
    as_int (member name (call (J.Obj [ ("op", J.Str "stats") ])))
  in
  let hits0 = counter "cache_hits" and misses0 = counter "cache_misses" in
  let resp, fits =
    counter_delta "characterize_fits_total" (fun () ->
        call (J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs-cache") ]))
  in
  check Alcotest.bool "explore ok" true (as_bool (member "ok" resp));
  check Alcotest.int "four configurations" 4 (as_int (member "configs" resp));
  check Alcotest.int "every configuration resolved here" 0
    (as_int (member "registry_hits" resp));
  check Alcotest.int "no cache lookup missed" misses0 (counter "cache_misses");
  check Alcotest.int "no model refitted" 0 fits;
  check Alcotest.int "cache hits: 4 models + 16 points" 20
    (counter "cache_hits" - hits0);
  let points =
    match member "points" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "points is not an array"
  in
  List.iter2
    (fun (o : Core.Explore.point) p ->
      check Alcotest.int64
        (o.Core.Explore.pt_name ^ " energy bit-identical")
        (Int64.bits_of_float o.Core.Explore.pt_energy_pj)
        (Int64.bits_of_float (as_float (member "energy_pj" p))))
    offline.Core.Explore.points points

(* The offline sweep of rs-cache on a fresh memory cache: the oracle of
   the service's and the daemon's sweeps, counts included. *)
let offline_rs_cache =
  lazy
    (Core.Explore.run
       ~cache:(Core.Eval_cache.create ())
       ~characterization:(Workloads.Suite.characterization ())
       ((Option.get (Workloads.Spaces.find "rs-cache")) ()))

(* One sweep behind both: the service's explore on a fresh service is
   the offline sweep on a fresh cache, bit for bit and count for count,
   characterization simulations included. *)
let test_service_explore_is_offline () =
  let offline = Lazy.force offline_rs_cache in
  let o, lookups = Serve.Service.explore (Serve.Service.create ()) "rs-cache" in
  let module E = Core.Explore in
  let points o =
    List.map
      (fun (p : E.point) ->
        Printf.sprintf "%s %Lx %d %d %b" p.E.pt_name
          (Int64.bits_of_float p.E.pt_energy_pj)
          p.E.pt_cycles p.E.pt_instructions p.E.pt_cached)
      o.E.points
  in
  let names ps = List.map (fun (p : E.point) -> p.E.pt_name) ps in
  check Alcotest.(list string) "points" (points offline) (points o);
  check Alcotest.(list string) "frontier" (names offline.E.frontier)
    (names o.E.frontier);
  check Alcotest.int "configs characterized" offline.E.configs_characterized
    o.E.configs_characterized;
  check Alcotest.int "simulations" offline.E.simulations o.E.simulations;
  let stats (s : Core.Eval_cache.stats) =
    Core.Eval_cache.[ s.hits; s.misses; s.errors; s.stores ]
  in
  check Alcotest.(list int) "cache hits, misses, errors, stores"
    (stats offline.E.cache_stats) (stats o.E.cache_stats);
  check Alcotest.int "one lookup per configuration" 4 (List.length lookups);
  check Alcotest.int "the lookups ran the characterization simulations"
    (4 * 25)
    (List.fold_left (fun n l -> n + l.Serve.Registry.l_simulations) 0 lookups)

(* The characterize op fits what the offline characterization fits, and
   validates it the same way, bit for bit. *)
let test_service_characterize () =
  let fit, loocv, report =
    Serve.Service.characterize (Serve.Service.create ())
  in
  let offline = Core.Characterize.run (Workloads.Suite.characterization ()) in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  check Alcotest.(list int64) "coefficients"
    (bits offline.Core.Characterize.model.Core.Template.coefficients)
    (bits fit.Core.Characterize.model.Core.Template.coefficients);
  check Alcotest.(list (option int64)) "leave-one-out values"
    (Array.to_list
       (Array.map (Option.map Int64.bits_of_float)
          (Core.Characterize.cross_validate offline.Core.Characterize.samples)))
    (Array.to_list (Array.map (Option.map Int64.bits_of_float) loocv));
  check Alcotest.int "one simulation per program" 25
    (Core.Run_report.total_simulations report)

(* A cold daemon's sweep counts the simulations its registry's
   characterizations ran, as the offline sweep does. *)
let test_router_cold_explore_counts () =
  let offline = Lazy.force offline_rs_cache in
  let router = Serve.Router.create () in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let resp =
    Serve.Router.handle router
      (J.Obj [ ("op", J.Str "explore"); ("space", J.Str "rs-cache") ])
  in
  check Alcotest.bool "explore ok" true (as_bool (member "ok" resp));
  check Alcotest.int "simulations = the offline sweep's"
    offline.Core.Explore.simulations
    (as_int (member "simulations" resp))

(* A daemon restarted on the directory an earlier one characterized into
   answers its first estimate from the stored model and vectors: no
   simulation, no fit, and the first daemon's energies bit for bit. *)
let test_router_restart_reads_model () =
  with_metrics @@ fun () ->
  with_cache_dir "restart" @@ fun dir ->
  let estimate =
    J.Obj
      [ ("op", J.Str "estimate");
        ("workloads", J.Arr [ J.Str "des"; J.Str "gcd" ]);
        ("config", J.Obj [ ("icache_size_bytes", J.Num 4096.0) ]) ]
  in
  let answer () =
    let router = Serve.Router.create ~cache_dir:dir () in
    Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
    let resp = Serve.Router.handle router estimate in
    check Alcotest.bool "estimate ok" true (as_bool (member "ok" resp));
    check Alcotest.bool "registry misses" false
      (as_bool (member "registry_hit" resp));
    let stats = Serve.Router.handle router (J.Obj [ ("op", J.Str "stats") ]) in
    (resp, as_int (member "cache_misses" stats))
  in
  let rows resp =
    match member "results" resp with
    | J.Arr l ->
      List.map
        (fun r ->
          ( as_int (member "cycles" r),
            Int64.bits_of_float (as_float (member "energy_pj" r)) ))
        l
    | _ -> Alcotest.fail "results is not an array"
  in
  let (first, _), first_fits =
    counter_delta "characterize_fits_total" answer
  in
  check Alcotest.int "first daemon fits the model" 1 first_fits;
  let ((again, misses), sims), fits =
    counter_delta "characterize_fits_total" (fun () ->
        counter_delta "sim_instructions_total" answer)
  in
  check Alcotest.int "restarted daemon fits nothing" 0 fits;
  check Alcotest.int "restarted daemon simulates nothing" 0 sims;
  check Alcotest.int "restarted daemon misses no lookup" 0 misses;
  check
    Alcotest.(list (pair int int64))
    "restarted daemon answers the same rows" (rows first) (rows again)

let test_router_status_op () =
  with_metrics @@ fun () ->
  with_router @@ fun router ->
  let call req = Serve.Router.handle router req in
  for _ = 1 to 5 do
    ignore (call (J.Obj [ ("op", J.Str "ping") ]))
  done;
  check Alcotest.bool "estimate ok" true
    (as_bool
       (member "ok"
          (call
             (J.Obj
                [ ("op", J.Str "estimate");
                  ("workloads", J.Arr [ J.Str "gcd" ]) ]))));
  check Alcotest.bool "unknown op refused" false
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "nosuchop") ]))));
  let resp = call (J.Obj [ ("op", J.Str "status") ]) in
  check Alcotest.bool "status ok" true (as_bool (member "ok" resp));
  check Alcotest.int "pid" (Unix.getpid ()) (as_int (member "pid" resp));
  check Alcotest.bool "uptime" true (as_float (member "uptime_s" resp) >= 0.0);
  (* The status request observes itself mid-flight — nothing else is. *)
  check Alcotest.int "only the status request itself inflight" 1
    (as_int (member "inflight" resp));
  let ops =
    match member "ops" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "ops is not an array"
  in
  let row op = List.find_opt (fun r -> member "op" r = J.Str op) ops in
  (match row "ping" with
   | Some r ->
     check Alcotest.bool "ping requests counted" true
       (as_int (member "requests" r) >= 5);
     check Alcotest.int "ping inflight zero" 0 (as_int (member "inflight" r));
     let w = member "window" r in
     check Alcotest.bool "window saw the pings" true
       (as_int (member "requests" w) >= 5);
     check Alcotest.bool "request rate positive" true
       (as_float (member "rate_hz" w) > 0.0);
     let quantiles o =
       match (member "p50_ms" o, member "p90_ms" o, member "p99_ms" o) with
       | J.Num a, J.Num b, J.Num c -> (a, b, c)
       | _ -> Alcotest.fail "quantiles missing"
     in
     let w50, w90, w99 = quantiles w in
     check Alcotest.bool "window quantiles ordered" true
       (w50 <= w90 && w90 <= w99);
     let c50, c90, c99 = quantiles (member "cumulative" r) in
     check Alcotest.bool "cumulative quantiles ordered" true
       (c50 <= c90 && c90 <= c99);
     (* The first status call has no window history: the rolling window
        degenerates to the whole uptime, so both views agree exactly. *)
     check (Alcotest.float 1e-9) "first window equals cumulative p99" c99 w99
   | None -> Alcotest.fail "no ping row");
  (match row "invalid" with
   | Some r ->
     check Alcotest.bool "bad op counted under the invalid label" true
       (as_int (member "errors" r) >= 1)
   | None -> Alcotest.fail "no invalid row");
  check Alcotest.bool "idle ops keep no row" true (row "audit" = None);
  check Alcotest.bool "registry residency reported" true
    (as_int (member "models" (member "registry" resp)) >= 1);
  check Alcotest.bool "pool lanes reported" true
    (as_int (member "lanes" (member "pool" resp)) >= 1);
  (* A second poll diffs against the first capture: the window narrows
     to the polling gap instead of the whole uptime. *)
  Unix.sleepf 0.05;
  let resp2 = call (J.Obj [ ("op", J.Str "status") ]) in
  let dt = as_float (member "window_dt_s" resp2) in
  check Alcotest.bool "second poll window is the polling gap" true
    (dt >= 0.04 && dt < as_float (member "uptime_s" resp2))

let test_router_slow_request_log () =
  let path = Filename.temp_file "xenergy-slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let router =
    (* A threshold of 100 ns marks every request slow. *)
    Serve.Router.create ~jobs:2
      ~characterize:(fun _ -> stub_model)
      ~slow_ms:0.0001 ()
  in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  Obs.Log.open_file path;
  check Alcotest.bool "ping ok" true
    (as_bool
       (member "ok" (Serve.Router.handle router (J.Obj [ ("op", J.Str "ping") ]))));
  Obs.Log.close ();
  let records =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map J.parse
  in
  match
    List.find_opt (fun r -> member "event" r = J.Str "serve:slow-request")
      records
  with
  | Some r ->
    check Alcotest.bool "warn level" true (member "level" r = J.Str "warn");
    check Alcotest.bool "op named" true (member "op" r = J.Str "ping");
    check Alcotest.bool "total recorded" true
      (as_float (member "total_ms" r) >= 0.0);
    (match member "trace_id" r with
     | J.Str s -> check Alcotest.bool "trace id attached" true (s <> "")
     | _ -> Alcotest.fail "trace_id missing from the slow-request line");
    let keys = match r with J.Obj kv -> List.map fst kv | _ -> [] in
    check Alcotest.bool "per-phase breakdown attached" true
      (List.exists
         (fun k ->
           String.length k > 6 && String.sub k 0 6 = "phase_"
           && Filename.check_suffix k "_ms")
         keys)
  | None -> Alcotest.fail "no serve:slow-request line in the log"

(* --- End-to-end daemon ---------------------------------------------------- *)

let scratch_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xenergy_%s.%d.sock" name (Unix.getpid ()))

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> 255
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 255

(* Fork a daemon around a stub-characterized router (the stub sleeps so
   concurrent cold requests genuinely overlap) and drive it through the
   real client. *)
let with_server ?(char_sleep = 0.3) f =
  let socket = scratch_socket "serve_test" in
  (try Sys.remove socket with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* The daemon mints span ids of its own: give it its own pid and
       seed, as every fork path that keeps tracing must. *)
    Obs.Trace.after_fork ();
    (try
       let router =
         Serve.Router.create ~jobs:2 ~read_timeout_s:30.0
           ~characterize:(fun _ -> Unix.sleepf char_sleep; stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> ());
    Unix._exit 0
  | pid ->
    let finish () =
      (try
         ignore
           (Serve.Client.call ~timeout_s:5.0 ~socket
              (J.Obj [ ("op", J.Str "shutdown") ]))
       with _ -> ());
      Core.Parallel.reap pid;
      (try Sys.remove socket with Sys_error _ -> ())
    in
    Fun.protect ~finally:finish (fun () ->
        check Alcotest.bool "daemon came up" true
          (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
        f socket)

let estimate_req =
  J.Obj
    [ ("op", J.Str "estimate");
      ("workloads", J.Arr [ J.Str "gcd"; J.Str "des" ]) ]

let ping_req = J.Obj [ ("op", J.Str "ping") ]

(* Fork a child that makes one client call and exits 0 iff it was
   answered ok. *)
let fork_client ~socket req =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let ok =
      match Serve.Client.call ~timeout_s:30.0 ~socket req with
      | resp -> ( try as_bool (member "ok" resp) with _ -> false)
      | exception _ -> false
    in
    Unix._exit (if ok then 0 else 1)
  | pid -> pid

let test_server_cold_warm_and_metrics () =
  with_server @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  (* Cold: characterizes and simulates. *)
  let cold = call estimate_req in
  check Alcotest.bool "cold request ok" true (as_bool (member "ok" cold));
  check Alcotest.bool "cold request missed the registry" false
    (as_bool (member "registry_hit" cold));
  (* Warm: same model from memory, every profile from the cache. *)
  let warm = call estimate_req in
  check Alcotest.bool "warm request hits the registry" true
    (as_bool (member "registry_hit" warm));
  List.iter
    (fun row ->
      check Alcotest.bool "warm row served from cache" true
        (as_bool (member "cached" row)))
    (match member "results" warm with
     | J.Arr rows -> rows
     | _ -> Alcotest.fail "results is not an array");
  let energies resp =
    match member "results" resp with
    | J.Arr rows ->
      List.map (fun r -> (member "name" r, member "energy_pj" r)) rows
    | _ -> Alcotest.fail "results is not an array"
  in
  check Alcotest.bool "warm equals cold numerically" true
    (energies warm = energies cold);
  (* A second configuration joins the first: both stay resident, so
     the default configuration still hits, and the scrape shows both. *)
  let other =
    call
      (J.Obj
         [ ("op", J.Str "estimate");
           ("workloads", J.Arr [ J.Str "gcd" ]);
           ("config", J.Obj [ ("icache_ways", J.Num 2.0) ]) ])
  in
  check Alcotest.bool "other-config request ok" true
    (as_bool (member "ok" other));
  check Alcotest.bool "default config still hits after another" true
    (as_bool (member "registry_hit" (call estimate_req)));
  let scrape =
    match member "exposition" (call (J.Obj [ ("op", J.Str "metrics") ])) with
    | J.Str s -> s
    | _ -> Alcotest.fail "exposition is not a string"
  in
  List.iter
    (fun needle ->
      check Alcotest.bool ("scrape carries " ^ needle) true
        (contains scrape needle))
    [ "serve_registry_models 2"; "serve_registry_hits_total"; "serve_requests_total";
      "eval_cache_hits_total"; "serve_connections_total";
      "serve_active_connections";
      "serve_accept_errors_total{reason=\"aborted\"} 0";
      "serve_accept_errors_total{reason=\"fd-exhausted\"} 0" ];
  check Alcotest.bool "exposition terminated" true
    (Filename.check_suffix scrape "# EOF\n");
  (* Malformed traffic gets an error response, not a dead daemon. *)
  let bad = call (J.Obj [ ("op", J.Str "nosuchop") ]) in
  check Alcotest.bool "unknown op refused" false (as_bool (member "ok" bad));
  let bad = call (J.Obj [ ("op", J.Str "estimate") ]) in
  check Alcotest.bool "missing workloads refused" false
    (as_bool (member "ok" bad));
  check Alcotest.bool "daemon still alive" true
    (as_bool (member "ok" (call (J.Obj [ ("op", J.Str "ping") ]))))

let test_server_single_flight () =
  with_server @@ fun socket ->
  (* Two clients race to the same uncharacterized configuration (the
     stub characterization sleeps 0.3 s, so both are served
     concurrently before the first model exists).  The registry's
     per-config single-flight makes the second request wait for the
     first's result: exactly one characterization, and the waiter
     counts as a hit. *)
  let c1 = fork_client ~socket estimate_req in
  let c2 = fork_client ~socket estimate_req in
  check Alcotest.int "first client succeeded" 0 (wait_exit c1);
  check Alcotest.int "second client succeeded" 0 (wait_exit c2);
  let stats =
    Serve.Client.call ~timeout_s:10.0 ~socket (J.Obj [ ("op", J.Str "stats") ])
  in
  check Alcotest.int "exactly one characterization" 1
    (as_int (member "registry_misses" stats));
  check Alcotest.bool "the other request was a registry hit" true
    (as_int (member "registry_hits" stats) >= 1)

let test_server_concurrent_overlap () =
  (* The tentpole guarantee: a slow cold characterization on one
     connection must not block a ping on another.  The cold client is
     provably still in flight when the ping comes back. *)
  with_server ~char_sleep:0.8 @@ fun socket ->
  let cold = fork_client ~socket estimate_req in
  Unix.sleepf 0.15 (* let the cold request reach the registry *);
  let t0 = Unix.gettimeofday () in
  let ping = Serve.Client.call ~timeout_s:5.0 ~socket ping_req in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "ping ok" true (as_bool (member "ok" ping));
  check Alcotest.bool "ping answered while characterization in flight" true
    (dt < 0.4);
  check Alcotest.bool "cold client genuinely still waiting" true
    (fst (Unix.waitpid [ Unix.WNOHANG ] cold) = 0);
  check Alcotest.int "cold client eventually succeeded" 0 (wait_exit cold)

let test_server_parallel_configs () =
  (* Single-flight is per config hash, not global: clients naming
     different configurations characterize in parallel.  Two 0.8 s
     characterizations complete in well under the 1.6 s a serialized
     registry would need. *)
  with_server ~char_sleep:0.8 @@ fun socket ->
  let gcd_req config =
    J.Obj
      (( [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "gcd" ]) ]
       @ config ))
  in
  let t0 = Unix.gettimeofday () in
  let c1 = fork_client ~socket (gcd_req []) in
  let c2 =
    fork_client ~socket
      (gcd_req [ ("config", J.Obj [ ("icache_ways", J.Num 2.0) ]) ])
  in
  check Alcotest.int "default-config client succeeded" 0 (wait_exit c1);
  check Alcotest.int "other-config client succeeded" 0 (wait_exit c2);
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "characterizations overlapped" true (dt < 1.5);
  let stats =
    Serve.Client.call ~timeout_s:10.0 ~socket (J.Obj [ ("op", J.Str "stats") ])
  in
  check Alcotest.int "two characterizations" 2
    (as_int (member "registry_misses" stats))

let test_server_wedged_client_liveness () =
  (* The acceptance criterion: with a client wedged mid-frame on one
     connection, other clients' pings and warm estimates still answer
     within their deadlines. *)
  with_server @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  check Alcotest.bool "warm-up ok" true (as_bool (member "ok" (call estimate_req)));
  let wedged = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect wedged (Unix.ADDR_UNIX socket);
  (* Two header bytes, then silence: the daemon's reader is now parked
     mid-frame on this connection. *)
  ignore (Unix.write_substring wedged "\x00\x00" 0 2);
  Fun.protect
    ~finally:(fun () -> try Unix.close wedged with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let ping = Serve.Client.call ~timeout_s:2.0 ~socket ping_req in
  check Alcotest.bool "ping ok behind a wedged client" true
    (as_bool (member "ok" ping));
  let warm = Serve.Client.call ~timeout_s:2.0 ~socket estimate_req in
  check Alcotest.bool "warm estimate ok behind a wedged client" true
    (as_bool (member "ok" warm));
  check Alcotest.bool "estimate stayed warm" true
    (as_bool (member "registry_hit" warm));
  check Alcotest.bool "both answered within their deadlines" true
    (Unix.gettimeofday () -. t0 < 2.0)

let test_server_hangup_mid_response () =
  (* Clients that send a request and hang up without reading: the
     daemon's answer lands on a closed socket (EPIPE).  With SIGPIPE
     ignored that is a per-connection warning, not daemon death. *)
  with_server @@ fun socket ->
  let call req = Serve.Client.call ~timeout_s:30.0 ~socket req in
  check Alcotest.bool "warm-up ok" true (as_bool (member "ok" (call estimate_req)));
  for _ = 1 to 3 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Serve.Protocol.write_frame fd (Obs.Json.print estimate_req);
    Unix.close fd
  done;
  Unix.sleepf 0.2;
  check Alcotest.bool "daemon survived mid-response hangups" true
    (as_bool (member "ok" (call ping_req)))

let test_server_half_close () =
  (* A client that shuts down its write side after the request must
     still get its answer — half-close is how one-shot scripted
     clients signal "that was everything". *)
  with_server @@ fun socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Serve.Protocol.write_frame fd (Obs.Json.print ping_req);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
   | Some payload ->
     check Alcotest.bool "half-closed ping answered" true
       (as_bool (member "ok" (J.parse payload)))
   | None -> Alcotest.fail "no response after half-close");
  (* After the answer the daemon sees our EOF and closes cleanly. *)
  check
    Alcotest.(option string)
    "clean EOF after the answer" None
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd);
  Unix.close fd;
  check Alcotest.bool "daemon still alive" true
    (as_bool
       (member "ok" (Serve.Client.call ~timeout_s:5.0 ~socket ping_req)))

let test_client_session_reuse () =
  (* One connected session carries many calls; the daemon counts them
     all, so a batch observably amortizes the connect. *)
  with_server @@ fun socket ->
  Serve.Client.with_session ~socket @@ fun s ->
  let stats_req = J.Obj [ ("op", J.Str "stats") ] in
  let scall req = Serve.Client.session_call ~timeout_s:5.0 s req in
  check Alcotest.bool "first call ok" true (as_bool (member "ok" (scall ping_req)));
  let n1 = as_int (member "requests" (scall stats_req)) in
  check Alcotest.bool "third call ok on the same connection" true
    (as_bool (member "ok" (scall ping_req)));
  let n2 = as_int (member "requests" (scall stats_req)) in
  check Alcotest.int "every call counted on one connection" 2 (n2 - n1)

let test_server_trace_ids_per_session () =
  with_server @@ fun socket ->
  (* Two concurrent connections, calls interleaved: the daemon mints a
     fresh trace id per request, and the per-thread context scoping
     means neither session ever sees the other's ids. *)
  let ids = ref [] in
  Serve.Client.with_session ~socket (fun a ->
      Serve.Client.with_session ~socket (fun b ->
          for _ = 1 to 3 do
            List.iter
              (fun s ->
                match Serve.Client.session_call ~timeout_s:5.0 s ping_req with
                | J.Obj fields -> (
                  match List.assoc_opt "trace_id" fields with
                  | Some (J.Str id) -> ids := id :: !ids
                  | _ -> Alcotest.fail "response lacks trace_id")
                | _ -> Alcotest.fail "response is not an object")
              [ a; b ]
          done));
  check Alcotest.int "every request got its own trace id" 6
    (List.length (List.sort_uniq compare !ids));
  (* With client-side tracing on, the client stamps its ids into the
     request, records the round trip as a client:call span, and the
     daemon adopts the ids — one trace end to end. *)
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let resp = Serve.Client.call ~timeout_s:5.0 ~socket ping_req in
  let echoed =
    match member "trace_id" resp with
    | J.Str s -> s
    | _ -> Alcotest.fail "traced call lost its trace_id"
  in
  match
    List.find_opt
      (fun e -> e.Obs.Trace.ev_name = "client:call")
      (Obs.Trace.events ())
  with
  | Some e -> (
    match List.assoc_opt "trace_id" e.Obs.Trace.ev_args with
    | Some (Obs.Trace.S s) ->
      check Alcotest.string "daemon adopted the client's trace id" s echoed
    | _ -> Alcotest.fail "client:call span carries no trace_id")
  | None -> Alcotest.fail "no client:call span recorded"

(* The per-request "backend" field.  Two concurrent sessions estimate
   the same workloads, one on the interpreter and one under the check
   oracle: each answer echoes its own backend, every figure is bit-equal
   to a default request's, the eval cache (keyed by backend) makes the
   first interp rows fresh simulations, and an unknown backend is a
   refused request that names the op. *)
let test_server_request_backend () =
  with_server @@ fun socket ->
  let on backend =
    J.Obj
      [ ("op", J.Str "estimate");
        ("workloads", J.Arr [ J.Str "gcd"; J.Str "des" ]);
        ("backend", J.Str backend) ]
  in
  let default = Serve.Client.call ~timeout_s:30.0 ~socket estimate_req in
  let interp = ref J.Null and checked = ref J.Null in
  Serve.Client.with_session ~socket (fun a ->
      Serve.Client.with_session ~socket (fun b ->
          let call s req out =
            Thread.create
              (fun () ->
                out := Serve.Client.session_call ~timeout_s:30.0 s req)
              ()
          in
          let ta = call a (on "interp") interp in
          let tb = call b (on "check") checked in
          Thread.join ta;
          Thread.join tb));
  let rows resp =
    match member "results" resp with
    | J.Arr rows -> rows
    | _ -> Alcotest.fail "results is not an array"
  in
  let figures resp =
    List.map
      (fun r ->
        ( member "name" r,
          Int64.bits_of_float (as_float (member "energy_pj" r)),
          as_int (member "cycles" r) ))
      (rows resp)
  in
  List.iter
    (fun (name, resp) ->
      check Alcotest.bool (name ^ " request ok") true
        (as_bool (member "ok" resp));
      check Alcotest.bool (name ^ " figures bit-equal to the default") true
        (figures resp = figures default))
    [ ("interp", !interp); ("check", !checked) ];
  check Alcotest.bool "interp echoed" true
    (member "backend" !interp = J.Str "interp");
  check Alcotest.bool "check echoed" true
    (member "backend" !checked = J.Str "check");
  check Alcotest.bool "default echoed" true
    (member "backend" default = J.Str "threaded");
  List.iter
    (fun r ->
      check Alcotest.bool "first interp rows simulated, not cached" false
        (as_bool (member "cached" r)))
    (rows !interp);
  let bad = Serve.Client.call ~timeout_s:30.0 ~socket (on "nope") in
  check Alcotest.bool "unknown backend refused" false
    (as_bool (member "ok" bad));
  match member "error" bad with
  | J.Str msg ->
    check Alcotest.bool "error names the op and the backend" true
      (contains msg "estimate" && contains msg "nope")
  | _ -> Alcotest.fail "error is not a string"

let test_client_session_timeout () =
  (* A daemon that accepts the connection and never answers: the
     session's call ends at its deadline with the protocol's typed
     timeout, not a hang. *)
  let socket = scratch_socket "serve_silent" in
  (try Sys.remove socket with Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  Serve.Client.with_session ~socket @@ fun s ->
  let conn, _ = Unix.accept listener in
  Fun.protect ~finally:(fun () -> Unix.close conn) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Serve.Client.session_call ~timeout_s:0.3 s ping_req with
   | exception Serve.Protocol.Frame_error msg ->
     check Alcotest.bool "timeout named" true (contains msg "timed out")
   | _ -> Alcotest.fail "a silent daemon answered");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "fired promptly" true (dt >= 0.25 && dt < 2.0);
  (* The request itself went out whole. *)
  check Alcotest.(option string) "request delivered"
    (Some (Obs.Json.print ping_req))
    (Serve.Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 2.0) conn)

let test_server_socket_steal_refused () =
  (* A second daemon pointed at a live daemon's socket must refuse to
     start — and must not unlink the live socket on its way out. *)
  with_server @@ fun socket ->
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     let code =
       try
         let router =
           Serve.Router.create ~jobs:2
             ~characterize:(fun _ -> stub_model)
             ()
         in
         let c =
           try
             Serve.Server.run ~io_timeout_s:5.0 ~socket router;
             3
           with
           | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> 42
           | _ -> 4
         in
         Serve.Router.shutdown router;
         c
       with _ -> 5
     in
     Unix._exit code
   | pid ->
     check Alcotest.int "second daemon refused with EADDRINUSE" 42
       (wait_exit pid));
  check Alcotest.bool "live daemon undisturbed" true
    (as_bool
       (member "ok" (Serve.Client.call ~timeout_s:5.0 ~socket ping_req)))

let test_server_stale_socket_replaced () =
  (* A socket file left by a daemon that died without cleanup must not
     block the next start: nobody answers on it, so it is replaced. *)
  let socket = scratch_socket "serve_stale" in
  (try Sys.remove socket with Sys_error _ -> ());
  let corpse = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind corpse (Unix.ADDR_UNIX socket);
  Unix.listen corpse 1;
  Unix.close corpse (* dies without unlinking *);
  check Alcotest.bool "corpse left behind" true (Sys.file_exists socket);
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let router =
         Serve.Router.create ~jobs:2
           ~characterize:(fun _ -> stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    let finish () =
      Core.Parallel.reap pid;
      (try Sys.remove socket with Sys_error _ -> ())
    in
    Fun.protect ~finally:finish @@ fun () ->
    check Alcotest.bool "daemon replaced the stale socket" true
      (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
    let resp =
      Serve.Client.call ~timeout_s:5.0 ~socket
        (J.Obj [ ("op", J.Str "shutdown") ])
    in
    check Alcotest.bool "shutdown acknowledged" true
      (as_bool (member "ok" resp))

let test_server_shutdown_cleanup () =
  let socket = scratch_socket "serve_down" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let router =
         Serve.Router.create ~jobs:2
           ~characterize:(fun _ -> stub_model)
           ()
       in
       Serve.Server.run ~io_timeout_s:5.0 ~socket router
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    check Alcotest.bool "daemon came up" true
      (Serve.Client.wait_ready ~timeout_s:10.0 ~socket ());
    let resp =
      Serve.Client.call ~timeout_s:5.0 ~socket
        (J.Obj [ ("op", J.Str "shutdown") ])
    in
    check Alcotest.bool "shutdown acknowledged" true
      (as_bool (member "ok" resp));
    let code =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c -> c
      | _ -> 255
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 255
    in
    check Alcotest.int "daemon exited cleanly" 0 code;
    check Alcotest.bool "socket file removed" false (Sys.file_exists socket)

(* The daemon's estimate rows are {!Core.Estimate.result}s: under the
   committed coefficients every field is bit-equal to an offline
   [Core.Estimate.run], energy_uj included ([energy_pj / 1e6], the
   conversion every other document uses). *)
let test_router_estimate_rows_offline () =
  let model = Core.Template.load "../coeffs.txt" in
  let router =
    Serve.Router.create ~jobs:1 ~characterize:(fun _ -> model) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let cases =
    Workloads.Suite.applications () @ [ Workloads.Suite.find "rs_gfmac" ]
  in
  let names = List.map (fun c -> c.Core.Extract.case_name) cases in
  let resp =
    Serve.Router.handle router
      (J.Obj
         [ ("op", J.Str "estimate");
           ("workloads", J.Arr (List.map (fun n -> J.Str n) names)) ])
  in
  check Alcotest.bool "estimate ok" true (as_bool (member "ok" resp));
  let rows =
    match member "results" resp with
    | J.Arr l -> l
    | _ -> Alcotest.fail "results is not an array"
  in
  check Alcotest.int "one row per workload" (List.length cases)
    (List.length rows);
  let bits row k = Int64.bits_of_float (as_float (member k row)) in
  List.iter2
    (fun (c : Core.Extract.case) row ->
      let r = Core.Estimate.run model c in
      let n = c.Core.Extract.case_name in
      check Alcotest.int64 (n ^ " energy_pj")
        (Int64.bits_of_float r.Core.Estimate.energy_pj) (bits row "energy_pj");
      check Alcotest.int64 (n ^ " energy_uj")
        (Int64.bits_of_float r.Core.Estimate.energy_uj) (bits row "energy_uj");
      check Alcotest.int (n ^ " cycles") r.Core.Estimate.cycles
        (as_int (member "cycles" row));
      check Alcotest.int (n ^ " instructions") r.Core.Estimate.instructions
        (as_int (member "instructions" row)))
    cases rows

(* Refusals the CLI shares: the daemon's "error" is the text [xenergy]
   prints after "xenergy: " (test_cli checks the other surface). *)
let test_router_shared_messages () =
  with_router @@ fun router ->
  List.iter
    (fun (req, want) ->
      let resp = Serve.Router.handle router (J.Obj req) in
      check Alcotest.bool (want ^ ": refused") false (as_bool (member "ok" resp));
      check Alcotest.string want want
        (match member "error" resp with
         | J.Str s -> s
         | _ -> Alcotest.fail "error is not a string"))
    [ ( [ ("op", J.Str "profile"); ("workload", J.Str "nosuch") ],
        "unknown workload \"nosuch\"; try `xenergy list'" );
      ( [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "nosuch" ]) ],
        "unknown workload \"nosuch\"; try `xenergy list'" );
      ( [ ("op", J.Str "explore"); ("space", J.Str "nosuch") ],
        "unknown space \"nosuch\"; available: rs, rs-cache, mac-widths" );
      ( [ ("op", J.Str "profile"); ("workload", J.Str "gcd");
          ("top", J.Num 0.0) ],
        "profile: top must be positive" );
      ( [ ("op", J.Str "attribute"); ("workload", J.Str "gcd");
          ("bucket_cycles", J.Num (-1.0)) ],
        "attribute: bucket width must be positive" );
      ( [ ("op", J.Str "audit"); ("workloads", J.Arr []) ],
        "audit: empty workload list" ) ];
  check Alcotest.int "no refusal characterized" 0
    (as_int
       (member "registry_misses"
          (Serve.Router.handle router (J.Obj [ ("op", J.Str "stats") ]))))

(* A router whose characterization raises [exn] once: the request that
   hits it is refused with [want] as its error text, and the next
   request is served. *)
let refused_once ~what exn want =
  let failed = ref false in
  let characterize _ =
    if !failed then stub_model
    else begin
      failed := true;
      raise exn
    end
  in
  let router = Serve.Router.create ~jobs:1 ~characterize () in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let req =
    J.Obj [ ("op", J.Str "estimate"); ("workloads", J.Arr [ J.Str "gcd" ]) ]
  in
  let bad = Serve.Router.handle router req in
  check Alcotest.bool (what ^ " refused") false (as_bool (member "ok" bad));
  check Alcotest.string (what ^ " text answered") want
    (match member "error" bad with J.Str s -> s | _ -> "");
  let good = Serve.Router.handle router req in
  check Alcotest.bool "next request served" true (as_bool (member "ok" good))

(* A backend divergence is a request error, not a crash: the reply
   carries the mismatch text, an error-level backend:mismatch log record
   is written, and the next request is served. *)
let test_router_backend_mismatch () =
  let path = Filename.temp_file "xenergy-mismatch" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.Log.open_file path;
  let text = "backend check: cycles diverged (interp 1, threaded 2)" in
  refused_once ~what:"mismatch" (Sim.Backend.Mismatch text) text;
  Obs.Log.close ();
  let records =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map J.parse
  in
  match
    List.find_opt (fun r -> member "event" r = J.Str "backend:mismatch") records
  with
  | Some r ->
    check Alcotest.bool "error level" true (member "level" r = J.Str "error")
  | None -> Alcotest.fail "no backend:mismatch log record"

(* A simulator fault answers with the CLI's one-line text, not the
   printed exception. *)
let test_router_simulator_fault () =
  let text = "custom instruction \"clracc\" but no extension installed" in
  refused_once ~what:"simulator fault" (Sim.Cpu.Sim_error text)
    ("simulation failed: " ^ text)

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncation + oversize" `Quick
            test_frame_truncation_and_oversize;
          Alcotest.test_case "read deadline" `Quick test_frame_read_deadline;
          Alcotest.test_case "write deadline" `Quick test_frame_write_deadline;
          Alcotest.test_case "non-blocking split frame" `Quick
            test_frame_nonblocking_split;
          Alcotest.test_case "mid-payload stall" `Quick
            test_frame_mid_payload_stall;
          Alcotest.test_case "fuzzed byte streams" `Quick test_frame_fuzz ] );
      ( "registry",
        [ Alcotest.test_case "hit + every configuration stays resident"
            `Quick test_registry_hit_and_resident;
          Alcotest.test_case "preloaded model survives other configurations"
            `Quick test_service_preload_survives;
          Alcotest.test_case "misses characterize the shared cases" `Quick
            test_service_miss_shares_cases ] );
      ( "service",
        [ Alcotest.test_case "explore = offline sweep" `Slow
            test_service_explore_is_offline;
          Alcotest.test_case "characterize = offline fit" `Slow
            test_service_characterize ] );
      ( "router",
        [ Alcotest.test_case "profile op" `Quick test_router_profile_op;
          Alcotest.test_case "fuzzed payloads" `Quick test_router_fuzz;
          Alcotest.test_case "concurrent profiles of one workload" `Quick
            test_router_concurrent_profiles;
          Alcotest.test_case "explore op" `Slow test_router_explore_op;
          Alcotest.test_case "explore matches offline oracle" `Slow
            test_router_explore_oracle;
          Alcotest.test_case "refits from an explore-filled directory" `Slow
            test_router_refits_from_explore_dir;
          Alcotest.test_case "restart reads the stored model" `Slow
            test_router_restart_reads_model;
          Alcotest.test_case "cold explore counts characterization" `Slow
            test_router_cold_explore_counts;
          Alcotest.test_case "integer fields decoded exactly" `Quick
            test_router_integer_fields;
          Alcotest.test_case "duplicate names simulate once" `Quick
            test_router_duplicate_names;
          Alcotest.test_case "latency-shaped request buckets" `Quick
            test_request_seconds_buckets;
          Alcotest.test_case "timings + trace ids" `Quick
            test_router_timings_and_trace;
          Alcotest.test_case "status op" `Quick test_router_status_op;
          Alcotest.test_case "slow-request log" `Quick
            test_router_slow_request_log;
          Alcotest.test_case "estimate rows = offline estimate" `Quick
            test_router_estimate_rows_offline;
          Alcotest.test_case "messages shared with the CLI" `Quick
            test_router_shared_messages;
          Alcotest.test_case "backend mismatch answered" `Quick
            test_router_backend_mismatch;
          Alcotest.test_case "simulator fault answered" `Quick
            test_router_simulator_fault ] );
      ( "daemon",
        [ Alcotest.test_case "cold/warm + metrics" `Slow
            test_server_cold_warm_and_metrics;
          Alcotest.test_case "single-flight characterization" `Slow
            test_server_single_flight;
          Alcotest.test_case "concurrent connections overlap" `Slow
            test_server_concurrent_overlap;
          Alcotest.test_case "parallel distinct-config characterization" `Slow
            test_server_parallel_configs;
          Alcotest.test_case "wedged client starves nobody" `Slow
            test_server_wedged_client_liveness;
          Alcotest.test_case "mid-response hangup survived" `Slow
            test_server_hangup_mid_response;
          Alcotest.test_case "half-close still answered" `Slow
            test_server_half_close;
          Alcotest.test_case "session reuse" `Slow test_client_session_reuse;
          Alcotest.test_case "per-session trace ids" `Slow
            test_server_trace_ids_per_session;
          Alcotest.test_case "per-request backend" `Slow
            test_server_request_backend;
          Alcotest.test_case "socket steal refused" `Slow
            test_server_socket_steal_refused;
          Alcotest.test_case "silent daemon times the session out" `Quick
            test_client_session_timeout;
          Alcotest.test_case "stale socket replaced" `Quick
            test_server_stale_socket_replaced;
          Alcotest.test_case "shutdown cleanup" `Quick
            test_server_shutdown_cleanup ] ) ]
