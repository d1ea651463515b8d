type arg =
  | S of string
  | I of int
  | F of float
  | B of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_args : (string * arg) list;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on

let cur_tid = ref 0
let set_tid t = cur_tid := t
let tid () = !cur_tid

type context = {
  trace_id : string;
  span_id : string;
  parent_id : string option;
}

(* Buffer in reverse order; [events] reverses once.  Server handler
   threads and the main thread record concurrently, so the buffer is one
   atomic list: recording is a compare-and-set of a new head, reading or
   draining it one load or exchange — no lock that a fork could leave
   held in the child.

   A buffered span keeps its context as the record it already is (the
   ids are shared with the live context, not copied) and gains its
   trace_id/span_id/parent_id args only when the buffer is read: a
   long-lived traced daemon retains every span it records, so each
   retained word is paid again by every major collection. *)
type recorded = {
  r_name : string;
  r_cat : string;
  r_ph : char;
  r_ts : float;
  r_dur : float;
  r_tid : int;
  r_args : (string * arg) list;
  r_ctx : context;   (* [no_ctx]: [r_args] is the whole arg list *)
}

let no_ctx = { trace_id = ""; span_id = ""; parent_id = None }

let buf : recorded list Atomic.t = Atomic.make []

let rec push f =
  let old = Atomic.get buf in
  if not (Atomic.compare_and_set buf old (f old)) then push f

let record r = push (fun l -> r :: l)

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let ctx_args ctx args =
  let rest =
    match ctx.parent_id with Some p -> ("parent_id", S p) :: args | None -> args
  in
  ("trace_id", S ctx.trace_id) :: ("span_id", S ctx.span_id) :: rest

let event_of r =
  { ev_name = r.r_name;
    ev_cat = r.r_cat;
    ev_ph = r.r_ph;
    ev_ts = r.r_ts;
    ev_dur = r.r_dur;
    ev_tid = r.r_tid;
    ev_args = (if r.r_ctx == no_ctx then r.r_args else ctx_args r.r_ctx r.r_args) }

let recorded_of e =
  { r_name = e.ev_name;
    r_cat = e.ev_cat;
    r_ph = e.ev_ph;
    r_ts = e.ev_ts;
    r_dur = e.ev_dur;
    r_tid = e.ev_tid;
    r_args = e.ev_args;
    r_ctx = no_ctx }

(* --- Request-scoped trace context ---------------------------------------- *)

(* Ids embed the pid so contexts minted after a fork (workers inherit the
   parent's Random state) cannot collide with the parent's.  The pid is
   cached — minting an id is on every traced span's path, and getpid is
   a system call — so every fork path that keeps tracing in the child
   calls [after_fork], which refreshes it and reseeds. *)
let fresh_seed pid =
  Random.State.make [| pid; int_of_float (Unix.gettimeofday () *. 1e6) |]

let hex_digits = "0123456789abcdef"

(* [v] as exactly [width] lower-case hex digits at [off]: %0*x for
   values that fit, without a format interpreter. *)
let put_hex b off width v =
  for i = 0 to width - 1 do
    Bytes.unsafe_set b (off + i)
      (String.unsafe_get hex_digits ((v lsr (4 * (width - 1 - i))) land 15))
  done

(* The pid's four digits, formatted once per process. *)
let pid_prefix pid =
  let b = Bytes.create 4 in
  put_hex b 0 4 (pid land 0xffff);
  Bytes.unsafe_to_string b

let id_prefix = ref (pid_prefix (Unix.getpid ()))
let id_seed = ref (fresh_seed (Unix.getpid ()))
let id_n = ref 0

let after_fork () =
  let pid = Unix.getpid () in
  id_prefix := pid_prefix pid;
  id_n := 0;
  id_seed := fresh_seed pid

let new_id () =
  incr id_n;
  let b = Bytes.create 16 in
  Bytes.unsafe_blit_string !id_prefix 0 b 0 4;
  put_hex b 4 4 (!id_n land 0xffff);
  put_hex b 8 8 (Random.State.bits !id_seed land 0x3fffffff);
  Bytes.unsafe_to_string b

(* The request context is one thread-scoped variable: a connection
   thread's context is invisible to every other thread. *)
let ctx : context Scope.var = Scope.create ()

let set_context c = Scope.set ctx c
let context () = Scope.get ctx
let with_context c f = Scope.with_value ctx c f

let complete ?(cat = "") ?(args = []) ?tid:tid_opt ?(ctx = no_ctx) ~name ~ts
    ~dur () =
  if !on then
    record
      { r_name = name;
        r_cat = cat;
        r_ph = 'X';
        r_ts = ts;
        r_dur = dur;
        r_tid = Option.value tid_opt ~default:!cur_tid;
        r_args = args;
        r_ctx = ctx }

(* Run [f] as a span: [finish] gets the start and end clock reads and
   the span's context ([None] outside any context). *)
let run_span f finish =
  let t0 = now_us () in
  let body child =
    match f () with
    | v ->
      finish t0 (now_us ()) child;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish t0 (now_us ()) child;
      Printexc.raise_with_backtrace e bt
  in
  (* Under an ambient context, mint a child span and make it the
     context for [f], so nested spans form a parent chain sharing one
     trace_id. *)
  Scope.derive ctx
    (fun parent ->
      { trace_id = parent.trace_id;
        span_id = new_id ();
        parent_id = Some parent.span_id })
    body

let with_span ?cat ?(args = []) name f =
  if not !on then f ()
  else
    run_span f (fun t0 t1 child ->
        complete ~args ?cat ?ctx:child ~name ~ts:t0 ~dur:(t1 -. t0) ())

let with_span_timed ?cat ?(args = []) ~elapsed name f =
  if not !on then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> elapsed (Unix.gettimeofday () -. t0)) f
  end
  else
    run_span f (fun t0 t1 child ->
        elapsed ((t1 -. t0) *. 1e-6);
        complete ~args ?cat ?ctx:child ~name ~ts:t0 ~dur:(t1 -. t0) ())

let instant ?(cat = "") ?(args = []) name =
  if !on then
    record
      { r_name = name;
        r_cat = cat;
        r_ph = 'i';
        r_ts = now_us ();
        r_dur = 0.0;
        r_tid = !cur_tid;
        r_args = args;
        r_ctx = Option.value (context ()) ~default:no_ctx }

let thread_name ~tid:t name =
  if !on then
    record
      { r_name = "thread_name";
        r_cat = "__metadata";
        r_ph = 'M';
        r_ts = 0.0;
        r_dur = 0.0;
        r_tid = t;
        r_args = [ ("name", S name) ];
        r_ctx = no_ctx }

let emit_all es =
  if !on then
    push (fun l -> List.fold_left (fun l e -> recorded_of e :: l) l es)

let events () = List.rev_map event_of (Atomic.get buf)
let clear () = Atomic.set buf []
let drain () = List.rev_map event_of (Atomic.exchange buf [])

(* --- Chrome trace-event JSON --------------------------------------------- *)

let arg_to_json = function
  | S s -> Json.Str s
  | I i -> Json.int i
  | F f -> Json.Num f
  | B b -> Json.Bool b

let event_to_json e =
  let open Json in
  let args =
    match e.ev_args with
    | [] -> []
    | args ->
      [ ("args", Obj (List.map (fun (k, a) -> (k, arg_to_json a)) args)) ]
  in
  let dur = if e.ev_ph = 'X' then [ ("dur", Num e.ev_dur) ] else [] in
  (* Instant events need a scope; thread scope matches the lane model. *)
  let scope = if e.ev_ph = 'i' then [ ("s", Str "t") ] else [] in
  Obj
    ([ ("name", Str e.ev_name);
       ("cat", Str (if e.ev_cat = "" then "xenergy" else e.ev_cat));
       ("ph", Str (String.make 1 e.ev_ph));
       ("ts", Num e.ev_ts) ]
    @ dur @ [ ("pid", int 1); ("tid", int e.ev_tid) ] @ scope @ args)

let to_json es =
  Json.Obj
    [ ("traceEvents", Json.Arr (List.map event_to_json es));
      ("displayTimeUnit", Json.Str "ms") ]

let save path = Json.save path (to_json (events ()))
