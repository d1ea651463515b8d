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

(* Buffer in reverse order; [events] reverses once.  Server handler
   threads and the main thread record concurrently, so the buffer is
   guarded by a mutex.  The mutex lives behind a ref so a freshly forked
   worker can swap in a clean one ([after_fork]) — a lock held by another
   thread at fork time would otherwise stay locked in the child forever. *)
let buf : event list ref = ref []
let buf_lock = ref (Mutex.create ())

let after_fork () = buf_lock := Mutex.create ()

let locked f =
  let m = !buf_lock in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let record e = locked (fun () -> buf := e :: !buf)

(* --- Request-scoped trace context ---------------------------------------- *)

type context = {
  trace_id : string;
  span_id : string;
  parent_id : string option;
}

(* Ids embed the pid so contexts minted after a fork (workers inherit the
   parent's Random state) cannot collide with the parent's. *)
let id_seed =
  ref (Random.State.make [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |])
let id_pid = ref (Unix.getpid ())
let id_n = ref 0

let new_id () =
  let pid = Unix.getpid () in
  if pid <> !id_pid then begin
    (* First id minted after a fork: reseed so siblings diverge. *)
    id_pid := pid;
    id_n := 0;
    id_seed := Random.State.make [| pid; int_of_float (Unix.gettimeofday () *. 1e6) |]
  end;
  incr id_n;
  Printf.sprintf "%04x%04x%08x" (pid land 0xffff) (!id_n land 0xffff)
    (Random.State.bits !id_seed land 0x3fffffff)

(* The request context is one thread-scoped variable: a connection
   thread's context is invisible to every other thread. *)
let ctx : context Scope.var = Scope.create ()

let set_context c = Scope.set ctx c
let context () = Scope.get ctx
let with_context c f = Scope.with_value ctx c f

let ctx_args ctx args =
  ("trace_id", S ctx.trace_id)
  :: ("span_id", S ctx.span_id)
  :: ((match ctx.parent_id with
      | Some p -> [ ("parent_id", S p) ]
      | None -> [])
     @ args)

let complete ?(cat = "") ?(args = []) ?tid:tid_opt ?ctx ~name ~ts ~dur () =
  if !on then
    record
      { ev_name = name;
        ev_cat = cat;
        ev_ph = 'X';
        ev_ts = ts;
        ev_dur = dur;
        ev_tid = Option.value tid_opt ~default:!cur_tid;
        ev_args = (match ctx with Some c -> ctx_args c args | None -> args) }

let with_span ?cat ?(args = []) name f =
  if not !on then f ()
  else begin
    let t0 = now_us () in
    match context () with
    | None ->
      let finish () = complete ~args ?cat ~name ~ts:t0 ~dur:(now_us () -. t0) () in
      (match f () with
      | v -> finish (); v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt)
    | Some parent ->
      (* Mint a child span under the ambient context so nested spans form
         a parent chain sharing one trace_id. *)
      let child =
        { trace_id = parent.trace_id;
          span_id = new_id ();
          parent_id = Some parent.span_id }
      in
      let finish () =
        complete ~args ?cat ~ctx:child ~name ~ts:t0 ~dur:(now_us () -. t0) ()
      in
      (match with_context child f with
      | v -> finish (); v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt)
  end

let instant ?(cat = "") ?(args = []) name =
  if !on then
    record
      { ev_name = name;
        ev_cat = cat;
        ev_ph = 'i';
        ev_ts = now_us ();
        ev_dur = 0.0;
        ev_tid = !cur_tid;
        ev_args =
          (match context () with Some c -> ctx_args c args | None -> args) }

let thread_name ~tid:t name =
  if !on then
    record
      { ev_name = "thread_name";
        ev_cat = "__metadata";
        ev_ph = 'M';
        ev_ts = 0.0;
        ev_dur = 0.0;
        ev_tid = t;
        ev_args = [ ("name", S name) ] }

let emit_all es =
  if !on then locked (fun () -> List.iter (fun e -> buf := e :: !buf) es)

let events () = locked (fun () -> List.rev !buf)
let clear () = locked (fun () -> buf := [])

let drain () =
  locked (fun () ->
      let es = List.rev !buf in
      buf := [];
      es)

(* --- Chrome trace-event JSON --------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let arg_json = function
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | I i -> string_of_int i
  | F f ->
    if Float.is_nan f || Float.abs f = Float.infinity then "0"
    else Printf.sprintf "%.6g" f
  | B b -> if b then "true" else "false"

let event_json e =
  let args =
    match e.ev_args with
    | [] -> ""
    | args ->
      Printf.sprintf ", \"args\": {%s}"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\": %s" (json_escape k) (arg_json v))
              args))
  in
  let dur =
    if e.ev_ph = 'X' then Printf.sprintf ", \"dur\": %.3f" e.ev_dur else ""
  in
  (* Instant events need a scope; thread scope matches the lane model. *)
  let scope = if e.ev_ph = 'i' then ", \"s\": \"t\"" else "" in
  Printf.sprintf
    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f%s, \
     \"pid\": 1, \"tid\": %d%s%s}"
    (json_escape e.ev_name)
    (json_escape (if e.ev_cat = "" then "xenergy" else e.ev_cat))
    e.ev_ph e.ev_ts dur e.ev_tid scope args

let to_json es =
  Printf.sprintf
    "{\n\"traceEvents\": [\n%s\n],\n\"displayTimeUnit\": \"ms\"\n}"
    (String.concat ",\n" (List.map event_json es))

let save path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json (events ()));
      Out_channel.output_char oc '\n')
