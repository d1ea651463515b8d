type t = Interp | Threaded | Check

exception Mismatch of string

let mismatch fmt = Format.kasprintf (fun s -> raise (Mismatch s)) fmt

let all = [ Interp; Threaded; Check ]

let name = function
  | Interp -> "interp"
  | Threaded -> "threaded"
  | Check -> "check"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Some Interp
  | "threaded" -> Some Threaded
  | "check" -> Some Check
  | _ -> None

let current_ref = ref Threaded

(* Scoped overrides live per scope key (default: the constant 0, one
   process-wide scope).  A threaded embedder (the serve daemon)
   installs the thread id as the key so concurrent requests carrying
   different per-request backends cannot clobber each other's
   selection mid-simulation.  The store is an immutable assoc list
   behind one ref — readers never see a half-updated structure, and
   each key has exactly one writer (its own thread). *)
let scope_key = ref (fun () -> 0)
let set_scope_key f = scope_key := f

let overrides : (int * t) list ref = ref []

let current () =
  match !overrides with
  | [] -> !current_ref (* the common, override-free fast path *)
  | l -> (
    match List.assoc_opt (!scope_key ()) l with
    | Some b -> b
    | None -> !current_ref)

let set_current b = current_ref := b

let with_current b f =
  let k = !scope_key () in
  let saved = List.assoc_opt k !overrides in
  let without l = List.filter (fun (k', _) -> k' <> k) l in
  overrides := (k, b) :: without !overrides;
  Fun.protect
    ~finally:(fun () ->
      overrides :=
        (match saved with
         | Some prev -> (k, prev) :: without !overrides
         | None -> without !overrides))
    f

let env_var = "XENERGY_BACKEND"

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
    match of_string s with
    | Some b -> set_current b
    | None ->
      Printf.eprintf
        "xenergy: warning: %s=%S is not a backend (interp|threaded|check); \
         keeping %s\n%!"
        env_var s (name !current_ref);
      Obs.Log.event ~level:Obs.Log.Warn "backend:bad-env"
        [ ("value", Obs.Trace.S s); ("fallback", Obs.Trace.S (name !current_ref)) ])

(* Streaming digest over retirement events.  Events are serialised field
   by field into a buffer that is folded into a running [Digest] chain
   (bounded memory for arbitrarily long runs).  Hand-rolled rather than
   [Marshal]: [custom_info.cinsn] reaches into the compiled extension,
   which is not marshallable, and a textual encoding keeps a mismatch
   reproducible byte-for-byte. *)
module Stream_digest = struct
  type t = { buf : Buffer.t; mutable acc : string; mutable events : int }

  let create () = { buf = Buffer.create 65536; acc = ""; events = 0 }

  let fold d =
    if Buffer.length d.buf > 0 then begin
      d.acc <- Digest.string (d.acc ^ Buffer.contents d.buf);
      Buffer.clear d.buf
    end

  let int b i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '

  let bool b v = Buffer.add_char b (if v then '1' else '0')

  let clazz_code = function
    | Isa.Instr.Arith_class -> 0
    | Isa.Instr.Load_class -> 1
    | Isa.Instr.Store_class -> 2
    | Isa.Instr.Jump_class -> 3
    | Isa.Instr.Branch_class -> 4
    | Isa.Instr.Custom_class -> 5

  let observe d (e : Event.t) =
    d.events <- d.events + 1;
    let b = d.buf in
    int b e.Event.index;
    int b e.Event.start_cycle;
    int b e.Event.cycles;
    int b (clazz_code e.Event.clazz);
    (match e.Event.taken with
     | None -> Buffer.add_char b '-'
     | Some v -> bool b v);
    bool b e.Event.interlock;
    int b e.Event.stall_cycles;
    bool b e.Event.window_event;
    int b e.Event.fetch.Event.fpc;
    int b e.Event.fetch.Event.fword;
    bool b e.Event.fetch.Event.fhit;
    bool b e.Event.fetch.Event.funcached;
    (match e.Event.mem with
     | None -> Buffer.add_char b 'n'
     | Some mi ->
       int b mi.Event.maddr;
       int b mi.Event.msize;
       bool b mi.Event.mwrite;
       bool b mi.Event.mhit;
       bool b mi.Event.muncached;
       int b mi.Event.mvalue);
    List.iter (int b) e.Event.src_values;
    Buffer.add_char b '/';
    (match e.Event.result with
     | None -> Buffer.add_char b 'n'
     | Some v -> int b v);
    (match e.Event.custom with
     | None -> Buffer.add_char b 'n'
     | Some ci ->
       Buffer.add_string b
         ci.Event.cinsn.Tie.Compile.def.Tie.Spec.iname;
       Buffer.add_char b ':';
       List.iter (int b) ci.Event.coperands;
       (match ci.Event.cresult with
        | None -> Buffer.add_char b 'n'
        | Some v -> int b v);
       List.iter (int b) ci.Event.cstates);
    int b e.Event.busy_cycles;
    Buffer.add_char b '\n';
    if Buffer.length b >= 65536 then fold d

  let finish d =
    fold d;
    d.acc
end

let checks = ref 0
let checks_run () = !checks

let execute_with b cpu =
  match b with
  | Interp -> Cpu.run cpu
  | Threaded -> Cpu.run_threaded cpu
  | Check ->
    (* The clone carries no observers and counts no metrics, so the
       caller sees exactly one event stream: the threaded one, which the
       digest proves identical to the interpreter's. *)
    let shadow = Cpu.clone cpu in
    let d_interp = Stream_digest.create () in
    Cpu.add_observer shadow (Stream_digest.observe d_interp);
    let o_interp = Cpu.run shadow in
    let d_threaded = Stream_digest.create () in
    Cpu.add_observer cpu (Stream_digest.observe d_threaded);
    let o_threaded = Cpu.run_threaded cpu in
    if o_interp <> o_threaded then
      mismatch "backend check: outcome diverged (interp %s, threaded %s)"
        (match o_interp with Cpu.Halted -> "halted" | Cpu.Watchdog -> "watchdog")
        (match o_threaded with
         | Cpu.Halted -> "halted"
         | Cpu.Watchdog -> "watchdog");
    if Cpu.cycles shadow <> Cpu.cycles cpu then
      mismatch "backend check: cycle count diverged (interp %d, threaded %d)"
        (Cpu.cycles shadow) (Cpu.cycles cpu);
    if Cpu.instructions shadow <> Cpu.instructions cpu then
      mismatch
        "backend check: instruction count diverged (interp %d, threaded %d)"
        (Cpu.instructions shadow) (Cpu.instructions cpu);
    if d_interp.Stream_digest.events <> d_threaded.Stream_digest.events then
      mismatch "backend check: event count diverged (interp %d, threaded %d)"
        d_interp.Stream_digest.events d_threaded.Stream_digest.events;
    if
      not
        (String.equal
           (Stream_digest.finish d_interp)
           (Stream_digest.finish d_threaded))
    then
      mismatch
        "backend check: event streams diverged over %d retirements \
         (digest mismatch)"
        d_threaded.Stream_digest.events;
    incr checks;
    o_threaded

let execute cpu = execute_with (current ()) cpu

let run_program ?backend ?config ?extension ?(observers = []) asm =
  let b = match backend with Some b -> b | None -> current () in
  let cpu = Cpu.create ?config ?extension asm in
  List.iter (Cpu.add_observer cpu) observers;
  let o = execute_with b cpu in
  (cpu, o)
