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

(* The per-request override is one thread-scoped variable: a daemon
   request's backend is private to its connection thread.  Reading an
   override nobody set skips the thread lookup. *)
let override : t Obs.Scope.var = Obs.Scope.create ()

let current () =
  match Obs.Scope.get override with Some b -> b | None -> !current_ref

let set_current b = current_ref := b

let with_current b f = Obs.Scope.with_value override b f

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

(* A running 63-bit hash over a run's hook calls and channel contents:
   allocation-free, so a checked run costs the two simulations and one
   multiply per word. *)
module Hook_digest = struct
  type t = { mutable h : int; mutable calls : int }

  let create () = { h = 0; calls = 0 }

  let[@inline] mix h v =
    let h = (h lxor v) * 0x2545_f491_4f6c_dd1d in
    h lxor (h lsr 29)

  let hook d : Cpu.hook =
   fun slot start cycles stall flags ch ->
    let h = mix (mix (mix (mix (mix d.h slot) start) cycles) stall) flags in
    let h = mix (mix (mix h ch.Cpu.bus1) ch.Cpu.bus2) ch.Cpu.result in
    let h = mix (mix (mix h ch.Cpu.addr) ch.Cpu.data) ch.Cpu.cin1 in
    d.h <- mix (mix h ch.Cpu.cin2) ch.Cpu.busy;
    d.calls <- d.calls + 1
end

let checks = ref 0
let checks_run () = !checks

let outcome_name = function Cpu.Halted -> "halted" | Cpu.Watchdog -> "watchdog"

(* The dual run: the interpreter on a clone (which carries the caller's
   observers and counts no metrics) and the threaded loop on the caller's
   machine (which carries the caller's hook), each with a digest hook in
   front. *)
let check ?hook observers cpu =
  let shadow = Cpu.clone cpu in
  let d_interp = Hook_digest.create () and d_threaded = Hook_digest.create () in
  Cpu.set_hook shadow (Hook_digest.hook d_interp);
  List.iter (Cpu.add_observer shadow) observers;
  let o_interp = Cpu.run shadow in
  Cpu.set_hook cpu (Cpu.chain (Hook_digest.hook d_threaded) hook);
  let o_threaded = Cpu.run_threaded cpu in
  if o_interp <> o_threaded then
    mismatch "backend check: outcome diverged (interp %s, threaded %s)"
      (outcome_name o_interp) (outcome_name o_threaded);
  let ints what a b =
    if a <> b then
      mismatch "backend check: %s diverged (interp %d, threaded %d)" what a b
  in
  ints "cycle count" (Cpu.cycles shadow) (Cpu.cycles cpu);
  ints "instruction count" (Cpu.instructions shadow) (Cpu.instructions cpu);
  ints "hook call count" d_interp.Hook_digest.calls
    d_threaded.Hook_digest.calls;
  if d_interp.Hook_digest.h <> d_threaded.Hook_digest.h then
    mismatch
      "backend check: hook and channel streams diverged over %d \
       retirements (digest mismatch)"
      d_threaded.Hook_digest.calls;
  (match Tally.diff (Cpu.tally shadow) (Cpu.tally cpu) with
   | None -> ()
   | Some field ->
     mismatch "backend check: tally diverged on %s (interp vs threaded)" field);
  let state what same =
    if not same then
      mismatch "backend check: final %s diverged (interp vs threaded)" what
  in
  state "registers" (Cpu.regfile shadow = Cpu.regfile cpu);
  state "memory" (Memory.equal (Cpu.memory shadow) (Cpu.memory cpu));
  state "TIE state"
    (let values m = Option.map Tie.Compile.state_values (Cpu.tie_state m) in
     values shadow = values cpu);
  state "SAR" (Cpu.sar shadow = Cpu.sar cpu);
  state "pc" (Cpu.pc shadow = Cpu.pc cpu);
  incr checks;
  o_threaded

let run_program ?backend ?config ?extension ?tally ?hook ?(observers = [])
    asm =
  let b = match backend with Some b -> b | None -> current () in
  let cpu = Cpu.create ?config ?extension ?tally asm in
  let o =
    match b with
    | Check -> check ?hook observers cpu
    | Threaded when List.is_empty observers ->
      Option.iter (Cpu.set_hook cpu) hook;
      Cpu.run_threaded cpu
    | Interp | Threaded ->
      Option.iter (Cpu.set_hook cpu) hook;
      List.iter (Cpu.add_observer cpu) observers;
      Cpu.run cpu
  in
  (cpu, o)
