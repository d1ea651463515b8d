type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let sink : out_channel option ref = ref None
let min_level = ref Debug

(* Size-capped rotation: a long-lived daemon's sink would otherwise grow
   without bound.  When the next record would push the file past the cap
   we close it, rename it to [<file>.1] (one atomic rename, replacing
   any previous [.1]) and reopen fresh.  [sink_bytes] tracks the size in
   this process; forked workers inherit a copy, so with concurrent
   writers the cap is approximate — the invariant that matters is that
   the live file stops growing. *)
let default_max_bytes = 64 * 1024 * 1024
let sink_path : string option ref = ref None
let sink_cap = ref default_max_bytes
let sink_bytes = ref 0

(* Writes are serialised so a rotation cannot race a concurrent record;
   the mutex lives behind a ref so forked children can replace it. *)
let write_lock = ref (Mutex.create ())

let after_fork () = write_lock := Mutex.create ()

let rotations_total =
  lazy (Metrics.counter ~help:"Log sinks rotated at the size cap" "log_rotations_total")

let set_level l = min_level := l

let close () =
  match !sink with
  | None -> ()
  | Some oc ->
    sink := None;
    (try close_out oc with Sys_error _ -> ())

let open_file ?level ?(max_bytes = default_max_bytes) path =
  close ();
  Option.iter set_level level;
  sink_path := Some path;
  sink_cap := max_bytes;
  sink_bytes := (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0);
  sink := Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)

let rotate path oc =
  (try close_out oc with Sys_error _ -> ());
  sink := None;
  (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
  try
    sink := Some (open_out_gen [ Open_append; Open_creat ] 0o644 path);
    sink_bytes := 0;
    Metrics.inc (Lazy.force rotations_total)
  with Sys_error _ -> ()

let init_from_env () =
  (match Sys.getenv_opt "XENERGY_LOG_LEVEL" with
  | Some s -> Option.iter set_level (level_of_string s)
  | None -> ());
  let max_bytes =
    match Sys.getenv_opt "XENERGY_LOG_MAX_BYTES" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> Some n
      | Some _ | None ->
        Printf.eprintf "xenergy: XENERGY_LOG_MAX_BYTES: ignoring %S\n%!" s;
        None)
  in
  match Sys.getenv_opt "XENERGY_LOG" with
  | Some path when String.trim path <> "" -> (
    try open_file ?max_bytes path
    with Sys_error msg ->
      Printf.eprintf "xenergy: XENERGY_LOG: cannot open log sink: %s\n%!" msg)
  | Some _ | None -> ()

let enabled () = !sink <> None

let event ?(level = Info) name fields =
  match !sink with
  | None -> ()
  | Some _ when severity level >= severity !min_level ->
    let trace_id =
      match Trace.context () with
      | Some c -> [ ("trace_id", Json.Str c.Trace.trace_id) ]
      | None -> []
    in
    let record =
      Json.Obj
        ([ ("ts_us", Json.Num (Trace.now_us ()));
           ("level", Json.Str (level_to_string level));
           ("tid", Json.int (Trace.tid ()));
           ("pid", Json.int (Unix.getpid ()));
           ("event", Json.Str name) ]
        @ trace_id
        @ List.map (fun (k, v) -> (k, Trace.arg_to_json v)) fields)
    in
    let line = Json.print record ^ "\n" in
    let m = !write_lock in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        (* Rotate before the write that would cross the cap, so the live
           file never exceeds it. *)
        (match (!sink, !sink_path) with
        | Some oc, Some path
          when !sink_cap > 0 && !sink_bytes > 0
               && !sink_bytes + String.length line > !sink_cap ->
          rotate path oc
        | _ -> ());
        match !sink with
        | None -> ()
        | Some oc -> (
          (* One write + flush per record: the buffer is empty between
             records, so lines inherited across fork never replay, and
             concurrent appenders interleave whole lines. *)
          try
            Out_channel.output_string oc line;
            Out_channel.flush oc;
            sink_bytes := !sink_bytes + String.length line
          with Sys_error _ -> close ()))
  | Some _ -> ()
