exception Frame_error of string

let max_frame_bytes = 16 * 1024 * 1024

(* --- Deadline-guarded exact transfers ------------------------------------- *)

(* Wait until [fd] is ready ([`Read] or [`Write]), or until the absolute
   [deadline] passes (never, without one).  [true] when ready. *)
let rec wait ~deadline dir fd =
  let timeout =
    match deadline with
    | None -> -1.0 (* block *)
    | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
  in
  let r, w = match dir with `Read -> ([ fd ], []) | `Write -> ([], [ fd ]) in
  match Unix.select r w [] timeout with
  | [], [], _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ~deadline dir fd

(* Read exactly [len] bytes into [buf] at [off].  The caller has already
   waited for the first byte (or needs no deadline), so this reads
   straight away and goes back to [select] only when a read would block
   ([EAGAIN] on a non-blocking fd) or came back short: on a blocking fd
   the next read would then block, so the wait must be bounded first.
   A read never asks for more than the frame still owes, so bytes past
   the frame stay in the socket for the next call.  [`Eof] carries the
   number of bytes read before the end of the stream. *)
let read_exact ~deadline fd buf off len =
  let rec go got =
    if got = len then `Ok
    else
      match Unix.read fd buf (off + got) (len - got) with
      | 0 -> `Eof got
      | n when got + n = len -> `Ok
      | n -> if wait ~deadline `Read fd then go (got + n) else `Timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if wait ~deadline `Read fd then go got else `Timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof got
  in
  go 0

let read_frame ?deadline fd =
  (* The one select of a round trip's read: wait for the frame to start.
     Without a deadline there is nothing to bound, and the first read
     blocks (or, non-blocking, comes back EAGAIN and waits then). *)
  (match deadline with
   | Some _ when not (wait ~deadline `Read fd) ->
     raise (Frame_error "read timed out waiting for a frame")
   | _ -> ());
  let header = Bytes.create 4 in
  match read_exact ~deadline fd header 0 4 with
  | `Eof 0 -> None (* the peer closed cleanly between frames *)
  | `Eof _ -> raise (Frame_error "truncated frame header")
  | `Timeout -> raise (Frame_error "read timed out inside a frame header")
  | `Ok -> (
    let len = Int32.to_int (Bytes.get_int32_be header 0) land 0xffff_ffff in
    if len > max_frame_bytes then
      raise
        (Frame_error
           (Printf.sprintf "frame length %d exceeds the %d-byte bound" len
              max_frame_bytes));
    let payload = Bytes.create len in
    match read_exact ~deadline fd payload 0 len with
    | `Ok -> Some (Bytes.unsafe_to_string payload)
    | `Eof _ -> raise (Frame_error "truncated frame payload")
    | `Timeout -> raise (Frame_error "read timed out inside a frame payload"))

(* Writes go straight to [write], symmetric with [read_exact]: [select]
   runs only when a write would block ([EAGAIN] on a non-blocking fd, a
   peer that stopped reading with its socket buffer full), against the
   same absolute deadline, so such a peer can never hang the writer.
   With no deadline the wait simply blocks. *)
let rec write_all ~deadline fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all ~deadline fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all ~deadline fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if wait ~deadline `Write fd then write_all ~deadline fd buf off len
      else raise (Frame_error "write timed out inside a frame")

let write_frame ?deadline fd payload =
  let n = String.length payload in
  if n > max_frame_bytes then
    raise
      (Frame_error
         (Printf.sprintf "frame length %d exceeds the %d-byte bound" n
            max_frame_bytes));
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all ~deadline fd b 0 (4 + n)

let json_to_string = Obs.Json.print
