let words_at b name ~addr ws =
  let bytes = Array.make (4 * Array.length ws) 0 in
  Array.iteri
    (fun i w ->
      for k = 0 to 3 do
        bytes.((4 * i) + k) <- (w lsr (8 * k)) land 0xff
      done)
    ws;
  Isa.Builder.bytes_at b name ~addr bytes

let assemble b = Isa.Program.assemble (Isa.Builder.seal b)

(* Builds run under a mutex rather than inside a [lazy]: on OCaml 5 a
   second thread forcing a lazy value mid-build raises [Lazy.Undefined]
   instead of waiting for it.  Once published, readers take the atomic
   fast path and never touch the lock. *)
let once build =
  let lock = Mutex.create () and cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some x -> x
    | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get cell with
          | Some x -> x
          | None ->
            let x = build () in
            Atomic.set cell (Some x);
            x)
