(* Host-speed calibration.

   On a shared machine the same code runs at a speed that drifts with
   the neighbours' load, over seconds and over minutes.  A fixed loop of
   the benchmark's own — integer work and dependent loads over a 4 MiB
   table, a working set like the simulator's, and no allocation, so no
   setting of the program under test can change its speed — is timed
   between the workload's rounds, while the workload is idle.  Its quiet
   time ({!Quant.fastest}) against
   [reference_ms], what it takes on an idle host of the reference kind
   (2-core x86-64), is the factor that brings every timing of the run to
   that host's speed. *)

let reference_ms = 0.82

let table_bits = 19
let mask = (1 lsl table_bits) - 1
let table = Array.init (1 lsl table_bits) (fun i -> (i * 7919) land mask)
let iterations = 200_000

let kernel () =
  let x = ref 0 and s = ref 0 in
  for _ = 1 to iterations do
    x := table.(!x);
    s := !s + (!x lxor (!s lsl 1));
    table.(!x land 1023) <- !s land mask
  done;
  ignore (Sys.opaque_identity !s)

let samples = ref []

(* Time one run of the loop.  Call only while the workload is idle: the
   loop must see the neighbours' load, not the workload's own. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  samples := (Unix.gettimeofday () -. t0) *. 1e3 :: !samples

let min_samples = 10

let calibration_ms () =
  while List.length !samples < min_samples do
    sample ()
  done;
  Quant.mean (Quant.fastest ~key:Fun.id !samples)

(* Multiply a duration measured in this run by [factor ()] (divide a
   rate by it) to read it at the reference host's speed. *)
let factor () = reference_ms /. calibration_ms ()
