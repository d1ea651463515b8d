(* Everything a workload feeds the program under test is drawn here from
   the benchmark seed, so one seed always yields the same inputs. *)

let fixed_estimate_set () =
  Workloads.Suite.applications ()
  @ Workloads.Suite.reed_solomon_choices ()
  @ Workloads.Suite.c_applications ()

(* The seed draws the programs' content; their size class is fixed.  A
   drawn program is kept only if it retires [synthetic_band] instructions,
   a range the fixed set leaves empty, so the seed moves the work per pass
   by a few percent at most. *)
let synthetic_count = 4
let synthetic_band = (3_000, 8_000)

let instructions (c : Core.Extract.case) =
  let cpu, _ =
    Sim.Backend.run_program ~backend:Sim.Backend.Threaded ?extension:c.Core.Extract.extension
      c.Core.Extract.asm
  in
  Sim.Cpu.instructions cpu

let synthetic ~seed =
  let st = Random.State.make [| seed; 0x65 |] in
  let cats = Array.of_list Tie.Component.all_categories in
  let lo, hi = synthetic_band in
  let rec draw acc =
    if List.length acc = synthetic_count then List.rev acc
    else
      let s = Random.State.bits st in
      let category =
        if Random.State.bool st then Some cats.(Random.State.int st (Array.length cats))
        else None
      in
      let c =
        Workloads.Synthetic.generate ~seed:s ?category
          (Printf.sprintf "synthetic-%d" (List.length acc))
      in
      let n = instructions c in
      draw (if n >= lo && n <= hi then c :: acc else acc)
  in
  draw []

let estimate_set ~seed = fixed_estimate_set () @ synthetic ~seed

(* --- Daemon traffic -------------------------------------------------------- *)

type kind = Estimate | Sim

type request = {
  kind : kind;
  names : string list;   (** workloads the request names *)
  json : Obs.Json.t;
}

let serve_pool () =
  List.map (fun (c : Core.Extract.case) -> c.Core.Extract.case_name)
    (fixed_estimate_set ())

let str s = Obs.Json.Str s

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One round of daemon traffic, as one slice per client.  Whatever the
   seed, a round holds the same requests: every pool workload once as a
   simulating op (alternately [profile] and [attribute] in pool order,
   since the two cost differently on the large programs) and four warm
   [estimate] batches per workload, of sizes 1,
   2, 2 and 3, so the mix is 80/20 and the median request sits inside the
   two-workload batches rather than on the edge between two batch sizes.
   Each client gets the same number of batches of each size and of
   simulating ops; the seed deals the batch names from shuffled copies of
   the pool and orders each slice. *)
(* Batches of each size per pool workload: sizes 1, 2, 2, 3. *)
let size_share = function 2 -> 2 | _ -> 1

let serve_round ~seed ~clients =
  let st = Random.State.make [| seed; 0x73 |] in
  let pool = Array.of_list (serve_pool ()) in
  let n = Array.length pool in
  let timed fields = Obs.Json.Obj (fields @ [ ("timings", Obs.Json.Bool true) ]) in
  let sims =
    Array.to_list
      (shuffle st
         (Array.mapi
            (fun i name ->
              let op, extra =
                if i mod 2 = 0 then ("profile", [ ("top", Obs.Json.Num 10.0) ])
                else ("attribute", [])
              in
              { kind = Sim;
                names = [ name ];
                json = timed ([ ("op", str op); ("workload", str name) ] @ extra) })
            pool))
  in
  let deck = ref [] in
  let rec next () =
    match !deck with
    | x :: rest ->
      deck := rest;
      x
    | [] ->
      deck := Array.to_list (shuffle st (Array.copy pool));
      next ()
  in
  let estimates =
    List.concat_map
      (fun size ->
        List.init (size_share size * n) (fun _ ->
            let names = List.init size (fun _ -> next ()) in
            { kind = Estimate;
              names;
              json =
                timed [ ("op", str "estimate"); ("workloads", Obs.Json.Arr (List.map str names)) ] }))
      [ 1; 2; 3 ]
  in
  Array.init clients (fun k ->
      let mine l = List.filteri (fun i _ -> i mod clients = k) l in
      shuffle st (Array.of_list (mine sims @ mine estimates)))
