let characterization () = Characterization.suite ()

let applications () =
  [ Sorting.ins_sort ();
    Math_apps.gcd ();
    Graphics.alphablend ();
    Math_apps.add4 ();
    Sorting.bubsort ();
    Crypto.des ();
    Math_apps.accumulate ();
    Graphics.drawline ();
    Math_apps.multi_accumulate ();
    Math_apps.seq_mult () ]

let reed_solomon_choices () = Reed_solomon.choices ()

let c_applications () =
  List.map (fun (a : C_apps.capp) -> a.C_apps.case) (C_apps.all ())

(* Every workload past the characterization programs, in suite order. *)
let others () =
  applications () @ reed_solomon_choices () @ c_applications ()

let all () = characterization () @ others ()

(* The name index: every case of [all ()], built once per process and
   never mutated afterwards, so lookups from any thread share the same
   cases.  The build runs under a mutex rather than inside a [lazy]: on
   OCaml 5 a second thread forcing a lazy value mid-build raises
   [Lazy.Undefined] instead of waiting for it.  Once published, readers
   take the atomic fast path and never touch the lock. *)
type index = {
  by_name : (string, Core.Extract.case) Hashtbl.t;
  order : string list;
  shared_characterization : Core.Extract.case list;
}

let index_cell : index option Atomic.t = Atomic.make None
let index_lock = Mutex.create ()

let build_index () =
  let chars = characterization () in
  let cases = chars @ others () in
  let by_name = Hashtbl.create 64 in
  (* First match wins, as a front-to-back search of [all ()] would. *)
  List.iter
    (fun c ->
      let n = c.Core.Extract.case_name in
      if not (Hashtbl.mem by_name n) then Hashtbl.add by_name n c)
    cases;
  { by_name;
    order = List.map (fun c -> c.Core.Extract.case_name) cases;
    shared_characterization =
      List.map (fun c -> Hashtbl.find by_name c.Core.Extract.case_name) chars }

let index () =
  match Atomic.get index_cell with
  | Some i -> i
  | None ->
    Mutex.protect index_lock (fun () ->
        match Atomic.get index_cell with
        | Some i -> i
        | None ->
          let i = build_index () in
          Atomic.set index_cell (Some i);
          i)

let find name = Hashtbl.find (index ()).by_name name

let names () = (index ()).order

let shared_characterization () = (index ()).shared_characterization
