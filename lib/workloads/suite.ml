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
   cases.  The characterization cases are published on their own first
   (a characterization need not pay for the other workloads), and the
   index then reuses them.  Builds run under one mutex rather than
   inside a [lazy]: on OCaml 5 a second thread forcing a lazy value
   mid-build raises [Lazy.Undefined] instead of waiting for it.  Once
   published, readers take the atomic fast path and never touch the
   lock. *)
type index = {
  by_name : (string, Core.Extract.case) Hashtbl.t;
  order : string list;
}

let lock = Mutex.create ()
let chars_cell : Core.Extract.case list option Atomic.t = Atomic.make None
let index_cell : index option Atomic.t = Atomic.make None

(* With [lock] held. *)
let publish cell build =
  match Atomic.get cell with
  | Some x -> x
  | None ->
    let x = build () in
    Atomic.set cell (Some x);
    x

let published cell build =
  match Atomic.get cell with
  | Some x -> x
  | None -> Mutex.protect lock (fun () -> publish cell build)

let build_index () =
  let cases = publish chars_cell characterization @ others () in
  let by_name = Hashtbl.create 64 in
  (* First match wins, as a front-to-back search of [all ()] would. *)
  List.iter
    (fun c ->
      let n = c.Core.Extract.case_name in
      if not (Hashtbl.mem by_name n) then Hashtbl.add by_name n c)
    cases;
  { by_name; order = List.map (fun c -> c.Core.Extract.case_name) cases }

let index () = published index_cell build_index

let find name = Hashtbl.find (index ()).by_name name

let names () = (index ()).order

let shared_characterization () = published chars_cell characterization
