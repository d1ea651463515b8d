(* Each group is built once per process and never mutated afterwards,
   so every caller, on any thread, shares the same cases.  The groups
   have their own cells: a characterization need not pay for the other
   workloads. *)
let characterization = Wutil.once Characterization.suite

let applications =
  Wutil.once (fun () ->
      [ Sorting.ins_sort ();
        Math_apps.gcd ();
        Graphics.alphablend ();
        Math_apps.add4 ();
        Sorting.bubsort ();
        Crypto.des ();
        Math_apps.accumulate ();
        Graphics.drawline ();
        Math_apps.multi_accumulate ();
        Math_apps.seq_mult () ])

let reed_solomon_choices = Wutil.once Reed_solomon.choices

let c_applications =
  Wutil.once (fun () ->
      List.map (fun (a : C_apps.capp) -> a.C_apps.case) (C_apps.all ()))

(* The name index over the groups' cases. *)
type index = {
  cases : Core.Extract.case list;
  by_name : (string, Core.Extract.case) Hashtbl.t;
  order : string list;
}

let index =
  Wutil.once (fun () ->
      let cases =
        characterization () @ applications () @ reed_solomon_choices ()
        @ c_applications ()
      in
      let by_name = Hashtbl.create 64 in
      (* First match wins, as a front-to-back search of [all ()] would. *)
      List.iter
        (fun c ->
          let n = c.Core.Extract.case_name in
          if not (Hashtbl.mem by_name n) then Hashtbl.add by_name n c)
        cases;
      { cases;
        by_name;
        order = List.map (fun c -> c.Core.Extract.case_name) cases })

let all () = (index ()).cases

let find name = Hashtbl.find (index ()).by_name name

let names () = (index ()).order
