type 'a var = (int * 'a) list Atomic.t

let create () = Atomic.make []

let key () = Thread.id (Thread.self ())

let get v =
  match Atomic.get v with
  | [] -> None (* nothing set on any thread: skip the thread lookup *)
  | l -> List.assoc_opt (key ()) l

let rec update v f =
  let old = Atomic.get v in
  if not (Atomic.compare_and_set v old (f old)) then update v f

let set v x =
  let k = key () in
  update v (fun l ->
      let rest = List.filter (fun (k', _) -> k' <> k) l in
      match x with Some x -> (k, x) :: rest | None -> rest)

let with_value v x f =
  let saved = get v in
  set v (Some x);
  Fun.protect ~finally:(fun () -> set v saved) f
