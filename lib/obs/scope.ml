(* One cell per thread that holds a value.  The list itself is swapped
   by compare-and-set when a thread gains or drops its cell; a cell's
   value is only ever written by its owning thread, so re-binding a
   thread that already holds a value (every nested [with_value]) is a
   plain field write with no list copy. *)
type 'a cell = { key : int; mutable value : 'a }
type 'a var = 'a cell list Atomic.t

let create () = Atomic.make []

let key () = Thread.id (Thread.self ())

let rec find k = function
  | [] -> None
  | c :: rest -> if c.key = k then Some c else find k rest

let get v =
  match Atomic.get v with
  | [] -> None (* nothing set on any thread: skip the thread lookup *)
  | l -> ( match find (key ()) l with Some c -> Some c.value | None -> None)

let rec update v f =
  let old = Atomic.get v in
  if not (Atomic.compare_and_set v old (f old)) then update v f

let set_at v k x =
  match (find k (Atomic.get v), x) with
  | Some c, Some x -> c.value <- x
  | None, Some x ->
    let c = { key = k; value = x } in
    update v (fun l -> c :: l)
  | Some _, None -> update v (List.filter (fun c -> c.key <> k))
  | None, None -> ()

let set v x = set_at v (key ()) x

let with_value v x f =
  let k = key () in
  let saved =
    match find k (Atomic.get v) with
    | Some c ->
      let saved = c.value in
      c.value <- x;
      Some saved
    | None ->
      set_at v k (Some x);
      None
  in
  Fun.protect ~finally:(fun () -> set_at v k saved) f

let derive v g f =
  match Atomic.get v with
  | [] -> f None
  | l -> (
    let k = key () in
    match find k l with
    | None -> f None
    | Some c ->
      let x = c.value in
      let y = g x in
      c.value <- y;
      match f (Some y) with
      | r ->
        set_at v k (Some x);
        r
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        set_at v k (Some x);
        Printexc.raise_with_backtrace e bt)
