let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* One-entry page TLB in front of the page table: accesses cluster
   heavily by page (straight-line fetch, array walks), and the repeat
   case must not pay a [Hashtbl] probe per byte. *)
type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_key : int;              (* -1 = empty *)
  mutable last_page : Bytes.t;
}

let create () : t =
  { pages = Hashtbl.create 64; last_key = -1; last_page = Bytes.empty }

let page t addr =
  let key = addr lsr page_bits in
  if key = t.last_key then t.last_page
  else
    let p =
      match Hashtbl.find_opt t.pages key with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages key p;
        p
    in
    t.last_key <- key;
    t.last_page <- p;
    p

let load8 t addr =
  let addr = addr land 0xffff_ffff in
  Char.code (Bytes.get (page t addr) (addr land page_mask))

let store8 t addr v =
  let addr = addr land 0xffff_ffff in
  Bytes.set (page t addr) (addr land page_mask) (Char.chr (v land 0xff))

let check_align addr n =
  if addr land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Memory: misaligned %d-byte access at 0x%x" n addr)

(* Aligned multi-byte accesses never cross a page boundary (the access
   size divides the page size), so each is a single page lookup plus one
   Bytes primitive — the simulator's data path hits these constantly. *)
let load16 t addr =
  check_align addr 2;
  let addr = addr land 0xffff_ffff in
  Bytes.get_uint16_le (page t addr) (addr land page_mask)

let load32 t addr =
  check_align addr 4;
  let addr = addr land 0xffff_ffff in
  Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
  land 0xffff_ffff

let store16 t addr v =
  check_align addr 2;
  let addr = addr land 0xffff_ffff in
  Bytes.set_uint16_le (page t addr) (addr land page_mask) (v land 0xffff)

let store32 t addr v =
  check_align addr 4;
  let addr = addr land 0xffff_ffff in
  Bytes.set_int32_le (page t addr) (addr land page_mask) (Int32.of_int v)

let load_image t image =
  List.iter
    (fun (base, bytes) ->
      Array.iteri (fun i b -> store8 t (base + i) b) bytes)
    image

let copy (t : t) : t =
  let pages = Hashtbl.create (max 64 (Hashtbl.length t.pages)) in
  Hashtbl.iter (fun k p -> Hashtbl.replace pages k (Bytes.copy p)) t.pages;
  { pages; last_key = -1; last_page = Bytes.empty }

(* Pages a run only read are all zero, so a page missing on one side
   equals a zero page on the other. *)
let equal (a : t) (b : t) =
  let within x y =
    Hashtbl.fold
      (fun k p ok ->
        ok
        &&
        match Hashtbl.find_opt y.pages k with
        | Some q -> Bytes.equal p q
        | None -> Bytes.for_all (fun c -> c = '\000') p)
      x.pages true
  in
  within a b && within b a
