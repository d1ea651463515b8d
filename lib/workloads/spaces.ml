(* Concrete candidate spaces, shared by the CLI, the daemon, the bench
   harness and the tests.  Each is built once per process from the
   lists below, which fix candidate names and evaluation order. *)

let rs =
  Wutil.once (fun () ->
      List.map Core.Explore.candidate (Suite.reed_solomon_choices ()))

let icache_config kb =
  { Sim.Config.default with
    Sim.Config.icache =
      { Sim.Config.default_cache with Sim.Config.size_bytes = kb * 1024 } }

(* Choice-major: the I-cache size varies fastest. *)
let rs_cache =
  Wutil.once (fun () ->
      let configs =
        List.map (fun kb -> (Printf.sprintf "ic%dk" kb, icache_config kb))
          [ 4; 8; 16; 32 ]
      in
      List.concat_map
        (fun (case : Core.Extract.case) ->
          List.map
            (fun (label, config) ->
              Core.Explore.candidate
                ~name:(case.Core.Extract.case_name ^ "/" ^ label)
                ~config case)
            configs)
        (Suite.reed_solomon_choices ()))

(* The tradeoff kernel: a 256-element dot product, either in base-ISA
   software (mul16u + add) or through the MAC custom instruction. *)
let dot_n = 256
let dot_x_addr = 0x11000
let dot_y_addr = 0x12000

let dot_place b =
  let mask w = w land 0x7fff in
  Wutil.words_at b "x" ~addr:dot_x_addr
    (Array.map mask (Data.words ~seed:21 dot_n));
  Wutil.words_at b "y" ~addr:dot_y_addr
    (Array.map mask (Data.words ~seed:22 dot_n))

let dot_soft () =
  let open Isa.Builder in
  let b = create "dot_soft" in
  dot_place b;
  label b "main";
  movi b a2 dot_x_addr;
  movi b a3 dot_y_addr;
  movi b a4 0;
  loop_n b ~cnt:a5 (dot_n / 4) (fun () ->
      for k = 0 to 3 do
        l32i b a6 a2 (4 * k);
        l32i b a7 a3 (4 * k);
        mul16u b a8 a6 a7;
        add b a4 a4 a8
      done;
      addi b a2 a2 16;
      addi b a3 a3 16);
  halt b;
  Core.Extract.case "dot_soft" (Wutil.assemble b)

let dot_mac ext =
  let open Isa.Builder in
  let b = create "dot_mac" in
  dot_place b;
  label b "main";
  movi b a2 dot_x_addr;
  movi b a3 dot_y_addr;
  custom b "clracc" [];
  loop_n b ~cnt:a5 (dot_n / 4) (fun () ->
      for k = 0 to 3 do
        l32i b a6 a2 (4 * k);
        l32i b a7 a3 (4 * k);
        custom b "mac" [ a6; a7 ]
      done;
      addi b a2 a2 16;
      addi b a3 a3 16);
  custom b "rdacc" ~dst:a4 [];
  halt b;
  Core.Extract.case ~extension:ext "dot_mac" (Wutil.assemble b)

let mac_widths =
  Wutil.once (fun () ->
      Core.Explore.candidate ~name:"soft" (dot_soft ())
      :: List.map
           (fun w ->
             Core.Explore.candidate
               ~name:(Printf.sprintf "mac_w%d" w)
               (dot_mac (Tie_lib.mac_ext_width w)))
           [ 16; 24; 32; 40; 48 ])

let table = [ ("rs", rs); ("rs-cache", rs_cache); ("mac-widths", mac_widths) ]

let names = List.map fst table

let find name = List.assoc_opt name table
