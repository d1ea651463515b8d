(* Tests for the Tiny-C front end: lexer, parser and compiled-program
   behaviour on the simulator (including recursion, division and TIE
   intrinsics). *)

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Lexer ----------------------------------------------------------------- *)

let test_lexer_basics () =
  let toks = List.map fst (Cc.Lexer.tokenize "int x = 0x1f + 'A';") in
  check Alcotest.bool "token stream" true
    (toks
     = [ Cc.Lexer.Kw_int; Cc.Lexer.Ident "x"; Cc.Lexer.Assign;
         Cc.Lexer.Int_lit 31; Cc.Lexer.Plus; Cc.Lexer.Int_lit 65;
         Cc.Lexer.Semicolon; Cc.Lexer.Eof ])

let test_lexer_comments_and_lines () =
  let toks = Cc.Lexer.tokenize "a // x\n/* b\nc */ d" in
  (match toks with
   | [ (Cc.Lexer.Ident "a", 1); (Cc.Lexer.Ident "d", 3);
       (Cc.Lexer.Eof, 3) ] ->
     ()
   | _ -> fail "comments not skipped or lines wrong");
  match Cc.Lexer.tokenize "@" with
  | exception Cc.Lexer.Lex_error (1, _) -> ()
  | _ -> fail "bad character accepted"

(* --- Parser ---------------------------------------------------------------- *)

let test_parser_precedence () =
  let prog = Cc.Parser.parse "int main() { return 2 + 3 * 4; }" in
  match prog.Cc.Ast.funcs with
  | [ { Cc.Ast.body = [ Cc.Ast.Return (Some e) ]; _ } ] ->
    check Alcotest.string "tree" "(2 + (3 * 4))"
      (Format.asprintf "%a" Cc.Ast.pp_expr e)
  | _ -> fail "unexpected structure"

let test_parser_globals () =
  let prog =
    Cc.Parser.parse "int a; int t[4] = {1, 2, 3, 4}; int main() { return 0; }"
  in
  check Alcotest.int "two globals" 2 (List.length prog.Cc.Ast.globals);
  match prog.Cc.Ast.globals with
  | [ g1; g2 ] ->
    check Alcotest.int "scalar size" 1 g1.Cc.Ast.gsize;
    check Alcotest.int "array size" 4 g2.Cc.Ast.gsize;
    check (Alcotest.list Alcotest.int) "initialisers" [ 1; 2; 3; 4 ]
      g2.Cc.Ast.ginit
  | _ -> fail "globals missing"

let test_parser_errors () =
  let expect src =
    match Cc.Parser.parse src with
    | exception Cc.Parser.Parse_error _ -> ()
    | _ -> fail ("parser accepted " ^ src)
  in
  expect "int main() { return 1 +; }";
  expect "int main() { if (x { } }";
  expect "int 3x;";
  expect "int main() { int t[2]; }"  (* local arrays unsupported *)

(* --- Execution ------------------------------------------------------------- *)

let run ?extension src =
  let compiled = Cc.Codegen.compile_source src in
  let cpu, outcome =
    Sim.Backend.run_program ?extension compiled.Cc.Codegen.c_asm
  in
  (match outcome with
   | Sim.Cpu.Halted -> ()
   | Sim.Cpu.Watchdog -> fail "compiled program hit the watchdog");
  (compiled, cpu)

let result cpu = Sim.Cpu.reg cpu (Isa.Reg.a 10)

let returns ?extension expected src =
  let _, cpu = run ?extension src in
  check Alcotest.int src (expected land 0xffff_ffff) (result cpu)

let test_return_arith () =
  returns 14 "int main() { return 2 + 3 * 4; }";
  returns 1 "int main() { return 10 % 3; }";
  returns 3 "int main() { return 10 / 3; }";
  returns (-6) "int main() { return 2 * -3; }";
  returns 20 "int main() { return 5 << 2; }";
  returns (-2) "int main() { return -8 >> 2; }";
  returns 6 "int main() { return 0x5 ^ 0x3; }"

let test_comparisons () =
  returns 1 "int main() { return 3 < 4; }";
  returns 0 "int main() { return 4 < 3; }";
  returns 1 "int main() { return -1 < 0; }";      (* signed compare *)
  returns 1 "int main() { return 5 >= 5; }";
  returns 1 "int main() { return 3 != 4; }";
  returns 0 "int main() { return !1; }";
  returns 1 "int main() { return 1 && 2; }";
  returns 0 "int main() { return 1 && 0; }";
  returns 1 "int main() { return 0 || 3; }"

let test_locals_and_loops () =
  returns 55
    "int main() { int s; int i; s = 0; i = 1;\n\
     while (i <= 10) { s = s + i; i = i + 1; } return s; }";
  returns 45
    "int main() { int s; s = 0;\n\
     for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }";
  returns 7 "int main() { int x = 3; if (x > 2) { x = 7; } return x; }";
  returns 9
    "int main() { int x = 1; if (x > 2) { x = 7; } else { x = 9; }\n\
     return x; }"

let test_globals_and_arrays () =
  let src =
    "int total;\n\
     int data[5] = {10, 20, 30, 40, 50};\n\
     int main() {\n\
    \  total = 0;\n\
    \  for (int i = 0; i < 5; i = i + 1) { total = total + data[i]; }\n\
    \  data[0] = total;\n\
    \  return total;\n\
     }"
  in
  let compiled, cpu = run src in
  check Alcotest.int "returned sum" 150 (result cpu);
  let mem = Sim.Cpu.memory cpu in
  check Alcotest.int "global updated" 150
    (Sim.Memory.load32 mem (Cc.Codegen.global_address compiled "total"));
  check Alcotest.int "array store" 150
    (Sim.Memory.load32 mem (Cc.Codegen.global_address compiled "data"))

let test_functions_and_recursion () =
  returns 21
    "int add(int a, int b) { return a + b; }\n\
     int main() { return add(add(1, 2), add(3, add(7, 8))); }";
  returns 610
    "int fib(int n) { if (n < 2) { return n; } \n\
    \  return fib(n - 1) + fib(n - 2); }\n\
     int main() { return fib(15); }";
  returns 3628800
    "int fact(int n) { if (n == 0) { return 1; } return n * fact(n - 1); }\n\
     int main() { return fact(10); }"

let test_division_routine () =
  returns (1234567 / 89) "int main() { return 1234567 / 89; }";
  returns (1234567 mod 89) "int main() { return 1234567 % 89; }";
  returns 0 "int main() { return 5 / 7; }";
  returns 5 "int main() { return 5 % 7; }"

let test_short_circuit_side_effects () =
  (* The right operand must not run when the left decides. *)
  let src =
    "int hits;\n\
     int bump() { hits = hits + 1; return 1; }\n\
     int main() { hits = 0;\n\
    \  int a = 0 && bump();\n\
    \  int b = 1 || bump();\n\
    \  return hits * 10 + a + b; }"
  in
  returns 1 src

let test_tie_intrinsic () =
  let src =
    "int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n\
     int main() {\n\
    \  int i;\n\
    \  __tie_clracc();\n\
    \  for (i = 0; i < 8; i = i + 1) { __tie_mac(data[i], data[i]); }\n\
    \  return __tie_rdacc();\n\
     }"
  in
  (* sum of squares 1..8 = 204 *)
  returns ~extension:Workloads.Tie_lib.mac_ext 204 src

let test_tie_intrinsic_immediate () =
  let src =
    "int main() { __tie_clrsyn();\n\
    \  __tie_gfmacc(7, 2);\n\
    \  __tie_gfmacc(3, 2);\n\
    \  return __tie_rdsyn(); }"
  in
  (* Horner: ((0*2)^7)*2 ^ 3 = gfmul(7,2) ^ 3 = 14 ^ 3 = 13 *)
  returns ~extension:Workloads.Tie_lib.gfmac_ext 13 src

let test_codegen_errors () =
  let expect src =
    match Cc.Codegen.compile_source src with
    | exception Cc.Codegen.Codegen_error _ -> ()
    | _ -> fail ("codegen accepted " ^ src)
  in
  expect "int f() { return 0; }";  (* no main *)
  expect "int main() { return ghost; }";
  expect "int main() { return ghost[0]; }";
  expect "int f(int a) { return a; } int main() { return f(1, 2); }";
  expect "int main() { return nofunc(); }";
  expect
    "int f(int a, int b, int c, int d, int e) { return 0; }\n\
     int main() { return 0; }"

let test_compiled_energy_flow () =
  (* Compiled code feeds the full estimation flow like any program. *)
  let src =
    "int acc;\n\
     int main() { acc = 0;\n\
    \  for (int i = 0; i < 64; i = i + 1) { acc = acc + i * i; }\n\
    \  return acc; }"
  in
  let compiled = Cc.Codegen.compile_source src in
  let case = Core.Extract.case "compiled" compiled.Cc.Codegen.c_asm in
  let profile = Core.Extract.profile case in
  check Alcotest.bool "profiled" true
    (Core.Extract.variable profile Core.Variables.Arith > 100.0);
  let energy, _ =
    Power.Estimator.estimate_program compiled.Cc.Codegen.c_asm
  in
  check Alcotest.bool "positive reference energy" true (energy > 0.0)

(* Differential property: random arithmetic expressions evaluated by the
   compiled program and by an OCaml oracle. *)
let gen_arith_expr =
  let open QCheck.Gen in
  let leaf = map (fun v -> Cc.Ast.Const v) (int_range (-1000) 1000) in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 3,
              map3
                (fun op a b -> Cc.Ast.Binop (op, a, b))
                (oneofl
                   [ Cc.Ast.Add; Cc.Ast.Sub; Cc.Ast.Mul; Cc.Ast.And;
                     Cc.Ast.Or; Cc.Ast.Xor ])
                (self (depth - 1))
                (self (depth - 1)) );
            (1, map (fun e -> Cc.Ast.Unop (Cc.Ast.Neg, e)) (self (depth - 1)))
          ])
    4

let rec oracle_eval e =
  let u32 v = v land 0xffff_ffff in
  match e with
  | Cc.Ast.Const v -> u32 v
  | Cc.Ast.Unop (Cc.Ast.Neg, e) -> u32 (-oracle_eval e)
  | Cc.Ast.Binop (op, a, b) ->
    let x = oracle_eval a and y = oracle_eval b in
    u32
      (match op with
       | Cc.Ast.Add -> x + y
       | Cc.Ast.Sub -> x - y
       | Cc.Ast.Mul -> x * y
       | Cc.Ast.And -> x land y
       | Cc.Ast.Or -> x lor y
       | Cc.Ast.Xor -> x lxor y
       | _ -> assert false)
  | _ -> assert false

let qcheck_compiled_arith =
  QCheck.Test.make ~name:"compiled expressions match the oracle" ~count:80
    (QCheck.make gen_arith_expr
       ~print:(Format.asprintf "%a" Cc.Ast.pp_expr))
    (fun e ->
      let prog =
        { Cc.Ast.globals = [];
          funcs =
            [ { Cc.Ast.fname = "main"; params = [];
                body = [ Cc.Ast.Return (Some e) ] } ] }
      in
      let compiled = Cc.Codegen.compile prog in
      let cpu, outcome = Sim.Backend.run_program compiled.Cc.Codegen.c_asm in
      outcome = Sim.Cpu.Halted && result cpu = oracle_eval e)

(* --- Interpreter + whole-program differential testing ----------------------- *)

let test_interpreter_basics () =
  let prog =
    Cc.Parser.parse
      "int g; int arr[4] = {5, 6, 7, 8};\n\
       int twice(int x) { return x * 2; }\n\
       int main() { g = twice(arr[2]); arr[0] = g + 1; return g; }"
  in
  let r = Cc.Interp.run prog in
  check Alcotest.int "return" 14 r.Cc.Interp.r_return;
  check Alcotest.int "global" 14 (List.assoc "g" r.Cc.Interp.r_globals).(0);
  check Alcotest.int "array write" 15
    (List.assoc "arr" r.Cc.Interp.r_globals).(0)

let test_interpreter_fuel () =
  let prog = Cc.Parser.parse "int main() { while (1) { } return 0; }" in
  match Cc.Interp.run ~fuel:1000 prog with
  | exception Cc.Interp.Interp_error _ -> ()
  | _ -> fail "non-terminating program interpreted"

(* Random whole programs: locals, array traffic, branches, a bounded
   loop and a helper function; compiled-vs-interpreted equivalence. *)
let gen_small_expr vars =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (2, map (fun v -> Cc.Ast.Const v) (int_range (-99) 99));
        (3, map (fun v -> Cc.Ast.Var v) (oneofl vars));
        ( 1,
          map
            (fun e -> Cc.Ast.Index ("arr", Cc.Ast.Binop (Cc.Ast.And, e, Cc.Ast.Const 7)))
            (map (fun v -> Cc.Ast.Var v) (oneofl vars)) ) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 3,
              map3
                (fun op a b -> Cc.Ast.Binop (op, a, b))
                (oneofl
                   [ Cc.Ast.Add; Cc.Ast.Sub; Cc.Ast.Mul; Cc.Ast.Xor;
                     Cc.Ast.And; Cc.Ast.Or; Cc.Ast.Lt; Cc.Ast.Ge;
                     Cc.Ast.Eq ])
                (self (depth - 1))
                (self (depth - 1)) ) ])
    3

let gen_small_stmt =
  let vars = [ "x"; "y"; "z" ] in
  let open QCheck.Gen in
  frequency
    [ ( 4,
        map2 (fun v e -> Cc.Ast.Assign (v, e)) (oneofl vars)
          (gen_small_expr vars) );
      ( 2,
        map2
          (fun i e ->
            Cc.Ast.Store ("arr", Cc.Ast.Const (i land 7), e))
          (int_bound 7) (gen_small_expr vars) );
      ( 2,
        map3
          (fun c t e -> Cc.Ast.If (c, [ t ], [ e ]))
          (gen_small_expr vars)
          (map2 (fun v e -> Cc.Ast.Assign (v, e)) (oneofl vars)
             (gen_small_expr vars))
          (map2 (fun v e -> Cc.Ast.Assign (v, e)) (oneofl vars)
             (gen_small_expr vars)) );
      ( 1,
        map2
          (fun n body ->
            Cc.Ast.For
              ( Some (Cc.Ast.Decl ("i", Some (Cc.Ast.Const 0))),
                Some (Cc.Ast.Binop (Cc.Ast.Lt, Cc.Ast.Var "i", Cc.Ast.Const n)),
                Some
                  (Cc.Ast.Assign
                     ("i", Cc.Ast.Binop (Cc.Ast.Add, Cc.Ast.Var "i", Cc.Ast.Const 1))),
                [ body ] ))
          (int_range 1 6)
          (map2 (fun v e -> Cc.Ast.Assign (v, e)) (oneofl vars)
             (gen_small_expr (vars @ [ "i" ]))) ) ]

let gen_program =
  let open QCheck.Gen in
  map2
    (fun stmts final ->
      { Cc.Ast.globals =
          [ { Cc.Ast.gname = "g"; gsize = 1; ginit = [ 17 ] };
            { Cc.Ast.gname = "arr"; gsize = 8;
              ginit = [ 3; 1; 4; 1; 5; 9; 2; 6 ] } ];
        funcs =
          [ { Cc.Ast.fname = "helper"; params = [ "a"; "b" ];
              body =
                [ Cc.Ast.Return
                    (Some
                       (Cc.Ast.Binop
                          (Cc.Ast.Add, Cc.Ast.Var "a",
                           Cc.Ast.Binop (Cc.Ast.Mul, Cc.Ast.Var "b",
                                         Cc.Ast.Const 3)))) ] };
            { Cc.Ast.fname = "main"; params = [];
              body =
                [ Cc.Ast.Decl ("x", Some (Cc.Ast.Const 11));
                  Cc.Ast.Decl ("y", Some (Cc.Ast.Const (-7)));
                  Cc.Ast.Decl
                    ("z",
                     Some (Cc.Ast.Call ("helper", [ Cc.Ast.Const 2; Cc.Ast.Var "x" ]))) ]
                @ stmts
                @ [ Cc.Ast.Return (Some final) ] } ] })
    (list_size (int_range 2 10) gen_small_stmt)
    (gen_small_expr [ "x"; "y"; "z" ])

let qcheck_compiled_program_matches_interpreter =
  QCheck.Test.make
    ~name:"compiled programs match the interpreter (incl. globals)"
    ~count:120 (QCheck.make gen_program)
    (fun prog ->
      let expected = Cc.Interp.run prog in
      let compiled = Cc.Codegen.compile prog in
      let cpu, outcome = Sim.Backend.run_program compiled.Cc.Codegen.c_asm in
      outcome = Sim.Cpu.Halted
      && result cpu = expected.Cc.Interp.r_return
      && List.for_all
           (fun (name, arr) ->
             let base = Cc.Codegen.global_address compiled name in
             Array.for_all
               (fun ok -> ok)
               (Array.mapi
                  (fun i v ->
                    Sim.Memory.load32 (Sim.Cpu.memory cpu) (base + (4 * i))
                    = v)
                  arr))
           expected.Cc.Interp.r_globals)

(* Backend-equivalence property: a random Tiny-C program characterizes
   to the same run report on the interpreter and the threaded backend.
   Compared through the {!Core.Run_report} JSON round trip so the
   on-disk representation — what audits and dashboards consume — is
   what must agree; wall-clock fields and the backend stamp itself are
   the only legitimate differences, so they are pinned before
   comparison. *)
let report_on backend case =
  Sim.Backend.with_current backend @@ fun () ->
  let _, report = Core.Characterize.collect_with_report ~jobs:1 [ case ] in
  let pinned =
    { report with
      Core.Run_report.total_seconds = 0.0;
      sim_backend = "pinned";
      entries =
        List.map
          (fun (e : Core.Run_report.entry) ->
            { e with Core.Run_report.wall_seconds = 0.0 })
          report.Core.Run_report.entries }
  in
  Core.Run_report.of_json (Core.Run_report.to_json pinned)

let qcheck_backends_report_identically =
  QCheck.Test.make
    ~name:"random Tiny-C programs report identically on both backends"
    ~count:25 (QCheck.make gen_program)
    (fun prog ->
      let compiled = Cc.Codegen.compile prog in
      let case = Core.Extract.case "qcheck" compiled.Cc.Codegen.c_asm in
      report_on Sim.Backend.Interp case
      = report_on Sim.Backend.Threaded case)

let () =
  Alcotest.run "cc"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick
            test_lexer_comments_and_lines ] );
      ( "parser",
        [ Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "globals" `Quick test_parser_globals;
          Alcotest.test_case "errors" `Quick test_parser_errors ] );
      ( "execution",
        [ Alcotest.test_case "arithmetic" `Quick test_return_arith;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "locals/loops" `Quick test_locals_and_loops;
          Alcotest.test_case "globals/arrays" `Quick
            test_globals_and_arrays;
          Alcotest.test_case "functions/recursion" `Quick
            test_functions_and_recursion;
          Alcotest.test_case "division" `Quick test_division_routine;
          Alcotest.test_case "short circuit" `Quick
            test_short_circuit_side_effects;
          Alcotest.test_case "tie intrinsics" `Quick test_tie_intrinsic;
          Alcotest.test_case "tie immediate" `Quick
            test_tie_intrinsic_immediate;
          Alcotest.test_case "codegen errors" `Quick test_codegen_errors;
          Alcotest.test_case "energy flow" `Quick
            test_compiled_energy_flow;
          QCheck_alcotest.to_alcotest qcheck_compiled_arith ] );
      ( "interpreter",
        [ Alcotest.test_case "basics" `Quick test_interpreter_basics;
          Alcotest.test_case "fuel" `Quick test_interpreter_fuel;
          QCheck_alcotest.to_alcotest
            qcheck_compiled_program_matches_interpreter ] );
      ( "backends",
        [ QCheck_alcotest.to_alcotest qcheck_backends_report_identically ] ) ]
