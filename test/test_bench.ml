(* Tests for the eight paper benchmarks: reference implementations against
   known closed-form values, spec-vs-reference agreement, determinism, and
   registry consistency. *)

open Vc_bench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let e5 = Vc_mem.Machine.xeon_e5

let engine_reducers spec =
  let r =
    Vc_core.Engine.run ~spec ~machine:e5
      ~strategy:(Vc_core.Policy.Hybrid { max_block = 64; reexpand = true })
      ()
  in
  r.Vc_core.Report.reducers

(* Minor words per task of [Engine.run], measured around the call. *)
let engine_words_per_task ~spec ~strategy =
  let before = Gc.minor_words () in
  let r = Vc_core.Engine.run ~spec ~machine:e5 ~strategy () in
  (Gc.minor_words () -. before) /. float_of_int r.Vc_core.Report.tasks

(* ------------------------------------------------------------------ *)
(* rng                                                                 *)

let test_rng_mix32_deterministic () =
  check_int "deterministic" (Rng.mix32 12345 3) (Rng.mix32 12345 3);
  check_bool "site changes hash" true (Rng.mix32 12345 0 <> Rng.mix32 12345 1);
  check_bool "state changes hash" true (Rng.mix32 1 0 <> Rng.mix32 2 0);
  check_bool "in range" true (Rng.mix32 999 7 >= 0 && Rng.mix32 999 7 < 1 lsl 31)

let rng_mix32_range =
  QCheck.Test.make ~name:"mix32 stays in [0, 2^31)" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (s, i) ->
      let h = Rng.mix32 s i in
      h >= 0 && h < 1 lsl 31)

let test_rng_stream () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Rng.int a ~bound:1000) in
  let ys = List.init 20 (fun _ -> Rng.int b ~bound:1000) in
  check_bool "same seed same stream" true (xs = ys);
  check_bool "bounds respected" true (List.for_all (fun x -> x >= 0 && x < 1000) xs);
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int a ~bound:0))

(* ------------------------------------------------------------------ *)
(* fib                                                                 *)

let test_fib_reference () =
  Alcotest.(check (list int)) "fib 0..12"
    [ 0; 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144 ]
    (List.init 13 (fun n -> Fib.reference { Fib.n }))

let test_fib_spec_runs () =
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("result", 610) ]
    (engine_reducers (Fib.spec { Fib.n = 15 }))

let test_fib_dsl_agrees () =
  let program, args = Fib.dsl { Fib.n = 14 } in
  let out = Vc_lang.Interp.run_validated program args in
  check_int "dsl = native" (Fib.reference { Fib.n = 14 })
    (List.assoc "result" out.Vc_lang.Interp.reducers)

(* ------------------------------------------------------------------ *)
(* binomial                                                            *)

let test_binomial_reference () =
  check_int "C(10,3)" 120 (Binomial.reference { Binomial.n = 10; k = 3 });
  check_int "C(12,6)" 924 (Binomial.reference { Binomial.n = 12; k = 6 });
  check_int "C(7,0)" 1 (Binomial.reference { Binomial.n = 7; k = 0 });
  check_int "C(7,7)" 1 (Binomial.reference { Binomial.n = 7; k = 7 })

let binomial_symmetry =
  QCheck.Test.make ~name:"C(n,k) = C(n,n-k)" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 0 16))
    (fun (n, k) ->
      let k = k mod (n + 1) in
      Binomial.reference { Binomial.n; k } = Binomial.reference { Binomial.n; k = n - k })

let test_binomial_spec_runs () =
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("result", 924) ]
    (engine_reducers (Binomial.spec { Binomial.n = 12; k = 6 }))

let test_binomial_dsl_agrees () =
  let program, args = Binomial.dsl { Binomial.n = 10; k = 4 } in
  let out = Vc_lang.Interp.run_validated program args in
  check_int "dsl = native" 210 (List.assoc "result" out.Vc_lang.Interp.reducers)

(* ------------------------------------------------------------------ *)
(* parentheses                                                         *)

let test_parentheses_reference () =
  Alcotest.(check (list int)) "catalan 0..9"
    [ 1; 1; 2; 5; 14; 42; 132; 429; 1430; 4862 ]
    (List.init 10 (fun pairs -> Parentheses.reference { Parentheses.pairs }))

let test_parentheses_spec_runs () =
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("result", 1430) ]
    (engine_reducers (Parentheses.spec { Parentheses.pairs = 8 }))

let test_parentheses_dsl_agrees () =
  let program, args = Parentheses.dsl { Parentheses.pairs = 7 } in
  let out = Vc_lang.Interp.run_validated program args in
  check_int "dsl = native" 429 (List.assoc "result" out.Vc_lang.Interp.reducers)

(* ------------------------------------------------------------------ *)
(* knapsack                                                            *)

let brute_force_knapsack p =
  let weights, values = Knapsack.items p in
  let cap = Knapsack.capacity p in
  let n = Array.length weights in
  let rec go i c v =
    if i = n then if c >= 0 then v else min_int
    else max (go (i + 1) (c - weights.(i)) (v + values.(i))) (go (i + 1) c v)
  in
  go 0 cap 0

let knapsack_dp_matches_brute_force =
  QCheck.Test.make ~name:"knapsack DP = brute force" ~count:30
    QCheck.(pair (int_range 4 12) (int_range 0 1000))
    (fun (n, seed) ->
      let p = { Knapsack.n; capacity_ratio = 0.5; seed } in
      Knapsack.reference p = brute_force_knapsack p)

let test_knapsack_spec_runs () =
  let p = { Knapsack.n = 12; capacity_ratio = 0.5; seed = 9 } in
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("best", Knapsack.reference p) ]
    (engine_reducers (Knapsack.spec p))

let test_knapsack_tree_is_balanced () =
  let p = { Knapsack.n = 10; capacity_ratio = 0.5; seed = 2 } in
  let r = Vc_core.Seq_exec.run ~spec:(Knapsack.spec p) ~machine:e5 () in
  (* perfect binary tree: 2^(n+1) - 1 tasks, base cases only at depth n *)
  check_int "tasks" ((1 lsl 11) - 1) r.Vc_core.Report.tasks;
  check_int "base tasks" (1 lsl 10) r.Vc_core.Report.base_tasks;
  Array.iteri
    (fun depth (tasks, base) ->
      check_int (Printf.sprintf "width at %d" depth) (1 lsl depth) tasks;
      check_int
        (Printf.sprintf "base at %d" depth)
        (if depth = 10 then 1 lsl 10 else 0)
        base)
    r.Vc_core.Report.levels

(* ------------------------------------------------------------------ *)
(* nqueens                                                             *)

let test_nqueens_reference () =
  for n = 1 to 10 do
    check_int
      (Printf.sprintf "%d-queens" n)
      Nqueens.known_solutions.(n)
      (Nqueens.reference { Nqueens.n })
  done

let test_nqueens_spec_runs () =
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("solutions", 40) ]
    (engine_reducers (Nqueens.spec { Nqueens.n = 7 }))

(* The spawn-site probe ([attacks]) runs n times per task; it must not
   allocate a closure per call. *)
let test_nqueens_engine_allocation () =
  let per_task =
    engine_words_per_task ~spec:(Nqueens.spec { Nqueens.n = 10 })
      ~strategy:(Vc_core.Policy.Hybrid { max_block = 4096; reexpand = true })
  in
  if per_task > 20.0 then
    Alcotest.failf "Engine nqueens: %.1f minor words per task (bound 20)" per_task

(* ------------------------------------------------------------------ *)
(* graphcol                                                            *)

let test_graphcol_chromatic_known () =
  (* triangle: 3*2*1 = 6 proper 3-colorings *)
  let triangle = [| (0, 1); (1, 2); (0, 2) |] in
  Alcotest.(check (list (pair string int)))
    "triangle" [ ("colorings", 6) ]
    (engine_reducers (Graphcol.spec_of_edges ~colors:3 ~vertices:3 triangle));
  (* path P4: k(k-1)^3 = 3*8 = 24 *)
  let path = [| (0, 1); (1, 2); (2, 3) |] in
  Alcotest.(check (list (pair string int)))
    "path" [ ("colorings", 24) ]
    (engine_reducers (Graphcol.spec_of_edges ~colors:3 ~vertices:4 path));
  (* cycle C4: (k-1)^4 + (k-1) = 16 + 2 = 18 *)
  let cycle = [| (0, 1); (1, 2); (2, 3); (0, 3) |] in
  Alcotest.(check (list (pair string int)))
    "cycle" [ ("colorings", 18) ]
    (engine_reducers (Graphcol.spec_of_edges ~colors:3 ~vertices:4 cycle));
  (* K4 with 2 colors: none *)
  let k4 = [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) |] in
  Alcotest.(check (list (pair string int)))
    "K4 2-coloring" [ ("colorings", 0) ]
    (engine_reducers (Graphcol.spec_of_edges ~colors:2 ~vertices:4 k4))

let test_graphcol_graph_generator () =
  let p = { Graphcol.vertices = 12; edges = 20; colors = 3; seed = 5 } in
  let g = Graphcol.graph p in
  check_int "edge count" 20 (Array.length g);
  Array.iter
    (fun (u, v) ->
      check_bool "no self loop" true (u <> v);
      check_bool "in range" true (u >= 0 && u < 12 && v >= 0 && v < 12))
    g;
  let sorted = Array.to_list g |> List.sort compare in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  check_bool "no duplicate edges" true (no_dup sorted);
  check_bool "deterministic" true (g = Graphcol.graph p)

let test_graphcol_spec_matches_reference () =
  let p = { Graphcol.vertices = 12; edges = 20; colors = 3; seed = 5 } in
  Alcotest.(check (list (pair string int)))
    "engine agrees"
    [ ("colorings", Graphcol.reference p) ]
    (engine_reducers (Graphcol.spec p))

(* ------------------------------------------------------------------ *)
(* uts                                                                 *)

let test_uts_determinism () =
  let p = { Uts.b0 = 30; m = 3; q = 0.3; seed = 17 } in
  check_int "same tree twice" (Uts.reference_nodes p) (Uts.reference_nodes p);
  check_bool "different seeds differ" true
    (Uts.reference_nodes p <> Uts.reference_nodes { p with Uts.seed = 18 })

let test_uts_spec_matches_reference () =
  let p = { Uts.b0 = 30; m = 3; q = 0.3; seed = 17 } in
  let spec = Uts.spec p in
  let r = Vc_core.Seq_exec.run ~spec ~machine:e5 () in
  check_int "leaves" (Uts.reference p) (Vc_core.Report.reducer r "leaves");
  (* the root runs in the driver, so the kernel executes nodes - 1 tasks *)
  check_int "tasks" (Uts.reference_nodes p - 1) r.Vc_core.Report.tasks;
  Alcotest.(check (list (pair string int)))
    "engine agrees" r.Vc_core.Report.reducers
    (engine_reducers spec)

let test_uts_default_scale () =
  (* the scaled default mirrors the paper's 136K-node tree *)
  let nodes = Uts.reference_nodes Uts.default in
  check_bool "around 136K nodes" true (nodes > 100_000 && nodes < 200_000)

(* ------------------------------------------------------------------ *)
(* minmax                                                              *)

let test_minmax_known_tallies () =
  (* classic exhaustive tic-tac-toe game-tree outcome counts *)
  let o = Minmax.reference Minmax.default in
  check_int "x wins" 131184 o.Minmax.x_wins;
  check_int "o wins" 77904 o.Minmax.o_wins;
  check_int "draws" 46080 o.Minmax.draws

let test_minmax_value_is_draw () =
  check_int "3x3 is a draw" 0 (Minmax.minimax_value Minmax.default)

(* Every position reachable in play from the empty 3x3 board, expanding
   only non-terminal ones; maps each board to the player to move. *)
let reachable_boards () =
  let lines = Minmax.lines 3 in
  let seen = Hashtbl.create 8192 in
  let rec go board player =
    if not (Hashtbl.mem seen board) then begin
      Hashtbl.add seen (Array.copy board) player;
      if Minmax.winner ~lines board = 0 && not (Minmax.full board) then
        for i = 0 to 8 do
          if board.(i) = 0 then begin
            board.(i) <- player;
            go board (3 - player);
            board.(i) <- 0
          end
        done
    end
  in
  go (Array.make 9 0) 1;
  seen

(* The spec's callbacks read the block's cell columns directly; they must
   decide exactly what [winner]/[full] decide on the board. *)
let test_minmax_callbacks_match_boards () =
  let lines = Minmax.lines 3 in
  let spec = Minmax.spec Minmax.default in
  let boards = reachable_boards () in
  check_int "reachable positions" 5478 (Hashtbl.length boards);
  let blk =
    Vc_core.Block.create (Vc_core.Addr.create ()) ~schema:spec.Vc_core.Spec.schema
      ~isa:Vc_simd.Isa.sse42 ~capacity:1
  in
  Hashtbl.iter
    (fun board player ->
      Vc_core.Block.clear blk;
      Vc_core.Block.push blk (Array.append [| player |] board);
      let w = Minmax.winner ~lines board in
      let terminal = w <> 0 || Minmax.full board in
      check_bool "is_base" terminal (spec.Vc_core.Spec.is_base blk 0);
      if terminal then begin
        let reducers = Vc_core.Spec.make_reducers spec in
        spec.Vc_core.Spec.exec_base reducers blk 0;
        let outcome = match w with 1 -> "x_wins" | 2 -> "o_wins" | _ -> "draws" in
        List.iter
          (fun (name, v) -> check_int name (if name = outcome then 1 else 0) v)
          (Vc_lang.Reducer.values reducers)
      end)
    boards

(* The sequential executor's per-task path does not allocate (only the
   run's fixed set-up does): guards the cost model's hot path (VM hook,
   cache walk, frame copies, callbacks) against allocation creeping back. *)
let test_minmax_seq_exec_allocation () =
  let spec = Minmax.spec Minmax.default in
  let before = Gc.minor_words () in
  let r = Vc_core.Seq_exec.run ~spec ~machine:e5 () in
  let per_task = (Gc.minor_words () -. before) /. float_of_int r.Vc_core.Report.tasks in
  if per_task > 8.0 then
    Alcotest.failf "Seq_exec minmax: %.1f minor words per task (bound 8)" per_task

(* At block 4 the engine runs minmax as many tiny levels; fault sites
   that formatted their detail strings on every level, armed or not,
   cost ~240 minor words per task there. *)
let test_minmax_engine_small_block_allocation () =
  let per_task =
    engine_words_per_task ~spec:(Minmax.spec Minmax.default)
      ~strategy:(Vc_core.Policy.Hybrid { max_block = 4; reexpand = false })
  in
  if per_task > 150.0 then
    Alcotest.failf "Engine minmax, block 4: %.1f minor words per task (bound 150)" per_task

let test_minmax_spec_runs () =
  let expected = Minmax.reference { Minmax.size = 3 } in
  let got = engine_reducers (Minmax.spec { Minmax.size = 3 }) in
  check_int "x wins" expected.Minmax.x_wins (List.assoc "x_wins" got);
  check_int "o wins" expected.Minmax.o_wins (List.assoc "o_wins" got);
  check_int "draws" expected.Minmax.draws (List.assoc "draws" got)

(* ------------------------------------------------------------------ *)
(* registry                                                            *)

let test_registry_complete () =
  Alcotest.(check (list string))
    "paper's Table 1 order"
    [ "knapsack"; "fib"; "parentheses"; "nqueens"; "graphcol"; "uts"; "binomial"; "minmax" ]
    Registry.names;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "zzz"))

let test_registry_specs_validate () =
  List.iter
    (fun (e : Registry.entry) ->
      match Vc_core.Spec.validate (e.Registry.spec ()) with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s: %s" e.Registry.name (String.concat "; " es))
    Registry.all

let test_registry_dsl_entries () =
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.dsl with
      | None -> ()
      | Some dsl ->
          List.iter
            (fun quick ->
              let program, roots = dsl ~quick in
              if roots = [] then
                Alcotest.failf "%s dsl (quick=%b): no roots" e.Registry.name quick;
              match Vc_lang.Validate.check program with
              | Ok _ -> ()
              | Error es ->
                  Alcotest.failf "%s dsl (quick=%b): %s" e.Registry.name quick
                    (String.concat "; " es))
            [ true; false ])
    Registry.all

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vc_bench"
    [
      ( "rng",
        [
          Alcotest.test_case "mix32 deterministic" `Quick test_rng_mix32_deterministic;
          Alcotest.test_case "stream" `Quick test_rng_stream;
        ]
        @ qsuite [ rng_mix32_range ] );
      ( "fib",
        [
          Alcotest.test_case "reference" `Quick test_fib_reference;
          Alcotest.test_case "spec" `Quick test_fib_spec_runs;
          Alcotest.test_case "dsl" `Quick test_fib_dsl_agrees;
        ] );
      ( "binomial",
        [
          Alcotest.test_case "reference" `Quick test_binomial_reference;
          Alcotest.test_case "spec" `Quick test_binomial_spec_runs;
          Alcotest.test_case "dsl" `Quick test_binomial_dsl_agrees;
        ]
        @ qsuite [ binomial_symmetry ] );
      ( "parentheses",
        [
          Alcotest.test_case "catalan" `Quick test_parentheses_reference;
          Alcotest.test_case "spec" `Quick test_parentheses_spec_runs;
          Alcotest.test_case "dsl" `Quick test_parentheses_dsl_agrees;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "spec" `Quick test_knapsack_spec_runs;
          Alcotest.test_case "balanced tree" `Quick test_knapsack_tree_is_balanced;
        ]
        @ qsuite [ knapsack_dp_matches_brute_force ] );
      ( "nqueens",
        [
          Alcotest.test_case "known solutions" `Quick test_nqueens_reference;
          Alcotest.test_case "spec" `Quick test_nqueens_spec_runs;
          Alcotest.test_case "engine allocation" `Quick test_nqueens_engine_allocation;
        ] );
      ( "graphcol",
        [
          Alcotest.test_case "chromatic known graphs" `Quick test_graphcol_chromatic_known;
          Alcotest.test_case "graph generator" `Quick test_graphcol_graph_generator;
          Alcotest.test_case "spec vs reference" `Quick test_graphcol_spec_matches_reference;
        ] );
      ( "uts",
        [
          Alcotest.test_case "determinism" `Quick test_uts_determinism;
          Alcotest.test_case "spec vs reference" `Quick test_uts_spec_matches_reference;
          Alcotest.test_case "default scale" `Quick test_uts_default_scale;
        ] );
      ( "minmax",
        [
          Alcotest.test_case "known tallies" `Quick test_minmax_known_tallies;
          Alcotest.test_case "minimax value" `Quick test_minmax_value_is_draw;
          Alcotest.test_case "spec" `Quick test_minmax_spec_runs;
          Alcotest.test_case "callbacks = winner/full" `Quick test_minmax_callbacks_match_boards;
          Alcotest.test_case "seq_exec allocation" `Quick test_minmax_seq_exec_allocation;
          Alcotest.test_case "engine allocation at block 4" `Quick
            test_minmax_engine_small_block_allocation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "specs validate" `Quick test_registry_specs_validate;
          Alcotest.test_case "dsl entries validate" `Quick test_registry_dsl_entries;
        ] );
    ]
