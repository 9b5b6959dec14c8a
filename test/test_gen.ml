(* Tests for the graph generators: classic families, random models, the
   regular/configuration generators and the explicit expanders. *)

module Graph = Ewalk_graph.Graph
module Traversal = Ewalk_graph.Traversal
module Girth = Ewalk_graph.Girth
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_random = Ewalk_graph.Gen_random
module Gen_regular = Ewalk_graph.Gen_regular
module Gen_expander = Ewalk_graph.Gen_expander
module Rng = Ewalk_prng.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* -- classic families ------------------------------------------------------ *)

let classic_cycle () =
  let g = Gen_classic.cycle 8 in
  Alcotest.(check int) "n" 8 (Graph.n g);
  Alcotest.(check int) "m" 8 (Graph.m g);
  Alcotest.(check bool) "2-regular" true
    (Graph.is_regular g && Graph.max_degree g = 2);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "too small" (Invalid_argument "Gen_classic.cycle: n < 3")
    (fun () -> ignore (Gen_classic.cycle 2))

let classic_path_star () =
  let p = Gen_classic.path 6 in
  Alcotest.(check int) "path edges" 5 (Graph.m p);
  Alcotest.(check bool) "path connected" true (Traversal.is_connected p);
  let s = Gen_classic.star 6 in
  Alcotest.(check int) "star hub" 5 (Graph.degree s 0);
  Alcotest.(check int) "star m" 5 (Graph.m s)

let classic_complete () =
  let g = Gen_classic.complete 6 in
  Alcotest.(check int) "m = n(n-1)/2" 15 (Graph.m g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "5-regular" true
    (Graph.is_regular g && Graph.max_degree g = 5)

let classic_complete_bipartite () =
  let g = Gen_classic.complete_bipartite 3 4 in
  Alcotest.(check int) "m = ab" 12 (Graph.m g);
  Alcotest.(check bool) "bipartite" true (Traversal.is_bipartite g);
  Alcotest.(check int) "left degree" 4 (Graph.degree g 0);
  Alcotest.(check int) "right degree" 3 (Graph.degree g 3)

let classic_hypercube () =
  let g = Gen_classic.hypercube 5 in
  Alcotest.(check int) "n = 2^5" 32 (Graph.n g);
  Alcotest.(check int) "m = r 2^(r-1)" 80 (Graph.m g);
  Alcotest.(check bool) "5-regular" true
    (Graph.is_regular g && Graph.max_degree g = 5);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "bipartite" true (Traversal.is_bipartite g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let classic_torus () =
  let g = Gen_classic.torus2d 4 5 in
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "even degree" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "side < 3"
    (Invalid_argument "Gen_classic.torus2d: sides < 3") (fun () ->
      ignore (Gen_classic.torus2d 2 5))

let classic_grid () =
  let g = Gen_classic.grid2d 3 4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 *)
  Alcotest.(check int) "m" 17 (Graph.m g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0)

let classic_binary_tree () =
  let g = Gen_classic.binary_tree 3 in
  Alcotest.(check int) "n = 2^4 - 1" 15 (Graph.n g);
  Alcotest.(check int) "m = n - 1" 14 (Graph.m g);
  Alcotest.(check bool) "acyclic" true (Girth.girth g = None)

let classic_lollipop_barbell () =
  let l = Gen_classic.lollipop 5 3 in
  Alcotest.(check int) "lollipop n" 8 (Graph.n l);
  Alcotest.(check int) "lollipop m" 13 (Graph.m l);
  Alcotest.(check bool) "lollipop connected" true (Traversal.is_connected l);
  let b = Gen_classic.barbell 4 2 in
  Alcotest.(check int) "barbell n" 10 (Graph.n b);
  Alcotest.(check bool) "barbell connected" true (Traversal.is_connected b);
  Alcotest.(check int) "barbell m" 15 (Graph.m b)

let classic_petersen () =
  let g = Gen_classic.petersen () in
  Alcotest.(check int) "n" 10 (Graph.n g);
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check bool) "3-regular" true
    (Graph.is_regular g && Graph.max_degree g = 3);
  Alcotest.(check (option int)) "girth 5" (Some 5) (Girth.girth g);
  Alcotest.(check int) "diameter 2" 2 (Traversal.diameter g)

let classic_double_cycle () =
  let g = Gen_classic.double_cycle 5 in
  Alcotest.(check int) "m doubled" 10 (Graph.m g);
  Alcotest.(check bool) "4-regular even" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check int) "parallel pairs" 5 (Graph.count_parallel_edges g)

(* -- random models ---------------------------------------------------------- *)

let gnp_extremes () =
  let rng = Rng.create ~seed:1 () in
  let empty = Gen_random.gnp rng 10 0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.m empty);
  let full = Gen_random.gnp rng 10 1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.m full);
  Alcotest.check_raises "bad p"
    (Invalid_argument "Gen_random.gnp: p out of [0,1]") (fun () ->
      ignore (Gen_random.gnp rng 5 1.5))

let gnp_edge_count () =
  let rng = Rng.create ~seed:2 () in
  let n = 500 and p = 0.02 in
  let expected = float_of_int (n * (n - 1) / 2) *. p in
  let total = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    total := !total + Graph.m (Gen_random.gnp rng n p)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f ~ %.0f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.1 *. expected);
  Alcotest.(check bool) "simple" true
    (Graph.is_simple (Gen_random.gnp rng 100 0.05))

let gnm_exact () =
  let rng = Rng.create ~seed:3 () in
  let g = Gen_random.gnm rng 30 50 in
  Alcotest.(check int) "exact m" 50 (Graph.m g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.check_raises "too many"
    (Invalid_argument "Gen_random.gnm: too many edges") (fun () ->
      ignore (Gen_random.gnm rng 4 7))

let geometric_radius () =
  let rng = Rng.create ~seed:4 () in
  let g0 = Gen_random.random_geometric rng 50 0.0 in
  Alcotest.(check int) "radius 0" 0 (Graph.m g0);
  let g_all = Gen_random.random_geometric rng 30 2.0 in
  Alcotest.(check int) "radius sqrt2 covers square" 435 (Graph.m g_all);
  let g = Gen_random.random_geometric rng 200 0.1 in
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let geometric_matches_bruteforce () =
  (* The grid-bucketed generator must agree with the O(n^2) definition. *)
  let rng = Rng.create ~seed:5 () in
  let g = Gen_random.random_geometric rng 100 0.17 in
  (* Rebuild by brute force using the same points is impossible from the
     outside; instead check the triangle inequality implication: neighbours
     of neighbours at distance <= 2r. Weak but structural. *)
  Alcotest.(check bool) "not absurdly dense" true
    (Graph.m g < 100 * 99 / 2);
  Graph.iter_edges g (fun _ u v ->
      Alcotest.(check bool) "no self loop" true (u <> v))

(* -- regular generators ----------------------------------------------------- *)

let pairing_multigraph_test () =
  let rng = Rng.create ~seed:6 () in
  let g = Gen_regular.pairing_multigraph rng 100 3 in
  Alcotest.(check bool) "3-regular (with multiplicity)" true
    (Graph.is_regular g && Graph.max_degree g = 3);
  Alcotest.check_raises "odd total"
    (Invalid_argument "Gen_regular: odd degree sum") (fun () ->
      ignore (Gen_regular.pairing_multigraph rng 3 3))

let random_regular_simple () =
  let rng = Rng.create ~seed:7 () in
  List.iter
    (fun (n, r) ->
      let g = Gen_regular.random_regular rng n r in
      Alcotest.(check bool)
        (Printf.sprintf "r=%d regular" r)
        true
        (Graph.is_regular g && Graph.max_degree g = r);
      Alcotest.(check bool) "simple" true (Graph.is_simple g))
    [ (50, 3); (50, 4); (100, 7); (60, 16) ]

let random_regular_rejection_test () =
  let rng = Rng.create ~seed:8 () in
  let g = Gen_regular.random_regular_rejection rng 60 3 in
  Alcotest.(check bool) "simple regular" true
    (Graph.is_simple g && Graph.is_regular g && Graph.max_degree g = 3)

let random_regular_validation () =
  let rng = Rng.create ~seed:9 () in
  Alcotest.check_raises "odd n*r"
    (Invalid_argument "Gen_regular.random_regular: n * r is odd") (fun () ->
      ignore (Gen_regular.random_regular rng 5 3));
  Alcotest.check_raises "r >= n"
    (Invalid_argument "Gen_regular.random_regular: r >= n has no simple graph")
    (fun () -> ignore (Gen_regular.random_regular rng 4 4))

let random_regular_connected_test () =
  let rng = Rng.create ~seed:10 () in
  for _ = 1 to 5 do
    let g = Gen_regular.random_regular_connected rng 80 4 in
    Alcotest.(check bool) "connected" true (Traversal.is_connected g)
  done

let configuration_model_test () =
  let rng = Rng.create ~seed:11 () in
  let degrees = [| 4; 4; 2; 2; 4; 4; 2; 2 |] in
  let g = Gen_regular.configuration_model rng degrees in
  Alcotest.(check (array int)) "degree sequence realised" degrees
    (Graph.degrees g);
  let gs = Gen_regular.configuration_model ~simple:true rng degrees in
  Alcotest.(check bool) "simple option" true (Graph.is_simple gs);
  Alcotest.(check (array int)) "simple keeps degrees" degrees
    (Graph.degrees gs);
  Alcotest.check_raises "odd sum"
    (Invalid_argument "Gen_regular.configuration_model: odd degree sum")
    (fun () ->
      ignore (Gen_regular.configuration_model rng [| 1; 2 |]))

let cycle_union_test () =
  let rng = Rng.create ~seed:12 () in
  let g = Gen_regular.cycle_union rng 40 2 in
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "even" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected by construction" true
    (Traversal.is_connected g)

(* -- expanders --------------------------------------------------------------- *)

let margulis_test () =
  let g = Gen_expander.margulis 7 in
  Alcotest.(check int) "n = k^2" 49 (Graph.n g);
  Alcotest.(check bool) "8-regular" true
    (Graph.is_regular g && Graph.max_degree g = 8);
  Alcotest.(check bool) "even degree" true (Graph.all_degrees_even g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* Known spectral property: adjacency lambda_2 <= 5 sqrt 2 < 8 means the
     walk gap is at least 1 - 5 sqrt 2 / 8 ~ 0.116. *)
  let gap = Ewalk_spectral.Spectral.gap_exact g in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.3f > 0.1" gap.Ewalk_spectral.Spectral.gap)
    true
    (gap.Ewalk_spectral.Spectral.gap > 0.1)

let circulant_test () =
  let g = Gen_expander.circulant 12 [ 1; 3 ] in
  Alcotest.(check bool) "4-regular" true
    (Graph.is_regular g && Graph.max_degree g = 4);
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "offset too large"
    (Invalid_argument "Gen_expander.circulant: offset out of range") (fun () ->
      ignore (Gen_expander.circulant 12 [ 6 ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Gen_expander.circulant: duplicate offset") (fun () ->
      ignore (Gen_expander.circulant 12 [ 2; 2 ]))

let chordal_cycle_test () =
  let g = Gen_expander.chordal_cycle 11 in
  Alcotest.(check int) "n" 11 (Graph.n g);
  Alcotest.(check bool) "even degree 4" true
    (Graph.all_degrees_even g && Graph.max_degree g = 4);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "one self loop at 0" 1 (Graph.count_self_loops g)

(* -- distribution sanity ------------------------------------------------------ *)

let steger_wormald_unbiased_smoke () =
  (* On n=6, r=2 the simple 2-regular graphs are unions of cycles: either a
     6-cycle, a 3+3 split, or... with labelled vertices the generator should
     produce both a single hexagon and two triangles with substantial
     probability. *)
  let rng = Rng.create ~seed:13 () in
  let hexagons = ref 0 and double_triangles = ref 0 in
  for _ = 1 to 300 do
    let g = Gen_regular.random_regular rng 6 2 in
    if Traversal.is_connected g then incr hexagons else incr double_triangles
  done;
  Alcotest.(check bool) "sees hexagons" true (!hexagons > 30);
  Alcotest.(check bool) "sees disconnected shapes" true (!double_triangles > 10)

let prop_random_regular_invariants =
  QCheck.Test.make ~name:"random_regular always simple and regular" ~count:60
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, r) ->
      let n = 20 + (2 * r) in
      let n = if n * r mod 2 = 1 then n + 1 else n in
      let rng = Rng.create ~seed () in
      let g = Gen_regular.random_regular rng n r in
      Graph.is_simple g && Graph.is_regular g && Graph.max_degree g = r)

let prop_cycle_union_even =
  QCheck.Test.make ~name:"cycle_union is 2r-regular and connected" ~count:40
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, r) ->
      let rng = Rng.create ~seed () in
      let g = Gen_regular.cycle_union rng 20 r in
      Graph.is_regular g
      && Graph.max_degree g = 2 * r
      && Traversal.is_connected g)

(* -- known answers and allocation ------------------------------------------- *)

let edge_digest g =
  let b = Buffer.create 4096 in
  Array.iter (fun (u, v) -> Printf.bprintf b "%d-%d," u v) (Graph.edge_array g);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Edge-array digests recorded before Steger–Wormald moved from a
   tuple-keyed Hashtbl to flat partner rows, with the vertex cover step
   and blue-step count of an E-process walk continuing on the same
   generator: (seed, n, r, digest, cover step, blue steps). *)
let regular_pins =
  [
      (7, 10, 3, "cbcfc3be5e4e41892a37f1bae3bf2167", 11, 10);
      (7, 10, 4, "faa7ee358c20eb2e7c9b107331c271de", 14, 14);
      (7, 10, 5, "9e1d9afc7566c6e1d86d491880424882", 12, 12);
      (7, 10, 6, "b66315d29865b3ee1a4617ee3e5b49f6", 16, 16);
      (7, 10, 7, "4b2cfb635822aa651b343b67cc10b20c", 13, 13);
      (11, 100, 3, "b7a4208cb6a5b58283cc387b5c1e40e8", 467, 142);
      (11, 100, 4, "8a0d95ce0181e3485af69caeb318b2a5", 186, 186);
      (11, 100, 5, "c4e6ec7c6800e755e34120d1473f6ba4", 280, 226);
      (11, 100, 6, "76a8350cb0bd5bef8011c96a4164a880", 206, 206);
      (11, 100, 7, "3199e9bc4bbd7be605f76a8853e7505c", 282, 265);
      (2012, 1000, 3, "e867f19c13db70eb341e257effbf7234", 7485, 1496);
      (2012, 1000, 4, "34cb4ef9d787b63521e3eaafc6de16a2", 1942, 1911);
      (2012, 1000, 5, "6fde94ba359e56fe6874a77615d9b026", 3059, 2292);
      (2012, 1000, 6, "d379d5fd66a0cdbd610184e98c88f55b", 2900, 2898);
      (2012, 1000, 7, "734ab101f7d89d7e73652089a1bc75ad", 3759, 3194);
  ]

let regular_known_answers () =
  List.iter
    (fun (seed, n, r, digest, cover, blue) ->
      let name = Printf.sprintf "seed %d n %d r %d" seed n r in
      Alcotest.(check string) (name ^ " random_regular") digest
        (edge_digest (Gen_regular.random_regular (Rng.create ~seed ()) n r));
      let rng = Rng.create ~seed () in
      let g = Gen_regular.random_regular_connected rng n r in
      Alcotest.(check string) (name ^ " connected") digest (edge_digest g);
      let t = Ewalk.Eprocess.create g rng ~start:0 in
      Alcotest.(check (option int)) (name ^ " cover step") (Some cover)
        (Ewalk.Eprocess.run_to_vertex_cover t);
      Alcotest.(check int) (name ^ " blue steps") blue
        (Ewalk.Eprocess.blue_steps t))
    regular_pins

(* Dense cases restart attempts and reach the exhaustive scan; the next
   draw pins how many draws generation consumed:
   (seed, n, r, digest, next [Rng.int _ 1000]). *)
let dense_pins =
  [
      (1, 6, 3, "0bc92dd5d7300e74d885fb17f90caf41", 734);
      (2, 6, 4, "f1cfaf064eaaa596f112fa66b945bd21", 40);
      (3, 6, 5, "9dd9f67f36231de4e17380ffa6d31819", 513);
      (4, 8, 5, "89d02a1b6bd10d2f75d389aad5ddfaf3", 139);
      (5, 8, 6, "06cd00a1d840f4c6b3731ff13adbfb33", 622);
      (6, 8, 7, "de5311e508165930475e4c946cb3db2d", 463);
      (9, 20000, 3, "5527eb081fcc5846a9348d1262002ca2", 827);
      (10, 20000, 7, "6e154aa873ee64b030a41aea6c3e08a7", 387);
  ]

let dense_known_answers () =
  List.iter
    (fun (seed, n, r, digest, next) ->
      let name = Printf.sprintf "seed %d n %d r %d" seed n r in
      let rng = Rng.create ~seed () in
      let g = Gen_regular.random_regular rng n r in
      Alcotest.(check string) name digest (edge_digest g);
      Alcotest.(check int) (name ^ " next draw") next (Rng.int rng 1000))
    dense_pins

(* Native code only: there [Gc.minor_words] does not allocate itself. *)
let generation_words_per_edge () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun r ->
        let rng = Rng.create ~seed:r () in
        let w0 = Gc.minor_words () in
        let g = Gen_regular.random_regular rng 20_000 r in
        let words = Gc.minor_words () -. w0 in
        let per_edge = words /. float_of_int (Graph.m g) in
        Alcotest.(check bool)
          (Printf.sprintf "r %d: %.2f minor words per edge <= 20" r per_edge)
          true (per_edge <= 20.))
      [ 3; 4; 7 ]

let () =
  Alcotest.run "gen"
    [
      ( "classic",
        [
          Alcotest.test_case "cycle" `Quick classic_cycle;
          Alcotest.test_case "path/star" `Quick classic_path_star;
          Alcotest.test_case "complete" `Quick classic_complete;
          Alcotest.test_case "complete bipartite" `Quick
            classic_complete_bipartite;
          Alcotest.test_case "hypercube" `Quick classic_hypercube;
          Alcotest.test_case "torus" `Quick classic_torus;
          Alcotest.test_case "grid" `Quick classic_grid;
          Alcotest.test_case "binary tree" `Quick classic_binary_tree;
          Alcotest.test_case "lollipop/barbell" `Quick
            classic_lollipop_barbell;
          Alcotest.test_case "petersen" `Quick classic_petersen;
          Alcotest.test_case "double cycle" `Quick classic_double_cycle;
        ] );
      ( "random",
        [
          Alcotest.test_case "gnp extremes" `Quick gnp_extremes;
          Alcotest.test_case "gnp edge count" `Quick gnp_edge_count;
          Alcotest.test_case "gnm exact" `Quick gnm_exact;
          Alcotest.test_case "geometric radius" `Quick geometric_radius;
          Alcotest.test_case "geometric structure" `Quick
            geometric_matches_bruteforce;
        ] );
      ( "regular",
        [
          Alcotest.test_case "pairing multigraph" `Quick
            pairing_multigraph_test;
          Alcotest.test_case "steger-wormald simple" `Quick
            random_regular_simple;
          Alcotest.test_case "rejection sampler" `Quick
            random_regular_rejection_test;
          Alcotest.test_case "validation" `Quick random_regular_validation;
          Alcotest.test_case "connected variant" `Quick
            random_regular_connected_test;
          Alcotest.test_case "configuration model" `Quick
            configuration_model_test;
          Alcotest.test_case "cycle union" `Quick cycle_union_test;
          Alcotest.test_case "distribution smoke" `Quick
            steger_wormald_unbiased_smoke;
        ] );
      ( "pins",
        [
          Alcotest.test_case "regular digests" `Quick regular_known_answers;
          Alcotest.test_case "dense digests" `Quick dense_known_answers;
          Alcotest.test_case "words per edge" `Quick generation_words_per_edge;
        ] );
      ( "expanders",
        [
          Alcotest.test_case "margulis" `Quick margulis_test;
          Alcotest.test_case "circulant" `Quick circulant_test;
          Alcotest.test_case "chordal cycle" `Quick chordal_cycle_test;
        ] );
      ( "properties",
        [ qcheck prop_random_regular_invariants; qcheck prop_cycle_union_even ]
      );
    ]
