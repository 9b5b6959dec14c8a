(* Tests for the batched multi-walker lockstep kernel (Ewalk_kernel):
   the packed PRNG bank, W=1 bit-identity with the legacy single-walker
   processes, cooperating/competing semantics, the differential battery
   against the naive oracle at several job counts, parallel run
   equivalence, checkpoint round-trips, and the mutation-kill battery
   proving the checkers catch deliberately broken kernels. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Gen_regular = Ewalk_graph.Gen_regular
module Gen_random = Ewalk_graph.Gen_random
module Traversal = Ewalk_graph.Traversal
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Pool = Ewalk_par.Pool
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Cover = Ewalk.Cover
module Coverage = Ewalk.Coverage
module Engine = Ewalk_kernel.Engine
module Packed = Ewalk_kernel.Packed
module Team = Ewalk_kernel.Team
module Invariant = Ewalk_check.Invariant
module Oracle = Ewalk_check.Oracle
module Differential = Ewalk_check.Differential

let qcheck = QCheck_alcotest.to_alcotest

let fixture_regular =
  lazy
    (let rng = Rng.create ~seed:4242 () in
     Gen_regular.random_regular_connected rng 48 4)

(* -- Packed PRNG bank -------------------------------------------------------- *)

(* The bank must replicate [Rng.stream root w] draw for draw: walker 0 is
   the root's own state, walker w > 0 a splitmix-jumped stream. *)
let packed_matches_streams () =
  let root = Rng.create ~seed:91 () in
  let bank = Packed.of_rng root ~walkers:4 in
  let refs = Array.init 4 (fun w -> Rng.stream root w) in
  Alcotest.(check int) "walkers" 4 (Packed.walkers bank);
  for round = 0 to 63 do
    for w = 0 to 3 do
      Alcotest.(check int64)
        (Printf.sprintf "bits64 w=%d round=%d" w round)
        (Rng.bits64 refs.(w))
        (Packed.bits64 bank w);
      (* Mix in bounded draws: powers of two take the mask path, others
         the 63-bit rejection path — both must consume identically. *)
      let bound = [| 7; 8; 3; 100 |].(round mod 4) in
      Alcotest.(check int)
        (Printf.sprintf "int w=%d round=%d" w round)
        (Rng.int refs.(w) bound)
        (Packed.int bank w bound)
    done
  done

(* Native code only: there [Gc.minor_words] does not allocate itself. *)
let packed_int_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let bank = Packed.of_rng (Rng.create ~seed:13 ()) ~walkers:4 in
    let bounds = [| 7; 8; 3; 100 |] in
    let sink = ref 0 and draws = 100_000 in
    let w0 = Gc.minor_words () in
    for i = 1 to draws do
      sink := !sink lxor Packed.int bank (i land 3) bounds.(i land 3)
    done;
    let words = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity !sink);
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words over %d draws" words draws)
      true (words < 16.)
  end

(* Engine steps allocate nothing without an observer: in cooperating
   mode at W = 1 and W = 4 and in competing mode at W = 4, and over a
   whole cover of a cubic graph with its many blue/red transitions. *)
let engine_steps_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create ~seed:29 () in
    let g = Gen_regular.random_regular rng 2_000 4 in
    List.iter
      (fun (label, mode, walkers) ->
        let e = Engine.create_spread ~mode Engine.E_uar g rng ~walkers in
        let steps = 100_000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to steps do
          Engine.step e
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f minor words over %d steps" label words
             steps)
          true (words < 16.))
      [
        ("cooperating W=1", Engine.Cooperating, 1);
        ("cooperating W=4", Engine.Cooperating, 4);
        ("competing W=4", Engine.Competing, 4);
      ];
    let g3 = Gen_regular.random_regular rng 20_000 3 in
    let e = Engine.create Engine.E_uar g3 rng ~starts:[| 0 |] in
    let cov = Engine.coverage e in
    let w0 = Gc.minor_words () in
    while not (Coverage.all_vertices_visited cov) do
      Engine.step e
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "red steps taken" true (Engine.red_steps e > 1000);
    Alcotest.(check bool)
      (Printf.sprintf "cubic cover: %.0f minor words over %d steps" words
         (Engine.steps e))
      true (words < 16.)
  end

let packed_root_not_advanced () =
  let root = Rng.create ~seed:17 () in
  let before = Rng.save root in
  let (_ : Packed.t) = Packed.of_rng root ~walkers:8 in
  Alcotest.(check (array int64)) "root untouched" before (Rng.save root)

let packed_save_restore () =
  let root = Rng.create ~seed:5 () in
  let bank = Packed.of_rng root ~walkers:3 in
  for w = 0 to 2 do
    ignore (Packed.bits64 bank w)
  done;
  let words = Packed.save bank in
  Alcotest.(check int) "4 words per walker" 12 (Array.length words);
  let bank' = Packed.restore ~walkers:3 words in
  for w = 0 to 2 do
    for _ = 0 to 9 do
      Alcotest.(check int64) "restored stream" (Packed.bits64 bank w)
        (Packed.bits64 bank' w)
    done
  done

let packed_rng_of_walker () =
  let root = Rng.create ~seed:23 () in
  let bank = Packed.of_rng root ~walkers:2 in
  ignore (Packed.bits64 bank 1);
  let snap = Packed.rng_of_walker bank 1 in
  (* The snapshot must predict the walker's future draws without
     advancing the bank. *)
  let predicted = Array.init 5 (fun _ -> Rng.bits64 snap) in
  Array.iteri
    (fun i p ->
      Alcotest.(check int64)
        (Printf.sprintf "draw %d" i)
        p (Packed.bits64 bank 1))
    predicted

let prop_packed_equals_streams =
  QCheck.Test.make ~name:"packed bank replicates Rng.stream draws" ~count:50
    QCheck.(pair (int_range 1 9) (int_range 0 9999))
    (fun (walkers, seed) ->
      let root = Rng.create ~seed () in
      let bank = Packed.of_rng root ~walkers in
      let refs = Array.init walkers (fun w -> Rng.stream root w) in
      let ok = ref true in
      for i = 0 to 99 do
        let w = i mod walkers in
        let bound = 1 + (i * 7 mod 97) in
        if Packed.int bank w bound <> Rng.int refs.(w) bound then ok := false
      done;
      !ok)

(* -- Rng.stream derivation --------------------------------------------------- *)

let stream_distinct_and_pure () =
  let root = Rng.create ~seed:7 () in
  let before = Rng.save root in
  let streams = Array.init 8 (fun i -> Rng.stream root i) in
  Alcotest.(check (array int64)) "stream does not advance root" before
    (Rng.save root);
  Alcotest.(check (array int64)) "stream 0 = parent state" before
    (Rng.save streams.(0));
  (* Pairwise-distinct states: a kernel must never hand two walkers the
     same stream (the Team re-seeding regression). *)
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "streams %d and %d distinct" i j)
        false
        (Rng.save streams.(i) = Rng.save streams.(j))
    done
  done

(* -- W=1 bit-identity with the legacy processes ------------------------------ *)

(* Run a legacy single-walker process and a one-walker cooperating engine
   from identical RNG states and compare everything: the cover step, the
   full per-step event stream (Step and Phase boundaries), final
   position, step counters, and the visited-edge flags. *)
let collect_legacy_events set_observer run =
  let evs = ref [] in
  set_observer (Some (fun ev -> evs := ev :: !evs));
  let res = run () in
  (res, List.rev !evs)

let collect_engine_events eng run =
  let evs = ref [] in
  Engine.set_observer eng (Some (fun ~walker:_ ev -> evs := ev :: !evs));
  let res = run () in
  (res, List.rev !evs)

let event_list =
  Alcotest.testable
    (fun fmt ev -> Format.pp_print_string fmt (Trace.event_to_string ev))
    ( = )

let check_w1_identity ~name g ~seed proc =
  let start = 0 in
  let legacy_rng = Rng.create ~seed () in
  let engine_rng = Rng.create ~seed () in
  let legacy_cover, legacy_evs, legacy_pos, legacy_steps, legacy_cov =
    match proc with
    | Engine.E_uar | Engine.E_lowest | Engine.E_highest ->
        let rule =
          match proc with
          | Engine.E_uar -> Eprocess.Uar
          | Engine.E_lowest -> Eprocess.Lowest_slot
          | _ -> Eprocess.Highest_slot
        in
        let p = Eprocess.create ~rule g legacy_rng ~start in
        let cover, evs =
          collect_legacy_events (Eprocess.set_observer p) (fun () ->
              Cover.run_until_vertex_cover (Eprocess.process p))
        in
        (cover, evs, Eprocess.position p, Eprocess.steps p, Eprocess.coverage p)
    | Engine.Srw ->
        let p = Srw.create g legacy_rng ~start in
        let cover, evs =
          collect_legacy_events (Srw.set_observer p) (fun () ->
              Cover.run_until_vertex_cover (Srw.process p))
        in
        (cover, evs, Srw.position p, Srw.steps p, Srw.coverage p)
    | Engine.Rotor ->
        let p = Rotor.create ~randomize_rotors:true g legacy_rng ~start in
        let cover, evs =
          collect_legacy_events (Rotor.set_observer p) (fun () ->
              Cover.run_until_vertex_cover (Rotor.process p))
        in
        (cover, evs, Rotor.position p, Rotor.steps p, Rotor.coverage p)
  in
  let eng = Engine.create proc g engine_rng ~starts:[| start |] in
  let eng_cover, eng_evs =
    collect_engine_events eng (fun () ->
        Cover.run_until_vertex_cover (Engine.process eng))
  in
  Alcotest.(check (option int)) (name ^ ": cover step") legacy_cover eng_cover;
  Alcotest.(check (list event_list)) (name ^ ": event stream") legacy_evs
    eng_evs;
  Alcotest.(check int) (name ^ ": position") legacy_pos (Engine.position eng);
  Alcotest.(check int) (name ^ ": steps") legacy_steps (Engine.steps eng);
  Alcotest.(check (array bool))
    (name ^ ": visited edges")
    (Coverage.visited_edge_flags legacy_cov)
    (Coverage.visited_edge_flags (Engine.coverage eng))

let w1_identity_euar () =
  check_w1_identity ~name:"e-uar" (Lazy.force fixture_regular) ~seed:11
    Engine.E_uar

let w1_identity_elowest () =
  check_w1_identity ~name:"e-lowest" (Lazy.force fixture_regular) ~seed:12
    Engine.E_lowest

let w1_identity_ehighest () =
  check_w1_identity ~name:"e-highest" (Lazy.force fixture_regular) ~seed:13
    Engine.E_highest

let w1_identity_srw () =
  check_w1_identity ~name:"srw" (Gen_classic.hypercube 4) ~seed:14 Engine.Srw

let w1_identity_rotor () =
  check_w1_identity ~name:"rotor" (Lazy.force fixture_regular) ~seed:15
    Engine.Rotor;
  (* Rotor offsets after the run: engine vs legacy, vertex by vertex. *)
  let g = Gen_classic.hypercube 3 in
  let p = Rotor.create ~randomize_rotors:true g (Rng.create ~seed:15 ()) ~start:0 in
  let eng =
    Engine.create Engine.Rotor g (Rng.create ~seed:15 ()) ~starts:[| 0 |]
  in
  for _ = 1 to 100 do
    Rotor.step p;
    Engine.step eng
  done;
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "rotor offset at %d" v)
      (Rotor.rotor_offset p v) (Engine.rotor_offset eng v)
  done

(* A W=1 engine on every process, on generated graphs, shrunk by QCheck
   toward a minimal divergence if one exists. *)
let prop_w1_equals_legacy =
  QCheck.Test.make ~name:"W=1 kernel equals legacy walk on generated graphs"
    ~count:30
    QCheck.(
      quad (int_range 0 4) (int_range 0 4) (int_range 8 32) (int_range 0 999))
    (fun (fam, proc_i, size, seed) ->
      let grng = Rng.create ~seed:(1 + (seed * 3) + fam) () in
      let g =
        match fam with
        | 0 -> Gen_regular.random_regular_connected grng (max 10 size) 4
        | 1 ->
            let s = max 10 size in
            let s = if s mod 2 = 1 then s + 1 else s in
            Gen_regular.random_regular_connected grng s 3
        | 2 -> Gen_classic.hypercube (3 + (size mod 2))
        | 3 -> Gen_classic.lollipop (4 + (size mod 5)) (4 + (seed mod 5))
        | _ -> Gen_random.gnp grng (max 8 size) 0.3
      in
      QCheck.assume (Graph.n g > 0 && Graph.min_degree g > 0);
      QCheck.assume (Traversal.is_connected g);
      let proc =
        [| Engine.E_uar; Engine.E_lowest; Engine.E_highest; Engine.Srw;
           Engine.Rotor |].(proc_i)
      in
      let legacy_cover, legacy_pos, legacy_steps =
        let rng = Rng.create ~seed () in
        match proc with
        | Engine.E_uar | Engine.E_lowest | Engine.E_highest ->
            let rule =
              match proc with
              | Engine.E_uar -> Eprocess.Uar
              | Engine.E_lowest -> Eprocess.Lowest_slot
              | _ -> Eprocess.Highest_slot
            in
            let p = Eprocess.create ~rule g rng ~start:0 in
            let c = Cover.run_until_vertex_cover (Eprocess.process p) in
            (c, Eprocess.position p, Eprocess.steps p)
        | Engine.Srw ->
            let p = Srw.create g rng ~start:0 in
            let c = Cover.run_until_vertex_cover (Srw.process p) in
            (c, Srw.position p, Srw.steps p)
        | Engine.Rotor ->
            let p = Rotor.create ~randomize_rotors:true g rng ~start:0 in
            let c = Cover.run_until_vertex_cover (Rotor.process p) in
            (c, Rotor.position p, Rotor.steps p)
      in
      let eng =
        Engine.create proc g (Rng.create ~seed ()) ~starts:[| 0 |]
      in
      let eng_cover = Cover.run_until_vertex_cover (Engine.process eng) in
      if
        legacy_cover <> eng_cover
        || legacy_pos <> Engine.position eng
        || legacy_steps <> Engine.steps eng
      then
        QCheck.Test.fail_reportf
          "divergence (n=%d m=%d proc=%d): legacy cover=%s pos=%d steps=%d, \
           kernel cover=%s pos=%d steps=%d"
          (Graph.n g) (Graph.m g) proc_i
          (match legacy_cover with None -> "-" | Some c -> string_of_int c)
          legacy_pos legacy_steps
          (match eng_cover with None -> "-" | Some c -> string_of_int c)
          (Engine.position eng) (Engine.steps eng)
      else true)

(* -- cooperating-mode semantics ---------------------------------------------- *)

(* Shared coverage is exactly the union of the starts and every vertex
   any walker stepped onto — monotone along the way.  Exact set equality
   gives both directions: the shared set is a superset of any single
   member's trail, and contains nothing no walker produced. *)
let prop_coop_coverage_union =
  QCheck.Test.make ~name:"cooperating coverage = union of member trails"
    ~count:30
    QCheck.(triple (int_range 1 6) (int_range 10 40) (int_range 0 999))
    (fun (walkers, size, seed) ->
      let grng = Rng.create ~seed:(size + seed) () in
      let g = Gen_regular.random_regular_connected grng size 4 in
      QCheck.assume (Traversal.is_connected g);
      let rng = Rng.create ~seed () in
      let eng = Engine.create_spread Engine.E_uar g rng ~walkers in
      let seen = Array.make (Graph.n g) false in
      Array.iter (fun v -> seen.(v) <- true) (Engine.positions eng);
      let monotone = ref true in
      let last = ref (Coverage.vertices_visited (Engine.coverage eng)) in
      Engine.set_observer eng
        (Some
           (fun ~walker:_ ev ->
             match ev with
             | Trace.Step { vertex; _ } -> seen.(vertex) <- true
             | _ -> ()));
      for _ = 1 to 20 * Graph.n g do
        Engine.step eng;
        let now = Coverage.vertices_visited (Engine.coverage eng) in
        if now < !last then monotone := false;
        last := now
      done;
      let cov = Engine.coverage eng in
      let union_ok = ref true in
      for v = 0 to Graph.n g - 1 do
        if Coverage.vertex_visited cov v <> seen.(v) then union_ok := false
      done;
      if not !monotone then QCheck.Test.fail_report "coverage regressed";
      if not !union_ok then
        QCheck.Test.fail_report "shared coverage <> union of member trails";
      true)

(* Walker step counters partition the global clock, and blue + red =
   total per walker. *)
let coop_counters_partition () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:3 ()) ~walkers:5
  in
  Engine.run_rounds eng 40;
  let total = ref 0 in
  for w = 0 to 4 do
    total := !total + Engine.walker_steps eng w;
    Alcotest.(check int) "blue+red=steps"
      (Engine.walker_steps eng w)
      (Engine.walker_blue_steps eng w + Engine.walker_red_steps eng w)
  done;
  Alcotest.(check int) "walker steps partition the clock" (Engine.steps eng)
    !total;
  Alcotest.(check int) "round-robin balance" 40 (Engine.rounds eng)

(* -- differential battery ---------------------------------------------------- *)

(* The stock kernel battery (engine vs naive oracle, all five processes,
   both modes) must pass, and the report must be identical at jobs=1 and
   jobs=4.  EWALK_KERNEL_FULL=1 widens to the full 3-seed, W<=17 matrix
   (the `make test-kernel` configuration). *)
let kernel_cases () =
  if Sys.getenv_opt "EWALK_KERNEL_FULL" <> None then
    Differential.stock_kernel_cases ()
  else Differential.stock_kernel_cases ~walkers:[ 1; 4 ] ~seeds:[ 1 ] ()

let fail_lines failures =
  String.concat "\n" (List.map (fun (n, m) -> n ^ ": " ^ m) failures)

let kernel_battery_jobs_agree () =
  let cases = kernel_cases () in
  let r1 = Differential.run_kernel_suite ~jobs:1 cases in
  if r1.Differential.failures <> [] then
    Alcotest.failf "kernel battery (jobs=1):\n%s"
      (fail_lines r1.Differential.failures);
  let r4 = Differential.run_kernel_suite ~jobs:4 cases in
  if r4.Differential.failures <> [] then
    Alcotest.failf "kernel battery (jobs=4):\n%s"
      (fail_lines r4.Differential.failures);
  Alcotest.(check string) "reports identical across job counts"
    (Differential.report_line r1)
    (Differential.report_line r4);
  Alcotest.(check int) "case count" (List.length cases) r1.Differential.cases

(* W=17 exceeds the hypercube-4 vertex count on purpose: more walkers
   than vertices is legal and must still agree with the oracle. *)
let kernel_battery_w17_smoke () =
  let cases =
    List.filter
      (fun c -> c.Differential.k_label = "hypercube4")
      (Differential.stock_kernel_cases ~walkers:[ 17 ] ~seeds:[ 2 ] ())
  in
  Alcotest.(check bool) "cases exist" true (cases <> []);
  let r = Differential.run_kernel_suite ~jobs:2 cases in
  if r.Differential.failures <> [] then
    Alcotest.failf "W=17 battery:\n%s" (fail_lines r.Differential.failures)

(* -- parallel run equivalence ------------------------------------------------ *)

(* Competing walkers own disjoint state slices, so run_rounds over a pool
   must land bit-identically on the sequential result. *)
let competing_pool_equals_sequential () =
  let g = Lazy.force fixture_regular in
  let mk () =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:77 ()) ~walkers:8
  in
  let seq = mk () and par = mk () in
  Engine.run_rounds seq 150;
  Pool.with_pool ~jobs:4 (fun pool -> Engine.run_rounds ~pool par 150);
  Alcotest.(check (array int)) "positions" (Engine.positions seq)
    (Engine.positions par);
  for w = 0 to 7 do
    Alcotest.(check int) "steps" (Engine.walker_steps seq w)
      (Engine.walker_steps par w);
    Alcotest.(check int) "blue" (Engine.walker_blue_steps seq w)
      (Engine.walker_blue_steps par w);
    Alcotest.(check int) "vertices" (Engine.walker_vertices_visited seq w)
      (Engine.walker_vertices_visited par w);
    Alcotest.(check int) "edges" (Engine.walker_edges_visited seq w)
      (Engine.walker_edges_visited par w);
    Alcotest.(check (option int)) "cover step" (Engine.walker_cover_step seq w)
      (Engine.walker_cover_step par w);
    for e = 0 to Graph.m g - 1 do
      if Engine.walker_edge_visited seq w e <> Engine.walker_edge_visited par w e
      then Alcotest.failf "visited-set mismatch: walker %d edge %d" w e
    done
  done

(* -- mutation kills ---------------------------------------------------------- *)

(* A kernel that skips the unvisited-edge preference must be caught by
   the invariant monitor as a Preference violation. *)
let mutation_skip_preference_killed () =
  let g = Lazy.force fixture_regular in
  let eng = Engine.create Engine.E_uar g (Rng.create ~seed:21 ()) ~starts:[| 0 |] in
  Engine.set_fault eng (Some Engine.Skip_preference);
  let monitor = Invariant.create g ~start:0 in
  let first = ref None in
  Engine.set_observer eng
    (Some
       (fun ~walker:_ ev ->
         match ev with
         | Trace.Step { step; vertex; edge; blue } ->
             let v = Invariant.on_step monitor ~step ~vertex ~edge ~blue in
             if !first = None then first := v
         | _ -> ()));
  (let i = ref 0 in
   while !first = None && !i < 200 do
     Engine.step eng;
     incr i
   done);
  match !first with
  | None -> Alcotest.fail "Skip_preference escaped the monitor"
  | Some v ->
      Alcotest.(check string) "violation kind"
        (Invariant.kind_name Invariant.Preference)
        (Invariant.kind_name v.Invariant.v_kind)

(* A torn struct-of-arrays update (walker w's new position written to
   walker w+1's slot) breaks per-walker trajectory continuity: some
   walker's stream reports an edge not incident to where that walker
   stands.  Per-walker monitors over the competing engine must flag it
   as Edge_invalid. *)
let mutation_torn_soa_killed () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; Graph.n g / 2; 1; (Graph.n g / 2) + 7 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:31 ()) ~starts
  in
  Engine.set_fault eng (Some Engine.Torn_soa);
  let monitors =
    Array.map (fun s -> Invariant.create g ~start:s) starts
  in
  let caught = ref None in
  Engine.set_observer eng
    (Some
       (fun ~walker ev ->
         match ev with
         | Trace.Step { step; vertex; edge; blue } ->
             let v = Invariant.on_step monitors.(walker) ~step ~vertex ~edge ~blue in
             if !caught = None then caught := v
         | _ -> ()));
  (let i = ref 0 in
   while !caught = None && !i < 400 do
     Engine.step eng;
     incr i
   done);
  match !caught with
  | None -> Alcotest.fail "Torn_soa escaped the per-walker monitors"
  | Some v ->
      Alcotest.(check string) "violation kind"
        (Invariant.kind_name Invariant.Edge_invalid)
        (Invariant.kind_name v.Invariant.v_kind)

(* Reusing walker 0's PRNG word for every walker desynchronises walkers
   1.. from their oracle streams — the lockstep differential must see the
   positions diverge. *)
let mutation_reuse_prng_killed () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; 12; 24; 36 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  Engine.set_fault eng (Some Engine.Reuse_prng_word);
  let orc =
    Oracle.Kernel.create ~mode:Oracle.Kernel.Competing Oracle.Kernel.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  let diverged = ref false in
  let i = ref 0 in
  while (not !diverged) && !i < 800 do
    Engine.step eng;
    Oracle.Kernel.step orc;
    for w = 0 to 3 do
      if Engine.walker_position eng w <> Oracle.Kernel.walker_position orc w
      then diverged := true
    done;
    incr i
  done;
  Alcotest.(check bool) "lockstep divergence detected" true !diverged

(* Sanity for the battery itself: an unfaulted engine does NOT diverge
   over the same horizon — the kill above is the fault's doing. *)
let mutation_control_clean () =
  let g = Lazy.force fixture_regular in
  let starts = [| 0; 12; 24; 36 |] in
  let eng =
    Engine.create ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  let orc =
    Oracle.Kernel.create ~mode:Oracle.Kernel.Competing Oracle.Kernel.E_uar g
      (Rng.create ~seed:41 ()) ~starts
  in
  for _ = 1 to 800 do
    Engine.step eng;
    Oracle.Kernel.step orc
  done;
  for w = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "walker %d in lockstep" w)
      (Oracle.Kernel.walker_position orc w)
      (Engine.walker_position eng w)
  done

(* -- Team per-walker streams (regression) ------------------------------------ *)

(* Team walkers must draw from per-walker derived streams, never a shared
   or trial-index-reseeded one: the packed bank's walker slices have to
   be pairwise distinct at creation. *)
let team_walker_streams_distinct () =
  let g = Lazy.force fixture_regular in
  let team = Team.create_spread g (Rng.create ~seed:6 ()) ~walkers:4 in
  let ck = Engine.checkpoint (Team.engine team) in
  let words = ck.Engine.ck_prng in
  Alcotest.(check int) "4 words per walker" 16 (Array.length words);
  let slice w = Array.sub words (4 * w) 4 in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "walkers %d,%d share a stream" i j)
        false
        (slice i = slice j)
    done
  done;
  (* And two teams from different root seeds must not collide either. *)
  let team' = Team.create_spread g (Rng.create ~seed:7 ()) ~walkers:4 in
  let words' = (Engine.checkpoint (Team.engine team')).Engine.ck_prng in
  Alcotest.(check bool) "teams differ" false (words = words')

(* -- checkpoint / resume ----------------------------------------------------- *)

(* Stop a cooperating W=4 run at step 100, continue both the original and
   a restored copy for 200 more steps: the event tails and the full final
   checkpoints must match bit for bit. *)
let checkpoint_roundtrip_bit_identical () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:55 ()) ~walkers:4
  in
  for _ = 1 to 100 do
    Engine.step eng
  done;
  let ck = Engine.checkpoint eng in
  let resumed = Engine.of_checkpoint g ck in
  Alcotest.(check int) "restored clock" (Engine.steps eng)
    (Engine.steps resumed);
  Alcotest.(check int) "restored cursor" (Engine.cursor eng)
    (Engine.cursor resumed);
  let run e =
    collect_engine_events e (fun () ->
        for _ = 1 to 200 do
          Engine.step e
        done)
  in
  let (), evs_orig = run eng in
  let (), evs_res = run resumed in
  Alcotest.(check (list event_list)) "continuation event tails" evs_orig
    evs_res;
  Alcotest.(check bool) "final checkpoints identical" true
    (Engine.checkpoint eng = Engine.checkpoint resumed)

let checkpoint_rejects_corruption () =
  let g = Lazy.force fixture_regular in
  let eng =
    Engine.create_spread Engine.E_uar g (Rng.create ~seed:56 ()) ~walkers:3
  in
  Engine.run_rounds eng 10;
  let ck = Engine.checkpoint eng in
  let bad_cursor = { ck with Engine.ck_cursor = 9 } in
  Alcotest.check_raises "cursor out of range"
    (Invalid_argument "Engine.of_checkpoint: cursor out of range") (fun () ->
      ignore (Engine.of_checkpoint g bad_cursor));
  let wsteps = Array.copy ck.Engine.ck_wsteps in
  wsteps.(0) <- wsteps.(0) + 1;
  let bad_steps = { ck with Engine.ck_wsteps = wsteps } in
  Alcotest.check_raises "inconsistent counters"
    (Invalid_argument "Engine.of_checkpoint: inconsistent step counters")
    (fun () -> ignore (Engine.of_checkpoint g bad_steps));
  let phase = Array.copy ck.Engine.ck_phase in
  phase.(1) <- Some (Engine.Red, -3, 0);
  Alcotest.check_raises "phase before step 0"
    (Invalid_argument "Engine.of_checkpoint: phase starts before step 0")
    (fun () ->
      ignore (Engine.of_checkpoint g { ck with Engine.ck_phase = phase }));
  let competing =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:57 ()) ~walkers:2
  in
  Alcotest.check_raises "competing needs checkpoint_competing"
    (Invalid_argument
       "Engine.checkpoint: competing mode carries per-walker bitsets; use \
        checkpoint_competing") (fun () -> ignore (Engine.checkpoint competing))

(* -- argument validation ----------------------------------------------------- *)

let create_validation () =
  let g = Gen_classic.cycle 5 in
  let rng () = Rng.create ~seed:1 () in
  Alcotest.check_raises "no walkers"
    (Invalid_argument "Engine.create: no walkers") (fun () ->
      ignore (Engine.create Engine.E_uar g (rng ()) ~starts:[||]));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Engine.create: start out of range") (fun () ->
      ignore (Engine.create Engine.E_uar g (rng ()) ~starts:[| 5 |]));
  Alcotest.check_raises "spread walkers < 1"
    (Invalid_argument "Engine.create_spread: walkers < 1") (fun () ->
      ignore (Engine.create_spread Engine.E_uar g (rng ()) ~walkers:0));
  let competing =
    Engine.create ~mode:Engine.Competing Engine.E_uar g (rng ())
      ~starts:[| 0; 1 |]
  in
  Alcotest.check_raises "competing has no shared coverage"
    (Invalid_argument "Engine.coverage: competing mode has no shared coverage")
    (fun () -> ignore (Engine.coverage competing));
  let coop = Engine.create Engine.E_uar g (rng ()) ~starts:[| 0 |] in
  Alcotest.check_raises "cooperating has no private rows"
    (Invalid_argument "Engine.walker_edge_visited: cooperating mode is shared")
    (fun () -> ignore (Engine.walker_edge_visited coop 0 0))

(* -- competing first-cover --------------------------------------------------- *)

let competing_first_cover () =
  let g = Gen_classic.hypercube 3 in
  let eng =
    Engine.create_spread ~mode:Engine.Competing Engine.E_uar g
      (Rng.create ~seed:9 ()) ~walkers:4
  in
  match Engine.run_until_first_cover eng with
  | None -> Alcotest.fail "no walker covered the hypercube"
  | Some (w, s) ->
      Alcotest.(check bool) "winner in range" true (w >= 0 && w < 4);
      Alcotest.(check (option int)) "winner's recorded cover step" (Some s)
        (Engine.walker_cover_step eng w);
      Alcotest.(check int) "winner saw every vertex" (Graph.n g)
        (Engine.walker_vertices_visited eng w);
      (* No loser covered strictly earlier. *)
      for w' = 0 to 3 do
        match Engine.walker_cover_step eng w' with
        | Some s' -> Alcotest.(check bool) "first" true (s' >= s)
        | None -> ()
      done

let () =
  Alcotest.run "kernel"
    [
      ( "packed",
        [
          Alcotest.test_case "replicates Rng.stream" `Quick
            packed_matches_streams;
          Alcotest.test_case "root not advanced" `Quick
            packed_root_not_advanced;
          Alcotest.test_case "save/restore round-trip" `Quick
            packed_save_restore;
          Alcotest.test_case "rng_of_walker snapshots" `Quick
            packed_rng_of_walker;
          Alcotest.test_case "int allocates nothing" `Quick
            packed_int_allocates_nothing;
          qcheck prop_packed_equals_streams;
        ] );
      ( "streams",
        [
          Alcotest.test_case "derived streams distinct, root pure" `Quick
            stream_distinct_and_pure;
        ] );
      ( "w1-identity",
        [
          Alcotest.test_case "e-process uar" `Quick w1_identity_euar;
          Alcotest.test_case "e-process lowest" `Quick w1_identity_elowest;
          Alcotest.test_case "e-process highest" `Quick w1_identity_ehighest;
          Alcotest.test_case "srw" `Quick w1_identity_srw;
          Alcotest.test_case "rotor" `Quick w1_identity_rotor;
          qcheck prop_w1_equals_legacy;
        ] );
      ( "cooperating",
        [
          qcheck prop_coop_coverage_union;
          Alcotest.test_case "counters partition the clock" `Quick
            coop_counters_partition;
        ] );
      ( "differential",
        [
          Alcotest.test_case "stock battery, jobs 1 = jobs 4" `Quick
            kernel_battery_jobs_agree;
          Alcotest.test_case "W=17 on a small graph" `Quick
            kernel_battery_w17_smoke;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool run equals sequential" `Quick
            competing_pool_equals_sequential;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "skip-preference killed" `Quick
            mutation_skip_preference_killed;
          Alcotest.test_case "torn-SoA killed" `Quick mutation_torn_soa_killed;
          Alcotest.test_case "reused PRNG word killed" `Quick
            mutation_reuse_prng_killed;
          Alcotest.test_case "unfaulted control stays clean" `Quick
            mutation_control_clean;
        ] );
      ( "team",
        [
          Alcotest.test_case "per-walker streams distinct" `Quick
            team_walker_streams_distinct;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip bit-identical" `Quick
            checkpoint_roundtrip_bit_identical;
          Alcotest.test_case "rejects corruption" `Quick
            checkpoint_rejects_corruption;
        ] );
      ( "validation",
        [ Alcotest.test_case "create/mode guards" `Quick create_validation ] );
      ( "competing",
        [ Alcotest.test_case "first cover" `Quick competing_first_cover ] );
      ( "allocation",
        [
          Alcotest.test_case "engine steps allocate nothing" `Quick
            engine_steps_allocate_nothing;
        ] );
    ]
