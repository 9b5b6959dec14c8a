(* Per-layer measurements for the traced runs.  Each probe calls one
   module's public functions inside a span named after the layer, on
   inputs derived from the run's seed, and returns its metrics as
   (name, value, unit). *)

open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Eprocess = Ewalk.Eprocess
module Cover = Ewalk.Cover
module Coverage = Ewalk.Coverage
module Compact = Ewalk.Compact
module Observe = Ewalk.Observe
module Pool = Ewalk_par.Pool
module Snapshot = Ewalk_resume.Snapshot
module Session = Ewalk_serve.Session
module Exp_util = Ewalk_expt.Exp_util

type metric = string * float * string

let per x k = x /. float_of_int k

(* -- graph generation and CSR ---------------------------------------------- *)

(* [build ()] inside a "gen" span, with the CSR share of it measured by
   rebuilding the same CSR from the graph's edge array in a nested "csr"
   span — so the gen span's self time is the generator's own work.  The
   rebuilt graph is discarded. *)
let gen_csr build =
  Meter.with_span "gen" (fun () ->
      let (g, rest), words = Meter.words build in
      Meter.with_span "csr" (fun () ->
          ignore
            (Sys.opaque_identity
               (Graph.of_edge_array ~n:(Graph.n g) (Graph.edge_array g))));
      (g, rest, words))

let gen_metrics ~words ~edges =
  [
    ("gen.s", Meter.self_s "gen", "s");
    ("gen.minor_words_per_edge", per words edges, "words");
    ("csr.s", Meter.self_s "csr", "s");
  ]

let csr_bytes g =
  [ ("csr.bytes_per_edge", per (Meter.reachable_bytes g) (Graph.m g), "B") ]

(* -- walk ------------------------------------------------------------------ *)

type walk = {
  cover : int option;
  steps : int;
  blue : int;
  vertices : int;  (** distinct vertices the walk visited *)
  secs : float;  (** create -> covered *)
  words : float;  (** minor words over the same interval *)
}

(* One E-process vertex cover from vertex 0 on a copy of [rng].
   [observe] attaches the metrics fast path exactly as
   [eproc cover --metrics] does. *)
let cover_walk ~observe g rng =
  let rng = Rng.copy rng in
  let cap = Cover.default_cap g in
  let go () =
    let t = Eprocess.create g rng ~start:0 in
    let p = Eprocess.process t in
    let cover =
      if observe then begin
        let obs = Observe.create ~metrics:(Ewalk_obs.Metrics.create ()) () in
        Observe.attach_eprocess obs t;
        let p = Observe.instrument obs p in
        let r = Cover.run_until_vertex_cover ~cap p in
        Observe.finish obs p;
        r
      end
      else Cover.run_until_vertex_cover ~cap p
    in
    (t, cover)
  in
  let ((t, cover), words), secs = Meter.timed (fun () -> Meter.words go) in
  {
    cover;
    steps = Eprocess.steps t;
    blue = Eprocess.blue_steps t;
    vertices = Coverage.vertices_visited (Eprocess.coverage t);
    secs;
    words;
  }

(* [vertices]: the vertex count the steps are normalised by (summed over
   walks when several are measured together). *)
let walk_metrics ~secs ~steps ~words ~blue_frac ~vertices =
  [
    ("walk.s", secs, "s");
    ("walk.ns_per_step", per (secs *. 1e9) steps, "ns");
    ("walk.minor_words_per_step", per words steps, "words");
    ("walk.steps_per_n", per (float_of_int steps) vertices, "steps");
    ("walk.blue_frac", blue_frac, "frac");
  ]

let blue_frac (w : walk) = per (float_of_int w.blue) w.steps

(* Observation cost: median over [reps] of the paired ratio between an
   observed walk and a bare twin on the same graph and seed, alternating
   which runs first.  The twins must agree on the cover step. *)
let observe_overhead g rng ~reps =
  let agree = ref true in
  let ratios =
    Array.init reps (fun i ->
        let observed () =
          Meter.with_span "observe" (fun () -> cover_walk ~observe:true g rng)
        in
        let bare () = cover_walk ~observe:false g rng in
        let o, b =
          if i mod 2 = 0 then
            let o = observed () in
            (o, bare ())
          else
            let b = bare () in
            (observed (), b)
        in
        if o.cover <> b.cover then agree := false;
        (o.secs /. b.secs) -. 1.0)
  in
  (Meter.median ratios, !agree)

(* -- data plane ------------------------------------------------------------ *)

let rng_layer ~seed =
  let r = Rng.create ~seed () in
  let draws = 4_000_000 and sink = ref 0 in
  let (), words =
    Meter.with_span "rng" (fun () ->
        Meter.words (fun () ->
            for _ = 1 to draws do
              sink := !sink lxor Rng.int r 4
            done))
  in
  ignore (Sys.opaque_identity !sink);
  [
    ("rng.ns_per_draw", per (Meter.self_s "rng" *. 1e9) draws, "ns");
    ("rng.minor_words_per_draw", per words draws, "words");
  ]

(* Enough repetitions of a per-edge pass to total [at_least] operations. *)
let reps_for g at_least = max 1 ((at_least + Graph.m g - 1) / Graph.m g)

(* Retire every edge once, in a seeded random order. *)
let compact_layer ~seed g =
  let m = Graph.m g in
  let order = Rng.permutation (Rng.create ~seed ()) m in
  let reps = reps_for g 4_000_000 in
  let bytes = ref 0.0 in
  for _ = 1 to reps do
    let c = Compact.create g in
    bytes := Meter.reachable_bytes (c, g) -. Meter.reachable_bytes g;
    Meter.with_span "compact" (fun () ->
        Array.iter (Compact.retire_edge c) order)
  done;
  [
    ( "compact.ns_per_retire",
      per (Meter.self_s "compact" *. 1e9) (reps * m),
      "ns" );
    ("compact.bytes_per_edge", per !bytes m, "B");
  ]

(* A walk-shaped record stream: each step records one move and one edge,
   at seeded random vertices and edges. *)
let coverage_layer ~seed g =
  let m = Graph.m g and n = Graph.n g in
  let r = Rng.create ~seed () in
  let vs = Array.init m (fun _ -> Rng.int r n) in
  let es = Array.init m (fun _ -> Rng.int r m) in
  let reps = reps_for g 2_000_000 in
  let bytes = ref 0.0 in
  for _ = 1 to reps do
    let c = Coverage.create g in
    bytes := Meter.reachable_bytes (c, g) -. Meter.reachable_bytes g;
    Meter.with_span "coverage" (fun () ->
        Coverage.record_start c 0;
        for step = 1 to m do
          Coverage.record_edge c ~step es.(step - 1);
          Coverage.record_move c ~step vs.(step - 1)
        done)
  done;
  [
    ( "coverage.ns_per_record",
      per (Meter.self_s "coverage" *. 1e9) (2 * reps * m),
      "ns" );
    ("coverage.bytes_per_edge", per !bytes m, "B");
  ]

(* -- pool ------------------------------------------------------------------ *)

(* A pool job cannot open spans (the recorder belongs to the calling
   domain), so each trial times its own layers and the batch records
   them afterwards. *)
type trial = {
  cover : int option;
  n : int;
  d : int;
  gen_ns : int;  (** graph generation, CSR rebuild included *)
  csr_ns : int;  (** the CSR rebuild *)
  walk_ns : int;
  gen_words : float;
  walk_words : float;
}

(* One Figure 1 trial exactly as the fig1 table runs it (generator copy,
   Exp_util.regular_graph, Exp_util.vertex_cover_eprocess), plus a CSR
   rebuild between the two that draws nothing from the generator. *)
let fig1_trial ~n ~d rng =
  let rng = Rng.copy rng in
  let t0 = Meter.now_ns () in
  let g, gen_words = Meter.words (fun () -> Exp_util.regular_graph rng ~n ~d) in
  let t1 = Meter.now_ns () in
  ignore
    (Sys.opaque_identity (Graph.of_edge_array ~n (Graph.edge_array g)));
  let t2 = Meter.now_ns () in
  let cover, walk_words =
    Meter.words (fun () -> Exp_util.vertex_cover_eprocess rng g)
  in
  let t3 = Meter.now_ns () in
  {
    cover;
    n;
    d;
    gen_ns = t2 - t0;
    csr_ns = t2 - t1;
    walk_ns = t3 - t2;
    gen_words;
    walk_words;
  }

(* Run trials on [pool].  The batch is recorded as a "pool" span in
   lane-seconds (jobs x wall) with each trial's gen (csr nested) and walk
   spans as children, so the pool's self time is lane time in which no
   trial ran: scheduling and idle lanes. *)
let pool_trials pool jobs =
  let trials, wall =
    Meter.timed (fun () ->
        Pool.map_array ~chunk:1 pool
          (fun (n, d, rng) -> fig1_trial ~n ~d rng)
          jobs)
  in
  let lane_ns = int_of_float (wall *. 1e9) * Pool.jobs pool in
  let pool_id = Meter.record "pool" lane_ns in
  Array.iter
    (fun t ->
      let gen_id = Meter.record ~parent:pool_id "gen" t.gen_ns in
      ignore (Meter.record ~parent:gen_id "csr" t.csr_ns);
      ignore (Meter.record ~parent:pool_id "walk" t.walk_ns))
    trials;
  (trials, wall)

let pool_self () = ("pool.self_s", Meter.self_s "pool", "s")

let pool_metrics pool ~wall =
  let busy = Array.map (fun l -> l.Pool.busy_s) (Pool.stats pool) in
  let lanes = float_of_int (Array.length busy) in
  ( "pool.utilization",
    Array.fold_left ( +. ) 0.0 busy /. (wall *. lanes),
    "frac" )
  :: List.mapi
       (fun i b -> (Printf.sprintf "pool.lane%d_busy_s" i, b, "s"))
       (Array.to_list busy)

(* The pool probe of workloads that do not use the pool: eight
   fig1-style trials at d = 4, n = 20 000 on two lanes. *)
let pool_probe ~seed =
  Pool.with_pool ~jobs:2 (fun pool ->
      let rngs = Ewalk_expt.Sweep.trial_rngs ~seed ~trials:8 in
      Pool.reset_stats pool;
      let trials, wall =
        pool_trials pool (Array.map (fun r -> (20_000, 4, r)) rngs)
      in
      let ok = Array.for_all (fun t -> t.cover <> None) trials in
      (pool_metrics pool ~wall @ [ pool_self () ], ok))

(* -- durability and serving ------------------------------------------------ *)

(* A hot serve-mixed session as it stands after one pass. *)
let session_walk ~seed =
  let shape = Serve_mix.mixed in
  let cfg = Serve_mix.session_config ~seed shape shape.cold in
  let rng = Rng.create ~seed:cfg.seed () in
  let g = Ewalk_expt.Families.build cfg.family rng ~n:cfg.n in
  (cfg, g, rng)

let snapshot_layer ~seed ~dir =
  let _, g, rng = session_walk ~seed in
  let t = Eprocess.create g rng ~start:0 in
  let steps = Serve_mix.mixed.rounds * Serve_mix.mixed.steps in
  Eprocess.run_steps t steps;
  let path = Filename.concat dir "probe-snapshot.json" in
  let reps = 10 and ok = ref true in
  let time f =
    Array.init reps (fun _ ->
        snd (Meter.timed (fun () -> Meter.with_span "snapshot" f)) *. 1e3)
  in
  let write_ms =
    time (fun () ->
        if Result.is_error (Snapshot.write ~path (Snapshot.Eprocess t)) then
          ok := false)
  in
  let read_ms =
    time (fun () ->
        match Snapshot.read g ~path with
        | Ok w -> if Snapshot.walk_steps w <> steps then ok := false
        | Error _ -> ok := false)
  in
  let bytes = float_of_int (Unix.stat path).Unix.st_size in
  Sys.remove path;
  ( [
      ("snapshot.write_ms", Meter.median write_ms, "ms");
      ("snapshot.read_ms", Meter.median read_ms, "ms");
      ("snapshot.bytes_per_edge", per bytes (Graph.m g), "B");
      ("snapshot.self_s", Meter.self_s "snapshot", "s");
    ],
    !ok )

(* One session-sized request's stepping, with no HTTP or registry. *)
let session_layer ~seed ~dir =
  let cfg, graph, rng = session_walk ~seed in
  let sdir = Filename.concat dir "probe-session" in
  Meter.mkdir_p sdir;
  match Session.create ~id:"probe" ~dir:sdir ~graph ~rng cfg with
  | Error _ -> ([], false)
  | Ok s ->
      let ok = ref true in
      let ms =
        Array.init 200 (fun _ ->
            let r, dt =
              Meter.timed (fun () ->
                  Meter.with_span "session" (fun () ->
                      Session.step s Serve_mix.mixed.steps))
            in
            if Result.is_error r then ok := false;
            dt *. 1e3)
      in
      ( [
          ("session.step_ms", Meter.median ms, "ms");
          ("session.self_s", Meter.self_s "session", "s");
        ],
        !ok )

let latency_metrics prefix (p : Serve_mix.pass) =
  [
    (prefix ^ "hot_p50_ms", Meter.quantile p.hot_ms 0.5, "ms");
    (prefix ^ "hot_p99_ms", Meter.quantile p.hot_ms 0.99, "ms");
    (prefix ^ "cold_p50_ms", Meter.quantile p.cold_ms 0.5, "ms");
    (prefix ^ "cold_p95_ms", Meter.quantile p.cold_ms 0.95, "ms");
  ]

(* Registry and Router/Client metrics of a traced serve pass. *)
let serve_metrics t (p : Serve_mix.pass) =
  let cold = float_of_int (Array.length p.cold_ms) in
  latency_metrics "serve." p
  @ [
      ("registry.hibernations", float_of_int p.hibernations /. cold, "count");
      ("registry.rehydrations", float_of_int p.rehydrations /. cold, "count");
      ("http.healthz_rtt_ms", Serve_mix.healthz_ms t ~reps:50, "ms");
      ("http.self_s", Meter.self_s "http", "s");
    ]

(* The serve pass checks: every response 200, one rehydration and one
   hibernation per cold request. *)
let serve_ok (p : Serve_mix.pass) =
  let cold = Array.length p.cold_ms in
  p.failed = 0 && p.rehydrations = cold && p.hibernations = cold

(* The serving probe of workloads that do not serve: the smaller mix. *)
let serve_probe ~seed ~dir =
  let t = Serve_mix.start Serve_mix.probe ~seed ~dir in
  Fun.protect
    ~finally:(fun () -> Serve_mix.stop t)
    (fun () ->
      let p = Serve_mix.run ~span:(Meter.with_span "http") t in
      (serve_metrics t p, serve_ok p))
