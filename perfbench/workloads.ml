(* The three workloads.  Each has an untraced run, which reports the
   end-to-end metrics, and a traced run, which reports the per-layer
   metrics; both check the program's outputs. *)

open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Pool = Ewalk_par.Pool
module Families = Ewalk_expt.Families
module Experiments = Ewalk_expt.Experiments
module Sweep = Ewalk_expt.Sweep
module Table = Ewalk_expt.Table
module Stats = Ewalk_analysis.Stats

type outcome = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : Layers.metric list;  (** the machine-read result *)
  report : Layers.metric list;  (** further figures for the reader *)
}

let within lo hi x = x >= lo && x <= hi
let fl = float_of_int
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let uncovered walks =
  List.length (List.filter (fun (w : Layers.walk) -> w.cover = None) walks)

(* Set-up runs at least [setups] times and reports its median; the
   measured phase runs whole passes, at least [min_passes], until
   [seconds] are spent, and reports the median pass.  Every set-up and
   pass is timed between two reference chases (Meter.scaled), one
   chase closing an interval and opening the next. *)
let setups = 3
let min_passes = 3

let passes ~seconds f =
  let t0 = Meter.now_ns () and acc = ref [] in
  let before = ref (Meter.chase_ns ()) in
  while
    List.length !acc < min_passes || Ewalk_obs.Clock.elapsed_s t0 < seconds
  do
    Gc.full_major ();
    let r, s = Meter.scaled ~before:!before f in
    before := s.after_ns;
    acc := (r, s) :: !acc
  done;
  List.rev !acc

(* The set-up times: [first], which fed the measured passes, and more
   timed [setup ()]s, each released by [release] untimed — at least
   [setups] in all, and up to [max_setups] while they total under a
   second.  They run after the passes, so the peak RSS read before them
   is that of one set-up and its passes. *)
let max_setups = 15

let extra_setups (first : Meter.sample) ~setup ~release =
  let times = ref [ first ] and spent = ref first.wall_s in
  let before = ref (Meter.chase_ns ()) in
  while
    List.length !times < setups
    || (List.length !times < max_setups && !spent < 1.0)
  do
    Gc.full_major ();
    let r, s = Meter.scaled ~before:!before setup in
    before := s.after_ns;
    release r;
    times := s :: !times;
    spent := !spent +. s.wall_s
  done;
  Array.of_list !times

let nominal = Array.map (fun (s : Meter.sample) -> s.Meter.nominal_s)
let wall = Array.map (fun (s : Meter.sample) -> s.Meter.wall_s)

(* [run] is the workload's pass time at the nominal host speed: the
   median pass, except on serve-mixed (see there).  The report keeps
   the wall-clock medians and the chase's speed beside them. *)
let end_to_end ~setup ~run ~peak =
  [
    ("setup_s", Meter.median (nominal setup), "s");
    ("run_s", run, "s");
    ("peak_rss_mb", peak, "MB");
  ]

let wall_report ~setup ~(passes : Meter.sample array) =
  [
    ("setup_wall_s", Meter.median (wall setup), "s");
    ("pass_wall_s", Meter.median (wall passes), "s");
    ( "chase_ns_per_load",
      Meter.median
        (Array.map (fun (s : Meter.sample) -> s.chase_ns) passes),
      "ns" );
  ]

let failed_frac ~attempted ~failed =
  ("failed_frac", fl failed /. fl (max 1 attempted), "failed/attempted")

(* [traced] and [untraced] are (set-up + run) seconds of the same path on
   the same seed; [accounted] is what the main-path spans add up to. *)
let trace_metrics ~traced ~untraced ~accounted =
  [
    ("trace.overhead_s", traced -. untraced, "s");
    ("trace.accounted_frac", accounted /. untraced, "frac");
  ]

(* Data-plane probes on the workload's own graph.  (Bound in sequence:
   the self-time reads must follow the probes.) *)
let data_plane ~seed g =
  let rng = Layers.rng_layer ~seed in
  let compact = Layers.compact_layer ~seed g in
  let coverage = Layers.coverage_layer ~seed g in
  rng @ compact @ coverage @ Layers.csr_bytes g
  @ List.map
      (fun l -> (l ^ ".self_s", Meter.self_s l, "s"))
      [ "rng"; "compact"; "coverage" ]

let durability ~seed ~dir =
  let snap, snap_ok = Layers.snapshot_layer ~seed ~dir in
  let sess, sess_ok = Layers.session_layer ~seed ~dir in
  ( snap @ sess,
    [ ("snapshot_round_trip", snap_ok); ("session_steps", sess_ok) ] )

let with_state_dir name f =
  let dir =
    Filename.concat Meter.state_root
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  Meter.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Meter.rm_rf dir;
      try Sys.rmdir Meter.state_root with Sys_error _ -> ())
    (fun () -> f dir)

(* -- cover-1m -------------------------------------------------------------- *)

module Cover_1m = struct
  let n = 1_000_000

  (* The single trial of [eproc cover --family regular:4 --trials 1]:
     graph, then walk, from the trial's generator. *)
  let build ~seed () =
    let rng = (Rng.split_n (Rng.create ~seed ()) 1).(0) in
    let g = Families.build "regular:4" rng ~n in
    (g, rng)

  let walk_checks (w : Layers.walk) =
    [
      ("cover_reached", w.cover <> None);
      ( "cover_over_n_in_1.9_2.1",
        within 1.9 2.1 (fl (Option.value ~default:0 w.cover) /. fl n) );
      ("coverage_vertices_eq_n", w.vertices = n);
    ]

  let run ~seed ~seconds =
    let (g, rng), setup0 = Meter.scaled (build ~seed) in
    let ps =
      passes ~seconds (fun () -> Layers.cover_walk ~observe:true g rng)
    in
    let walks = List.map fst ps in
    let peak = Meter.peak_rss_mb () in
    let setup = extra_setups setup0 ~setup:(build ~seed) ~release:ignore in
    let first = List.hd walks in
    (* create -> covered, at the nominal host speed. *)
    let runs =
      Array.of_list
        (List.map
           (fun ((w : Layers.walk), (s : Meter.sample)) ->
             w.secs *. s.nominal_s /. s.wall_s)
           ps)
    in
    let attempted = List.length walks in
    let failed = uncovered walks in
    {
      checks =
        walk_checks first
        @ [
            ( "passes_identical",
              List.for_all
                (fun (w : Layers.walk) -> w.cover = first.cover)
                walks );
          ];
      attempted;
      failed;
      metrics = end_to_end ~setup ~run:(Meter.median runs) ~peak;
      report =
        wall_report ~setup ~passes:(Array.of_list (List.map snd ps))
        @ [
            ("cover_s", Meter.median runs, "s");
            ("cover_over_n", fl first.steps /. fl n, "steps/n");
            failed_frac ~attempted ~failed;
          ];
    }

  let traced ~seed =
    with_state_dir "cover-1m" @@ fun dir ->
    let untraced =
      let (g, rng), setup = Meter.timed (build ~seed) in
      setup +. (Layers.cover_walk ~observe:true g rng).secs
    in
    Gc.compact ();
    let (g, rng, gen_words, w), traced =
      Meter.timed (fun () ->
          let g, rng, words = Layers.gen_csr (build ~seed) in
          let w =
            Meter.with_span "walk" (fun () ->
                Layers.cover_walk ~observe:true g rng)
          in
          (g, rng, words, w))
    in
    let bare = Layers.cover_walk ~observe:false g rng in
    let walk_s = Meter.self_s "walk" in
    let accounted = Meter.self_s "gen" +. Meter.self_s "csr" +. walk_s in
    let main =
      Layers.gen_metrics ~words:gen_words ~edges:(Graph.m g)
      @ Layers.walk_metrics ~secs:walk_s ~steps:w.steps ~words:w.words
          ~blue_frac:(Layers.blue_frac w) ~vertices:n
    in
    let layers = data_plane ~seed g in
    let durable, durable_checks = durability ~seed ~dir in
    let pool, pool_ok = Layers.pool_probe ~seed in
    let serve, serve_ok = Layers.serve_probe ~seed ~dir in
    {
      checks =
        walk_checks w @ durable_checks
        @ [
            ("bare_twin_same_cover", bare.cover = w.cover);
            ( "spans_account_for_setup_plus_cover",
              Float.abs (untraced -. accounted)
              <= Float.abs (traced -. untraced) +. (0.05 *. untraced) );
            ("pool_probe_covers", pool_ok);
            ("serve_probe", serve_ok);
          ];
      attempted = 2;
      failed = uncovered [ w; bare ];
      metrics =
        main @ layers @ durable @ pool @ serve
        @ [ ("observe.overhead_frac", (w.secs /. bare.secs) -. 1.0, "frac") ]
        @ trace_metrics ~traced ~untraced ~accounted;
      report = [];
    }
end

(* -- fig1-sweep ------------------------------------------------------------ *)

module Fig1_sweep = struct
  let entry = Option.get (Experiments.find "fig1")
  let degrees = [ 3; 4; 5; 6; 7 ]
  let sizes = Sweep.cover_sizes Sweep.Default
  let trials = Sweep.trials Sweep.Default
  let points = List.length degrees * List.length sizes

  (* Pool start, then a Tiny-scale fig1 that warms the code and heap. *)
  let setup ~seed () =
    let pool = Pool.create ~jobs:2 () in
    ignore (Experiments.run_timed ~pool entry ~scale:Sweep.Tiny ~seed);
    pool

  let sweep ~seed pool () =
    fst (Experiments.run_timed ~pool entry ~scale:Sweep.Default ~seed)

  (* Table rows: d, n, cover, cover/n, stderr/n.  A point whose trials
     did not all cover has no row. *)
  let cell r i = List.nth r i

  (* Corollary 2 on the d = 4 series: the fitted constant of C = c n is
     in [1.9, 2.1], and every point's cover/n is within 0.1 of 2 up to
     three standard errors (3 trials at n = 2000 scatter by several
     percent). *)
  let table_checks (t : Table.t) =
    let d4 = List.filter (fun r -> cell r 0 = "4") t.rows in
    let col i =
      Array.of_list (List.map (fun r -> float_of_string (cell r i)) d4)
    in
    let c, _ = Ewalk_analysis.Fit.scale_linear (col 1) (col 2) in
    [
      ("every_trial_covers", List.length t.rows = points);
      ("d4_fit_c_in_1.9_2.1", within 1.9 2.1 c);
      ( "d4_points_within_0.1_plus_3_stderr_of_2",
        List.for_all
          (fun r ->
            let f i = float_of_string (cell r i) in
            Float.abs (f 3 -. 2.0) <= 0.1 +. (3.0 *. f 4))
          d4 );
    ]

  let run ~seed ~seconds =
    let pool, setup0 = Meter.scaled (setup ~seed) in
    let ps =
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> passes ~seconds (sweep ~seed pool))
    in
    let peak = Meter.peak_rss_mb () in
    let setup =
      extra_setups setup0 ~setup:(setup ~seed) ~release:Pool.shutdown
    in
    let first, _ = List.hd ps in
    let samples = Array.of_list (List.map snd ps) in
    let runs = nominal samples in
    let attempted = List.length ps * points * trials in
    let failed =
      sum (fun ((t : Table.t), _) -> (points - List.length t.rows) * trials) ps
    in
    {
      checks =
        table_checks first
        @ [ ("passes_identical", List.for_all (fun (t, _) -> t = first) ps) ];
      attempted;
      failed;
      metrics = end_to_end ~setup ~run:(Meter.median runs) ~peak;
      report =
        wall_report ~setup ~passes:samples
        @ [
            ("sweep_s", Meter.median runs, "s");
            failed_frac ~attempted ~failed;
          ];
    }

  (* The grid as Exp_cover.fig1 runs it: one pool batch per (d, n) over
     Sweep.trial_rngs at the point seed seed + 7919 d + n. *)
  let traced_grid ~seed pool =
    List.concat_map
      (fun d ->
        List.map
          (fun n ->
            let rngs =
              Sweep.trial_rngs ~seed:(seed + (7919 * d) + n) ~trials
            in
            fst (Layers.pool_trials pool (Array.map (fun r -> (n, d, r)) rngs)))
          sizes)
      degrees

  (* The traced per-point means, formatted as the table formats them,
     must equal the table's d, n and cover columns. *)
  let means_match (t : Table.t) grid =
    let traced =
      List.map
        (fun (ts : Layers.trial array) ->
          let covers = Array.map (fun (x : Layers.trial) -> x.cover) ts in
          match Array.for_all Option.is_some covers with
          | false -> [ "capped" ]
          | true ->
              let covers = Array.map (fun c -> fl (Option.get c)) covers in
              [
                Table.cell_i ts.(0).d;
                Table.cell_i ts.(0).n;
                Table.cell_f (Stats.summarize covers).Stats.mean;
              ])
        grid
    in
    traced = List.map (fun r -> [ cell r 0; cell r 1; cell r 2 ]) t.rows

  let traced ~seed =
    with_state_dir "fig1-sweep" @@ fun dir ->
    let pool = setup ~seed () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Pool.reset_stats pool;
    let table, untraced = Meter.timed (sweep ~seed pool) in
    let pool_m = Layers.pool_metrics pool ~wall:untraced in
    let grid, traced = Meter.timed (fun () -> traced_grid ~seed pool) in
    let all = List.concat_map Array.to_list grid in
    let steps =
      sum (fun (t : Layers.trial) -> Option.value ~default:0 t.cover) all
    in
    let pool_m = pool_m @ [ Layers.pool_self () ] in
    (* Trial spans are lane-seconds; the untraced sweep is wall time on
       [jobs] lanes. *)
    let walk_s = Meter.self_s "walk" in
    let accounted =
      (Meter.self_s "gen" +. Meter.self_s "csr" +. walk_s)
      /. fl (Pool.jobs pool)
    in
    let gen =
      [
        ("gen.s", Meter.self_s "gen", "s");
        ( "gen.minor_words_per_edge",
          sumf (fun (t : Layers.trial) -> t.gen_words) all
          /. fl (sum (fun (t : Layers.trial) -> t.n * t.d / 2) all),
          "words" );
        ("csr.s", Meter.self_s "csr", "s");
      ]
    in
    (* Blue share and observation cost in the heaviest regime of the
       grid: d = 3 at the largest n, trial 0. *)
    let rngs = Sweep.trial_rngs ~seed:(seed + (7919 * 3) + 100_000) ~trials in
    let rng = Rng.copy rngs.(0) in
    let g = Ewalk_expt.Exp_util.regular_graph rng ~n:100_000 ~d:3 in
    let twin = Layers.cover_walk ~observe:false g rng in
    let walk =
      Layers.walk_metrics ~secs:walk_s ~steps
        ~words:(sumf (fun (t : Layers.trial) -> t.walk_words) all)
        ~blue_frac:(Layers.blue_frac twin)
        ~vertices:(sum (fun (t : Layers.trial) -> t.n) all)
    in
    let obs, agree = Layers.observe_overhead g rng ~reps:3 in
    let layers = data_plane ~seed g in
    let durable, durable_checks = durability ~seed ~dir in
    let serve, serve_ok = Layers.serve_probe ~seed ~dir in
    {
      checks =
        table_checks table @ durable_checks
        @ [
            ("traced_means_equal_table", means_match table grid);
            ("observe_twins_agree", agree);
            ("serve_probe", serve_ok);
          ];
      attempted = List.length all;
      failed =
        List.length
          (List.filter (fun (t : Layers.trial) -> t.cover = None) all);
      metrics =
        gen @ walk @ layers @ durable @ pool_m @ serve
        @ [ ("observe.overhead_frac", obs, "frac") ]
        @ trace_metrics ~traced ~untraced ~accounted;
      report = [];
    }
end

(* -- serve-mixed ----------------------------------------------------------- *)

module Serve_mixed = struct
  let shape = Serve_mix.mixed

  let start ~seed ~dir () = Serve_mix.start shape ~seed ~dir

  (* One daemon serves every pass: each pass leaves the same residency
     (the hot sessions and the last cold one), so every pass makes the
     same requests against the same mix.

     [run_s] is a pass's time taken round by round: [rounds] times the
     lower quartile of every round of every pass, each at the nominal
     host speed of its pass (a round is the hot requests and one cold
     request).  Each cold request renames a fresh
     snapshot over the session's old one, which on ext4 starts writeback
     of the file; while other processes load the disk, that stalls a
     varying share of the rounds for up to tens of ms.  The lower
     quartile leaves those rounds out, where a median pass takes them
     in, so the figure moves with the code rather than with the disk
     load of other processes.  The report keeps the median pass
     ([pass_wall_s]) and the request percentiles. *)
  let run ~seed ~seconds =
    with_state_dir "serve-mixed" @@ fun root ->
    let dir = Filename.concat root "measured" in
    let t, setup0 = Meter.scaled (start ~seed ~dir) in
    let samples, twins =
      Fun.protect
        ~finally:(fun () -> Serve_mix.stop t)
        (fun () ->
          let ps = passes ~seconds (fun () -> Serve_mix.run t) in
          (ps, Serve_mix.twins_match t ~passes:(List.length ps) ~dir))
    in
    let ps = List.map fst samples in
    let peak = Meter.peak_rss_mb () in
    let k = ref 0 in
    let fresh () =
      incr k;
      start ~seed ~dir:(Filename.concat root (string_of_int !k)) ()
    in
    let release t =
      Serve_mix.stop t;
      Meter.rm_rf (Ewalk_serve.Daemon.state_dir t.Serve_mix.daemon)
    in
    let setup = extra_setups setup0 ~setup:fresh ~release in
    let cat f = Array.concat (List.map f ps) in
    let pooled =
      {
        (List.hd ps) with
        round_s =
          Array.concat
            (List.map
               (fun ((p : Serve_mix.pass), (s : Meter.sample)) ->
                 Array.map (fun r -> r *. s.nominal_s /. s.wall_s) p.round_s)
               samples);
        hot_ms = cat (fun p -> p.Serve_mix.hot_ms);
        cold_ms = cat (fun p -> p.Serve_mix.cold_ms);
      }
    in
    let attempted = sum Serve_mix.attempted ps in
    let failed = sum (fun p -> p.Serve_mix.failed) ps in
    {
      checks =
        [
          ("every_response_200", failed = 0);
          ("rehydrations_eq_cold_requests", List.for_all Layers.serve_ok ps);
          ("sessions_equal_never_hibernated_twins", twins);
        ];
      attempted;
      failed;
      metrics =
        end_to_end ~setup
          ~run:(fl shape.rounds *. Meter.quantile pooled.round_s 0.25)
          ~peak;
      report =
        wall_report ~setup ~passes:(Array.of_list (List.map snd samples))
        @ Layers.latency_metrics "" pooled
        @ [ failed_frac ~attempted ~failed ];
    }

  let traced ~seed =
    with_state_dir "serve-mixed" @@ fun root ->
    let untraced =
      let dir = Filename.concat root "untraced" in
      let t, setup = Meter.timed (start ~seed ~dir) in
      Fun.protect
        ~finally:(fun () -> Serve_mix.stop t)
        (fun () -> setup +. (Serve_mix.run t).wall_s)
    in
    let dir = Filename.concat root "traced" in
    (* Session creates are HTTP requests too. *)
    let (t, p), traced =
      Meter.timed (fun () ->
          let t =
            Meter.with_span "http" (fun () -> Serve_mix.start shape ~seed ~dir)
          in
          (t, Serve_mix.run ~span:(Meter.with_span "http") t))
    in
    let accounted = Meter.self_s "http" in
    let serve, twins =
      Fun.protect
        ~finally:(fun () -> Serve_mix.stop t)
        (fun () ->
          (Layers.serve_metrics t p, Serve_mix.twins_match t ~passes:1 ~dir))
    in
    (* What the registry does on each create (build the graph), and a
       walk to cover on each session's graph. *)
    let built =
      List.init (shape.hot + shape.cold) (fun i ->
          let c = Serve_mix.session_config ~seed shape i in
          Layers.gen_csr (fun () ->
              let rng = Rng.create ~seed:c.seed () in
              (Families.build c.family rng ~n:c.n, rng)))
    in
    let walks =
      List.map
        (fun (g, rng, _) ->
          Meter.with_span "walk" (fun () ->
              Layers.cover_walk ~observe:false g rng))
        built
    in
    let steps = sum (fun (w : Layers.walk) -> w.steps) walks in
    let main =
      Layers.gen_metrics
        ~words:(sumf (fun (_, _, w) -> w) built)
        ~edges:(sum (fun (g, _, _) -> Graph.m g) built)
      @ Layers.walk_metrics ~secs:(Meter.self_s "walk") ~steps
          ~words:(sumf (fun (w : Layers.walk) -> w.words) walks)
          ~blue_frac:
            (fl (sum (fun (w : Layers.walk) -> w.blue) walks) /. fl steps)
          ~vertices:(sum (fun (g, _, _) -> Graph.n g) built)
    in
    let g0, rng0, _ = List.hd built in
    let obs, agree = Layers.observe_overhead g0 rng0 ~reps:21 in
    let layers = data_plane ~seed g0 in
    let durable, durable_checks = durability ~seed ~dir:root in
    let pool, pool_ok = Layers.pool_probe ~seed in
    {
      checks =
        durable_checks
        @ [
            ("every_response_200", p.failed = 0);
            ("rehydrations_eq_cold_requests", Layers.serve_ok p);
            ("sessions_equal_never_hibernated_twins", twins);
            ("walks_cover", uncovered walks = 0);
            ("observe_twins_agree", agree);
            ("pool_probe_covers", pool_ok);
          ];
      attempted = Serve_mix.attempted p;
      failed = p.failed;
      metrics =
        main @ layers @ durable @ pool @ serve
        @ [ ("observe.overhead_frac", obs, "frac") ]
        @ trace_metrics ~traced ~untraced ~accounted;
      report = [];
    }
end
