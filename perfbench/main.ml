(* perfbench: the repository's end-to-end benchmark.

     perfbench --workload cover-1m|fig1-sweep|serve-mixed
               [--seed N] [--seconds S] [--trace 0|1]

   Untraced (--trace 0) runs report the end-to-end metrics, traced runs
   the per-layer ones.  Human-readable lines come first; the last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics.  The same seed gives the same inputs.  See
   README.md in this directory. *)

module Json = Ewalk_obs.Json

let default_seed = 20120716
let held_out_seed = 1805

let workloads =
  [
    ("cover-1m", Workloads.Cover_1m.(run, traced));
    ("fig1-sweep", Workloads.Fig1_sweep.(run, traced));
    ("serve-mixed", Workloads.Serve_mixed.(run, traced));
  ]

let usage () =
  Printf.eprintf
    "usage: perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n\
     default seed %d, held-out seed %d\n"
    (String.concat "," (List.map fst workloads))
    default_seed held_out_seed;
  exit 2

let parse argv =
  let workload = ref None and seed = ref default_seed in
  let seconds = ref 25.0 and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  match Option.bind !workload (fun w -> List.assoc_opt w workloads) with
  | None -> usage ()
  | Some w -> (Option.get !workload, w, !seed, !seconds, !trace)

let () =
  let name, (run, traced), seed, seconds, trace = parse Sys.argv in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" name seed
    seconds (Bool.to_int trace);
  let o = if trace then traced ~seed else run ~seed ~seconds in
  let line (k, v, u) = Printf.printf "  %-28s %14.6g %s\n" k v u in
  List.iter line o.Workloads.metrics;
  List.iter line o.report;
  List.iter
    (fun (k, ok) ->
      Printf.printf "  check %-42s %s\n" k (if ok then "ok" else "FAIL"))
    o.checks;
  let correct = List.for_all snd o.checks && o.failed = 0 in
  Printf.printf "  verdict %s\n" (if correct then "correct" else "INCORRECT");
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v, u) ->
                     ( k,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String u) ]
                     ))
                   o.metrics) );
          ]))
