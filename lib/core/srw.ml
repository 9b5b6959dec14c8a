open Ewalk_graph
module Rng = Ewalk_prng.Rng

type kind =
  | Simple
  | Lazy
  | Weighted of { cumulative : float array array }
      (* cumulative.(v) : prefix sums of incident-slot weights at v *)

type t = {
  g : Graph.t;
  rng : Rng.t;
  kind : kind;
  name : string;
  mutable pos : Graph.vertex;
  mutable steps : int;
  coverage : Coverage.t;
  mutable observer : (Ewalk_obs.Trace.event -> unit) option;
}

let make g rng kind name start =
  if start < 0 || start >= Graph.n g then
    invalid_arg "Srw.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  { g; rng; kind; name; pos = start; steps = 0; coverage; observer = None }

let create g rng ~start = make g rng Simple "srw" start
let create_lazy g rng ~start = make g rng Lazy "lazy-srw" start

let create_weighted g rng ~weights ~start =
  if Array.length weights <> Graph.m g then
    invalid_arg "Srw.create_weighted: weight array length <> m";
  Array.iter
    (fun w ->
      if not (w > 0.0) then
        invalid_arg "Srw.create_weighted: non-positive weight")
    weights;
  let cumulative =
    Array.init (Graph.n g) (fun v ->
        let deg = Graph.degree g v in
        let acc = Array.make deg 0.0 in
        let total = ref 0.0 in
        for i = 0 to deg - 1 do
          total := !total +. weights.(Graph.neighbor_edge g v i);
          acc.(i) <- !total
        done;
        acc)
  in
  make g rng (Weighted { cumulative }) "weighted-rw" start

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let coverage t = t.coverage
let set_observer t obs = t.observer <- obs

let emit_step t ~edge =
  match t.observer with
  | None -> ()
  | Some f ->
      f
        (Ewalk_obs.Trace.Step
           { step = t.steps; vertex = t.pos; edge; blue = false })

let pick_weighted_slot t v cumulative =
  let acc = cumulative.(v) in
  let deg = Array.length acc in
  let total = acc.(deg - 1) in
  let x = Rng.float t.rng total in
  (* First index with prefix sum > x (binary search). *)
  let lo = ref 0 and hi = ref (deg - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if acc.(mid) > x then hi := mid else lo := mid + 1
  done;
  Graph.adj_start t.g v + !lo

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Srw.step: isolated vertex";
  t.steps <- t.steps + 1;
  let stay = match t.kind with Lazy -> Rng.bool t.rng | _ -> false in
  if stay then begin
    Coverage.record_move t.coverage ~step:t.steps v;
    emit_step t ~edge:(-1)
  end
  else begin
    let slot =
      match t.kind with
      | Weighted { cumulative } -> pick_weighted_slot t v cumulative
      | Simple | Lazy -> Graph.adj_start t.g v + Rng.int t.rng deg
    in
    let w = Graph.slot_vertex t.g slot in
    let e = Graph.slot_edge t.g slot in
    Coverage.record_edge t.coverage ~step:t.steps e;
    t.pos <- w;
    Coverage.record_move t.coverage ~step:t.steps w;
    emit_step t ~edge:e
  end

let run_steps t k =
  if k < 0 then invalid_arg "Srw.run_steps: negative step count";
  for _ = 1 to k do
    step t
  done

let run_to_vertex_cover ?cap t =
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_vertices_visited t.coverage)) && t.steps < cap do
    step t
  done;
  Coverage.vertex_cover_step t.coverage

let name t = t.name

let process t =
  {
    Cover.name = t.name;
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }

type checkpoint = {
  ck_kind : [ `Simple | `Lazy ];
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_rng : int64 array;
  ck_coverage : Coverage.state;
}

let checkpoint t =
  let ck_kind =
    match t.kind with
    | Simple -> `Simple
    | Lazy -> `Lazy
    | Weighted _ ->
        invalid_arg
          "Srw.checkpoint: weighted walks are not serializable (weights are \
           not retained)"
  in
  {
    ck_kind;
    ck_pos = t.pos;
    ck_steps = t.steps;
    ck_rng = Rng.save t.rng;
    ck_coverage = Coverage.save t.coverage;
  }

let of_checkpoint g ck =
  if ck.ck_pos < 0 || ck.ck_pos >= Graph.n g then
    invalid_arg "Srw.of_checkpoint: position out of range";
  if ck.ck_steps < 0 then
    invalid_arg "Srw.of_checkpoint: negative step counter";
  let kind, name =
    match ck.ck_kind with
    | `Simple -> (Simple, "srw")
    | `Lazy -> (Lazy, "lazy-srw")
  in
  {
    g;
    rng = Rng.restore ck.ck_rng;
    kind;
    name;
    pos = ck.ck_pos;
    steps = ck.ck_steps;
    coverage = Coverage.restore g ck.ck_coverage;
    observer = None;
  }

let hitting_time ?cap g rng ~from ~target =
  let t = create g rng ~start:from in
  let cap = match cap with Some c -> c | None -> Cover.default_cap g in
  if from = target then Some 0
  else begin
    let found = ref false in
    while (not !found) && t.steps < cap do
      step t;
      if t.pos = target then found := true
    done;
    if !found then Some t.steps else None
  end
