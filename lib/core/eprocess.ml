open Ewalk_graph
module Rng = Ewalk_prng.Rng

type approx = Bloom of { bits_per_edge : int; hashes : int }

(* Approximate visited tracking: a Bloom filter over edge ids replaces
   the exact partition.  [fp_hits]/[unvisited_queries] quantify the
   distortion against the exact coverage table, which stays ground
   truth: a "hit" is a step-time query of a truly-unvisited edge that
   the filter claimed was visited. *)
type approx_state = {
  filter : Bloom.t;
  mutable fp_hits : int;
  mutable unvisited_queries : int;
}

type marks = Exact of Compact.t | Approx of approx_state

type t = {
  g : Graph.t;
  rng : Rng.t;
  rule : rule;
  mutable pos : Graph.vertex;
  mutable steps : int;
  mutable blue_steps : int;
  mutable red_steps : int;
  coverage : Coverage.t;
  marks : marks;
  record_phases : bool;
  (* The phase in progress, unboxed so a transition allocates nothing;
     [phase_step] is -1 before the first step. *)
  mutable phase_kind : phase_kind;
  mutable phase_step : int;
  mutable phase_vertex : Graph.vertex;
  mutable phases : phase list; (* reversed *)
  mutable observer : (Ewalk_obs.Trace.event -> unit) option;
  mutable phase_observer : (Ewalk_obs.Trace.event -> unit) option;
}

and rule =
  | Uar
  | Lowest_slot
  | Highest_slot
  | Adversarial of (t -> Graph.edge array -> int)

and phase_kind = Blue | Red

and phase = {
  kind : phase_kind;
  start_step : int;
  start_vertex : Graph.vertex;
  end_step : int;
  end_vertex : Graph.vertex;
}

let create ?(rule = Uar) ?(record_phases = false) ?approx g rng ~start =
  if Graph.n g = 0 then invalid_arg "Eprocess.create: empty graph";
  if start < 0 || start >= Graph.n g then
    invalid_arg "Eprocess.create: start out of range";
  let coverage = Coverage.create g in
  Coverage.record_start coverage start;
  let marks =
    match approx with
    | None -> Exact (Compact.create g)
    | Some (Bloom { bits_per_edge; hashes }) ->
        if bits_per_edge < 1 then
          invalid_arg "Eprocess.create: bits_per_edge < 1";
        let bits = max 8 (bits_per_edge * Graph.m g) in
        Approx
          { filter = Bloom.create ~bits ~hashes; fp_hits = 0;
            unvisited_queries = 0 }
  in
  {
    g;
    rng;
    rule;
    pos = start;
    steps = 0;
    blue_steps = 0;
    red_steps = 0;
    coverage;
    marks;
    record_phases;
    phase_kind = Blue;
    phase_step = -1;
    phase_vertex = 0;
    phases = [];
    observer = None;
    phase_observer = None;
  }

let graph t = t.g
let position t = t.pos
let steps t = t.steps
let blue_steps t = t.blue_steps
let red_steps t = t.red_steps
let coverage t = t.coverage

(* Scan [v]'s adjacency against the filter, slot by slot (a self-loop
   contributes both slots, matching [Compact.count]).  [account] is set
   only on the step path so accessor calls never disturb the FP stats. *)
let approx_count ?(account = false) t a v =
  let deg = Graph.degree t.g v in
  let c = ref 0 in
  for i = 0 to deg - 1 do
    let e = Graph.neighbor_edge t.g v i in
    let believed = Bloom.mem a.filter e in
    if account && not (Coverage.edge_visited t.coverage e) then begin
      a.unvisited_queries <- a.unvisited_queries + 1;
      if believed then a.fp_hits <- a.fp_hits + 1
    end;
    if not believed then incr c
  done;
  !c

let approx_nth t a v idx =
  let deg = Graph.degree t.g v in
  let seen = ref 0 and found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < deg do
    if not (Bloom.mem a.filter (Graph.neighbor_edge t.g v !i)) then begin
      if !seen = idx then found := Graph.adj_start t.g v + !i;
      incr seen
    end;
    incr i
  done;
  assert (!found >= 0);
  !found

let approx_last t a v =
  let deg = Graph.degree t.g v in
  let found = ref (-1) and i = ref (deg - 1) in
  while !found < 0 && !i >= 0 do
    if not (Bloom.mem a.filter (Graph.neighbor_edge t.g v !i)) then
      found := Graph.adj_start t.g v + !i;
    decr i
  done;
  assert (!found >= 0);
  !found

let blue_degree t v =
  match t.marks with
  | Exact c -> Compact.count c v
  | Approx a -> approx_count t a v

let unvisited_incident t v =
  match t.marks with
  | Exact c -> Compact.incident_edges c v
  | Approx a ->
      let deg = Graph.degree t.g v in
      let seen = Hashtbl.create (2 * deg) in
      let out = ref [] in
      for i = deg - 1 downto 0 do
        let e = Graph.neighbor_edge t.g v i in
        if (not (Bloom.mem a.filter e)) && not (Hashtbl.mem seen e) then begin
          Hashtbl.add seen e ();
          out := e :: !out
        end
      done;
      Array.of_list !out

let in_blue_phase t = blue_degree t t.pos > 0

let approx_mode t =
  match t.marks with
  | Exact _ -> None
  | Approx a ->
      Some
        (Bloom
           {
             bits_per_edge = Bloom.size a.filter / max 1 (Graph.m t.g);
             hashes = Bloom.hashes a.filter;
           })

let approx_filter t =
  match t.marks with Exact _ -> None | Approx a -> Some a.filter

let approx_distortion t =
  match t.marks with
  | Exact _ -> None
  | Approx a -> Some (a.fp_hits, a.unvisited_queries)

let set_observer t obs = t.observer <- obs
let set_phase_observer t obs = t.phase_observer <- obs

let emit_phase t kind =
  match (t.observer, t.phase_observer) with
  | None, None -> ()
  | o, po ->
      let ev =
        Ewalk_obs.Trace.Phase
          {
            step = t.steps;
            kind =
              (match kind with
              | Blue -> Ewalk_obs.Trace.Blue
              | Red -> Ewalk_obs.Trace.Red);
            vertex = t.pos;
          }
      in
      (match o with Some f -> f ev | None -> ());
      (match po with Some f -> f ev | None -> ())

let record_phase_transition t next_is_blue =
  let now_kind = if next_is_blue then Blue else Red in
  if t.phase_step < 0 || t.phase_kind <> now_kind then begin
    if t.phase_step >= 0 && t.record_phases then
      t.phases <-
        {
          kind = t.phase_kind;
          start_step = t.phase_step;
          start_vertex = t.phase_vertex;
          end_step = t.steps;
          end_vertex = t.pos;
        }
        :: t.phases;
    t.phase_kind <- now_kind;
    t.phase_step <- t.steps;
    t.phase_vertex <- t.pos;
    emit_phase t now_kind
  end

let choose_blue_slot_exact t c k =
  let v = t.pos in
  match t.rule with
  | Uar -> Compact.live_slot c v (Rng.int t.rng k)
  | Lowest_slot ->
      let best = ref (Compact.live_slot c v 0) in
      for i = 1 to k - 1 do
        let p = Compact.live_slot c v i in
        if p < !best then best := p
      done;
      !best
  | Highest_slot ->
      let best = ref (Compact.live_slot c v 0) in
      for i = 1 to k - 1 do
        let p = Compact.live_slot c v i in
        if p > !best then best := p
      done;
      !best
  | Adversarial f ->
      let candidates = Compact.incident_edges c v in
      let idx = f t candidates in
      let idx = max 0 (min idx (Array.length candidates - 1)) in
      Compact.slot_with_edge c v candidates.(idx)

let choose_blue_slot_approx t a k =
  let v = t.pos in
  match t.rule with
  | Uar -> approx_nth t a v (Rng.int t.rng k)
  | Lowest_slot -> approx_nth t a v 0
  | Highest_slot -> approx_last t a v
  | Adversarial f ->
      let candidates = unvisited_incident t v in
      let idx = f t candidates in
      let idx = max 0 (min idx (Array.length candidates - 1)) in
      let e = candidates.(idx) in
      let deg = Graph.degree t.g v in
      let found = ref (-1) and i = ref 0 in
      while !found < 0 && !i < deg do
        if Graph.neighbor_edge t.g v !i = e then
          found := Graph.adj_start t.g v + !i;
        incr i
      done;
      assert (!found >= 0);
      !found

let step t =
  let v = t.pos in
  let deg = Graph.degree t.g v in
  if deg = 0 then invalid_arg "Eprocess.step: isolated vertex";
  let k =
    match t.marks with
    | Exact c -> Compact.count c v
    | Approx a -> approx_count ~account:true t a v
  in
  let blue = k > 0 in
  record_phase_transition t blue;
  let slot =
    if blue then
      match t.marks with
      | Exact c -> choose_blue_slot_exact t c k
      | Approx a -> choose_blue_slot_approx t a k
    else Graph.adj_start t.g v + Rng.int t.rng deg
  in
  let w = Graph.slot_vertex t.g slot in
  let e = Graph.slot_edge t.g slot in
  t.steps <- t.steps + 1;
  if blue then begin
    t.blue_steps <- t.blue_steps + 1;
    match t.marks with
    | Exact c -> Compact.retire_edge c e
    | Approx a -> Bloom.add a.filter e
  end
  else t.red_steps <- t.red_steps + 1;
  Coverage.record_edge t.coverage ~step:t.steps e;
  t.pos <- w;
  Coverage.record_move t.coverage ~step:t.steps w;
  match t.observer with
  | None -> ()
  | Some f ->
      f (Ewalk_obs.Trace.Step { step = t.steps; vertex = w; edge = e; blue })

(* Tight driver loops for the full-scale benchmarks: the same [step]
   body in a plain counted/conditional loop, skipping the generic
   {!Cover} runner's per-step closure dispatch.  Draw-for-draw identical
   to stepping through the adapter. *)

let run_steps t k =
  if k < 0 then invalid_arg "Eprocess.run_steps: negative step count";
  for _ = 1 to k do
    step t
  done

let run_to_vertex_cover ?cap t =
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_vertices_visited t.coverage)) && t.steps < cap do
    step t
  done;
  Coverage.vertex_cover_step t.coverage

let run_to_edge_cover ?cap t =
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_edges_visited t.coverage)) && t.steps < cap do
    step t
  done;
  Coverage.edge_cover_step t.coverage

let phase_log t = List.rev t.phases

type rule_id = [ `Uar | `Lowest_slot | `Highest_slot ]

type checkpoint = {
  ck_rule : rule_id;
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_blue_steps : int;
  ck_red_steps : int;
  ck_rng : int64 array;
  ck_coverage : Coverage.state;
  ck_unvisited : Unvisited.state;
  ck_record_phases : bool;
  ck_current_phase : (phase_kind * int * Graph.vertex) option;
  ck_phases : phase list;
}

let checkpoint t =
  let ck_rule =
    match t.rule with
    | Uar -> `Uar
    | Lowest_slot -> `Lowest_slot
    | Highest_slot -> `Highest_slot
    | Adversarial _ ->
        invalid_arg
          "Eprocess.checkpoint: an adversarial rule is a closure and cannot \
           be serialized"
  in
  let ck_unvisited =
    match t.marks with
    | Exact c -> Compact.save c
    | Approx _ ->
        invalid_arg
          "Eprocess.checkpoint: the Bloom visited mode is lossy and cannot \
           be serialized"
  in
  {
    ck_rule;
    ck_pos = t.pos;
    ck_steps = t.steps;
    ck_blue_steps = t.blue_steps;
    ck_red_steps = t.red_steps;
    ck_rng = Rng.save t.rng;
    ck_coverage = Coverage.save t.coverage;
    ck_unvisited;
    ck_record_phases = t.record_phases;
    ck_current_phase =
      (if t.phase_step < 0 then None
       else Some (t.phase_kind, t.phase_step, t.phase_vertex));
    ck_phases = List.rev t.phases;
  }

let of_checkpoint g ck =
  if ck.ck_pos < 0 || ck.ck_pos >= Graph.n g then
    invalid_arg "Eprocess.of_checkpoint: position out of range";
  if
    ck.ck_steps < 0 || ck.ck_blue_steps < 0 || ck.ck_red_steps < 0
    || ck.ck_blue_steps + ck.ck_red_steps <> ck.ck_steps
  then invalid_arg "Eprocess.of_checkpoint: inconsistent step counters";
  let phase_kind, phase_step, phase_vertex =
    match ck.ck_current_phase with
    | None -> (Blue, -1, 0)
    | Some (_, s, _) when s < 0 ->
        invalid_arg "Eprocess.of_checkpoint: phase starts before step 0"
    | Some p -> p
  in
  {
    g;
    rng = Rng.restore ck.ck_rng;
    rule =
      (match ck.ck_rule with
      | `Uar -> Uar
      | `Lowest_slot -> Lowest_slot
      | `Highest_slot -> Highest_slot);
    pos = ck.ck_pos;
    steps = ck.ck_steps;
    blue_steps = ck.ck_blue_steps;
    red_steps = ck.ck_red_steps;
    coverage = Coverage.restore g ck.ck_coverage;
    marks = Exact (Compact.restore g ck.ck_unvisited);
    record_phases = ck.ck_record_phases;
    phase_kind;
    phase_step;
    phase_vertex;
    phases = List.rev ck.ck_phases;
    observer = None;
    phase_observer = None;
  }

let name t =
  let base =
    match t.rule with
    | Uar -> "e-process(uar)"
    | Lowest_slot -> "e-process(lowest-slot)"
    | Highest_slot -> "e-process(highest-slot)"
    | Adversarial _ -> "e-process(adversarial)"
  in
  match t.marks with Exact _ -> base | Approx _ -> base ^ "[bloom]"

let process t =
  {
    Cover.name = name t;
    graph = t.g;
    position = (fun () -> t.pos);
    step = (fun () -> step t);
    steps_done = (fun () -> t.steps);
    coverage = t.coverage;
  }
