open Ewalk_graph

type process = {
  name : string;
  graph : Graph.t;
  position : unit -> Graph.vertex;
  step : unit -> unit;
  steps_done : unit -> int;
  coverage : Coverage.t;
}

let default_cap g =
  let n = float_of_int (max 2 (Graph.n g)) in
  int_of_float (2000.0 *. n *. (log n +. 1.0)) + 100_000

(* Ambient flight-recorder boundaries: one enabled-check per run (never
   per step), so the crash post-mortem knows which run was in flight even
   when no trace sink is attached.  A run entered with steps already done
   announces itself as a resumed tail, which is what the replay verifier
   expects of a partial stream. *)
let flight_run_start p =
  if Ewalk_obs.Flight.ambient_active () then begin
    let n = Coverage.total_vertices p.coverage
    and m = Coverage.total_edges p.coverage in
    let k = p.steps_done () in
    Ewalk_obs.Trace.prologue
      ?resumed_at:(if k > 0 then Some k else None)
      ~name:p.name ~n ~m ~start:(p.position ()) Ewalk_obs.Flight.record
  end

let flight_run_end p =
  if Ewalk_obs.Flight.ambient_active () then
    Ewalk_obs.Flight.record
      (Ewalk_obs.Trace.Run_end
         {
           steps = p.steps_done ();
           covered = Coverage.all_vertices_visited p.coverage;
         })

let run_until ?(cap = max_int) p ~finished ~result =
  flight_run_start p;
  let gave_up = ref false in
  while (not (finished ())) && not !gave_up do
    if p.steps_done () >= cap then gave_up := true else p.step ()
  done;
  flight_run_end p;
  if finished () then Some (result ()) else None

let run_until_vertex_cover ?cap p =
  run_until ?cap p
    ~finished:(fun () -> Coverage.all_vertices_visited p.coverage)
    ~result:(fun () ->
      match Coverage.vertex_cover_step p.coverage with
      | Some t -> t
      | None -> assert false)

let run_until_edge_cover ?cap p =
  run_until ?cap p
    ~finished:(fun () -> Coverage.all_edges_visited p.coverage)
    ~result:(fun () ->
      match Coverage.edge_cover_step p.coverage with
      | Some t -> t
      | None -> assert false)

let run_until_min_visits ?(cap = max_int) ~k p =
  if k < 0 then invalid_arg "Cover.run_until_min_visits: k < 0";
  (* Scanning the visit counts costs O(n); amortise it by only checking
     after the cheap necessary condition (full vertex coverage) holds, and
     then at most every [n] steps. *)
  let n = Graph.n p.graph in
  let satisfied () =
    Coverage.all_vertices_visited p.coverage
    && Coverage.min_visit_count p.coverage >= k
  in
  flight_run_start p;
  let gave_up = ref false in
  let done_ = ref (satisfied ()) in
  while (not !done_) && not !gave_up do
    if p.steps_done () >= cap then gave_up := true
    else begin
      let burst = max 1 (n / 4) in
      let i = ref 0 in
      while !i < burst && p.steps_done () < cap do
        p.step ();
        incr i
      done;
      done_ := satisfied ()
    end
  done;
  flight_run_end p;
  if !done_ then Some (p.steps_done ()) else None

let run_steps p k =
  for _ = 1 to k do
    p.step ()
  done

let with_step_hook p ~hook =
  {
    p with
    step =
      (fun () ->
        p.step ();
        hook p);
  }
