type vertex = int
type edge = int

type t = {
  n : int;
  m : int;
  xadj : int array; (* n + 1 row offsets into the slot arrays *)
  adj_vertex : int array; (* 2m: neighbour stored at each slot *)
  adj_edge : int array; (* 2m: undirected edge id stored at each slot *)
  edge_u : int array; (* m *)
  edge_v : int array; (* m *)
  edge_pos : int array; (* 2m: slots of edge e at indices 2e and 2e+1 *)
}

(* Validate, then lay out the CSR.  [name] prefixes the error messages
   so each public constructor reports under its own name. *)
let build ~name ~n edge_u edge_v =
  if n < 0 then invalid_arg (name ^ ": n < 0");
  let m = Array.length edge_u in
  if Array.length edge_v <> m then
    invalid_arg (name ^ ": endpoint arrays differ in length");
  for e = 0 to m - 1 do
    let u = edge_u.(e) and v = edge_v.(e) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg (name ^ ": vertex out of range")
  done;
  let xadj = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let u = edge_u.(e) + 1 and v = edge_v.(e) + 1 in
    xadj.(u) <- xadj.(u) + 1;
    xadj.(v) <- xadj.(v) + 1
  done;
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + xadj.(v + 1)
  done;
  let cursor = Array.sub xadj 0 n in
  let adj_vertex = Array.make (2 * m) 0 in
  let adj_edge = Array.make (2 * m) 0 in
  let edge_pos = Array.make (2 * m) 0 in
  for e = 0 to m - 1 do
    let u = edge_u.(e) and v = edge_v.(e) in
    let pu = cursor.(u) in
    cursor.(u) <- pu + 1;
    adj_vertex.(pu) <- v;
    adj_edge.(pu) <- e;
    edge_pos.(2 * e) <- pu;
    let pv = cursor.(v) in
    cursor.(v) <- pv + 1;
    adj_vertex.(pv) <- u;
    adj_edge.(pv) <- e;
    edge_pos.((2 * e) + 1) <- pv
  done;
  { n; m; xadj; adj_vertex; adj_edge; edge_u; edge_v; edge_pos }

let of_endpoints ~n ~edge_u ~edge_v =
  build ~name:"Graph.of_endpoints" ~n edge_u edge_v

let of_edge_array ~n edges =
  build ~name:"Graph.of_edge_array" ~n (Array.map fst edges)
    (Array.map snd edges)

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let n g = g.n
let m g = g.m

let degree g v = g.xadj.(v + 1) - g.xadj.(v)
let degrees g = Array.init g.n (degree g)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref max_int in
    for v = 0 to g.n - 1 do
      if degree g v < !best then best := degree g v
    done;
    !best
  end

let total_degree g = 2 * g.m

let is_regular g = g.n = 0 || max_degree g = min_degree g

let all_degrees_even g =
  let ok = ref true in
  for v = 0 to g.n - 1 do
    if degree g v land 1 = 1 then ok := false
  done;
  !ok

let endpoints g e = (g.edge_u.(e), g.edge_v.(e))

let opposite g e v =
  if g.edge_u.(e) = v then g.edge_v.(e)
  else if g.edge_v.(e) = v then g.edge_u.(e)
  else invalid_arg "Graph.opposite: vertex is not an endpoint"

let adj_start g v = g.xadj.(v)
let adj_stop g v = g.xadj.(v + 1)
let slot_vertex g p = g.adj_vertex.(p)
let slot_edge g p = g.adj_edge.(p)
let edge_positions g e = (g.edge_pos.(2 * e), g.edge_pos.((2 * e) + 1))
let edge_slot_fst g e = g.edge_pos.(2 * e)
let edge_slot_snd g e = g.edge_pos.((2 * e) + 1)

let neighbor g v i = g.adj_vertex.(g.xadj.(v) + i)
let neighbor_edge g v i = g.adj_edge.(g.xadj.(v) + i)

let iter_neighbors g v f =
  for p = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f g.adj_vertex.(p) g.adj_edge.(p)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w e -> acc := f !acc w e);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc w _ -> w :: acc) [])

let iter_edges g f =
  for e = 0 to g.m - 1 do
    f e g.edge_u.(e) g.edge_v.(e)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun e u v -> acc := f !acc e u v);
  !acc

let edge_list g =
  List.rev (fold_edges g (fun acc _ u v -> (u, v) :: acc) [])

let edge_array g = Array.init g.m (fun e -> (g.edge_u.(e), g.edge_v.(e)))

(* --- cache-conscious relabeling ------------------------------------- *)

type order = Degree_sort | Bfs | Rcm

let inverse_permutation perm =
  let n = Array.length perm in
  let inv = Array.make n (-1) in
  Array.iteri
    (fun old_v new_v ->
      if new_v < 0 || new_v >= n || inv.(new_v) >= 0 then
        invalid_arg "Graph.inverse_permutation: not a permutation";
      inv.(new_v) <- old_v)
    perm;
  inv

(* Visit order of a BFS over the whole graph: start from [root], scan
   neighbours of each dequeued vertex in slot order filtered through
   [rank] (identity for plain BFS, degree-ascending for RCM), restart
   from the lowest-labelled unreached vertex per component. *)
let bfs_order g ~root ~rank =
  let n = g.n in
  let seen = Array.make n false in
  let order = Array.make n 0 in
  let queue = Array.make n 0 in
  let filled = ref 0 in
  let enqueue v =
    if not seen.(v) then begin
      seen.(v) <- true;
      queue.(!filled) <- v;
      incr filled
    end
  in
  let head = ref 0 in
  let next_root = ref 0 in
  enqueue root;
  while !filled < n do
    if !head = !filled then begin
      (* next component: lowest unreached label *)
      while seen.(!next_root) do
        incr next_root
      done;
      enqueue !next_root
    end
    else begin
      let v = queue.(!head) in
      incr head;
      order.(!head - 1) <- v;
      let deg = degree g v in
      let nbrs = Array.init deg (fun i -> g.adj_vertex.(g.xadj.(v) + i)) in
      (match rank with
      | None -> ()
      | Some r ->
          Array.sort
            (fun a b -> if r a <> r b then compare (r a) (r b) else compare a b)
            nbrs);
      Array.iter enqueue nbrs
    end
  done;
  while !head < n do
    let v = queue.(!head) in
    incr head;
    order.(!head - 1) <- v
  done;
  order

let reorder_permutation g order =
  let n = g.n in
  if n = 0 then [||]
  else
    let visit_order =
      match order with
      | Degree_sort ->
          let vs = Array.init n (fun v -> v) in
          Array.sort
            (fun a b ->
              if degree g a <> degree g b then compare (degree g a) (degree g b)
              else compare a b)
            vs;
          vs
      | Bfs -> bfs_order g ~root:0 ~rank:None
      | Rcm ->
          let root = ref 0 in
          for v = n - 1 downto 0 do
            if degree g v <= degree g !root then root := v
          done;
          let o = bfs_order g ~root:!root ~rank:(Some (degree g)) in
          let rev = Array.make n 0 in
          for i = 0 to n - 1 do
            rev.(i) <- o.(n - 1 - i)
          done;
          rev
    in
    (* visit_order.(new) = old; perm.(old) = new *)
    let perm = Array.make n 0 in
    Array.iteri (fun new_v old_v -> perm.(old_v) <- new_v) visit_order;
    perm

let relabel g perm =
  if Array.length perm <> g.n then
    invalid_arg "Graph.relabel: permutation length does not match";
  ignore (inverse_permutation perm);
  (* Edge ids and their order are preserved verbatim; only endpoint labels
     move.  [of_endpoints] assigns each vertex's adjacency slots in
     global edge order, so every vertex's region keeps its relative slot
     order — a walk on the relabelled graph is isomorphic draw-for-draw
     to one on the original. *)
  of_endpoints ~n:g.n
    ~edge_u:(Array.map (fun u -> perm.(u)) g.edge_u)
    ~edge_v:(Array.map (fun v -> perm.(v)) g.edge_v)

let reorder g order =
  let perm = reorder_permutation g order in
  (relabel g perm, perm)

let mem_edge g u v =
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let found = ref false in
  iter_neighbors g a (fun w _ -> if w = b then found := true);
  !found

let count_self_loops g =
  fold_edges g (fun acc _ u v -> if u = v then acc + 1 else acc) 0

let count_parallel_edges g =
  let seen = Hashtbl.create (2 * g.m) in
  fold_edges g
    (fun acc _ u v ->
      if u = v then acc
      else begin
        let key = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen key then acc + 1
        else begin
          Hashtbl.add seen key ();
          acc
        end
      end)
    0

let is_simple g = count_self_loops g = 0 && count_parallel_edges g = 0

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n g.m (min_degree g)
    (max_degree g)
