(** Compact immutable undirected (multi)graphs with stable edge identifiers.

    The representation is compressed-sparse-row adjacency over [2m] directed
    slots, where each undirected edge [e] owns exactly two slots (one per
    endpoint; a self-loop owns two slots at the same vertex and contributes 2
    to its degree, the standard convention).  Every walk process in
    [Ewalk] is driven off this structure; the E-process additionally needs
    the {e slot positions} of each edge ({!edge_positions}) to maintain its
    unvisited-edge partition in O(1) per step.

    Vertices are [0 .. n-1]; edges are [0 .. m-1] in insertion order. *)

type t

type vertex = int
type edge = int

val of_edges : n:int -> (vertex * vertex) list -> t
(** [of_edges ~n edges] builds a graph on vertices [0 .. n-1].  Parallel
    edges and self-loops are allowed (each listed pair is its own edge).
    @raise Invalid_argument on a vertex outside [0 .. n-1] or [n < 0]. *)

val of_edge_array : n:int -> (vertex * vertex) array -> t
(** Array flavour of {!of_edges}; splits the pairs and calls
    {!of_endpoints}. *)

val of_endpoints : n:int -> edge_u:vertex array -> edge_v:vertex array -> t
(** [of_endpoints ~n ~edge_u ~edge_v] builds the graph whose edge [e]
    joins [edge_u.(e)] and [edge_v.(e)] — the same graph as
    [of_edge_array ~n] on the zipped pairs, with the same edge ids and
    slot order, but without a tuple per edge.  The graph keeps both
    arrays as its own endpoint tables: the caller hands them over and
    must not modify them afterwards.
    @raise Invalid_argument if [n < 0], if the arrays differ in length,
    or on a vertex outside [0 .. n-1]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> vertex -> int
(** [degree g v] counts edge slots at [v]; a self-loop counts 2. *)

val degrees : t -> int array

val max_degree : t -> int
val min_degree : t -> int

val total_degree : t -> int
(** Always [2 * m g]. *)

val is_regular : t -> bool

val all_degrees_even : t -> bool
(** The standing assumption of the paper's main theorems. *)

val endpoints : t -> edge -> vertex * vertex
(** The two endpoints of an edge, in insertion order. *)

val opposite : t -> edge -> vertex -> vertex
(** [opposite g e v] is the endpoint of [e] other than [v] (which is [v]
    itself for a self-loop).  @raise Invalid_argument if [v] is not an
    endpoint of [e]. *)

val adj_start : t -> vertex -> int
val adj_stop : t -> vertex -> int
(** [adj_start g v .. adj_stop g v - 1] are the adjacency slot positions of
    [v]; [adj_stop g v - adj_start g v = degree g v]. *)

val slot_vertex : t -> int -> vertex
(** [slot_vertex g p] is the neighbour stored in slot [p]. *)

val slot_edge : t -> int -> edge
(** [slot_edge g p] is the edge id stored in slot [p]. *)

val edge_positions : t -> edge -> int * int
(** The two adjacency slot positions owned by an edge.  The first lies in
    the adjacency of the first endpoint. *)

val edge_slot_fst : t -> edge -> int
val edge_slot_snd : t -> edge -> int
(** The first and second component of {!edge_positions}, without the
    pair.  Since slot [p] stores the neighbour across its edge, the
    vertex owning one slot is [slot_vertex] of the other. *)

val neighbor : t -> vertex -> int -> vertex
(** [neighbor g v i] is the [i]-th neighbour of [v], [0 <= i < degree g v]. *)

val neighbor_edge : t -> vertex -> int -> edge
(** The edge id leading to [neighbor g v i]. *)

val iter_neighbors : t -> vertex -> (vertex -> edge -> unit) -> unit
(** [iter_neighbors g v f] applies [f w e] for every incident slot. *)

val fold_neighbors : t -> vertex -> ('a -> vertex -> edge -> 'a) -> 'a -> 'a

val neighbors : t -> vertex -> vertex list
(** Neighbour multiset of [v] as a list (slot order). *)

val iter_edges : t -> (edge -> vertex -> vertex -> unit) -> unit

val fold_edges : t -> ('a -> edge -> vertex -> vertex -> 'a) -> 'a -> 'a

val edge_list : t -> (vertex * vertex) list
(** All edges in id order. *)

val edge_array : t -> (vertex * vertex) array
(** All edges in id order (fresh array);
    [of_edge_array ~n:(n g) (edge_array g)] rebuilds the graph
    identically. *)

(** {2 Cache-conscious relabeling}

    Vertex relabeling passes applied before long runs so that vertices
    visited together sit together in the CSR arrays.  The contract that
    makes relabeling observable-output-stable: {!relabel} keeps edge ids
    {e and} the global edge order verbatim — only endpoint labels move —
    and [of_edge_array] assigns each vertex's adjacency slots in global
    edge order, so every vertex's region keeps its relative slot order.
    A walk on the relabelled graph is therefore isomorphic draw-for-draw
    to one on the original: same PRNG draws, same edge ids, vertex
    labels mapped through the permutation.  Mapping trace vertices back
    through {!inverse_permutation} yields byte-identical traces (the
    equivalence battery in test/test_compact.ml enforces this). *)

type order =
  | Degree_sort  (** stable sort by ascending degree *)
  | Bfs  (** breadth-first visit order from vertex 0, slot-order scans *)
  | Rcm
      (** reverse Cuthill–McKee: BFS from a minimum-degree vertex with
          degree-ascending neighbour scans, reversed *)

val reorder_permutation : t -> order -> int array
(** The relabeling as a permutation: [perm.(old) = new].  Disconnected
    components are restarted from the lowest unreached label. *)

val relabel : t -> int array -> t
(** [relabel g perm] rebuilds [g] with vertex [v] renamed [perm.(v)],
    preserving edge ids and edge order.
    @raise Invalid_argument if [perm] is not a permutation of
    [0 .. n-1]. *)

val reorder : t -> order -> t * int array
(** [reorder g o = (relabel g (reorder_permutation g o), perm)]. *)

val inverse_permutation : int array -> int array
(** [inv.(new) = old].  @raise Invalid_argument if the input is not a
    permutation. *)

val mem_edge : t -> vertex -> vertex -> bool
(** [mem_edge g u v] scans the (shorter) adjacency; O(min degree). *)

val count_self_loops : t -> int

val count_parallel_edges : t -> int
(** Number of edges in excess of the first between each vertex pair (a pair
    joined by [k] parallel edges contributes [k - 1]); self-loops are not
    counted here. *)

val is_simple : t -> bool
(** No self-loops and no parallel edges. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line summary ([n], [m], degree range). *)
