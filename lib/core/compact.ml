open Ewalk_graph

(* The compact data plane under the E-process hot loop.

   Same swap-to-back partition discipline as the legacy [Unvisited]
   module — per-vertex adjacency regions whose live prefix holds the
   unvisited arc slots — but with the redundant 2m-int slot-owner array
   dropped (retirement is always by edge, and the edge knows its
   endpoints), a bit-packed visited-arc set alongside the partition, and
   a cached retired-arc counter whose ground truth is the bitset's
   popcount.  Because the swap logic is identical, every [live_slot]
   sequence — and therefore every PRNG draw of a walk running on top —
   is bit-identical to the legacy partition's. *)

type fault = Broken_swap | Stale_popcount

type t = {
  g : Graph.t;
  arc_at : int array; (* 2m: per-vertex regions; live prefix, then retired *)
  pos_of : int array; (* 2m: inverse of arc_at *)
  counts : int array; (* n: live arcs per vertex *)
  visited : Bitset.t; (* 2m: bit per directed arc *)
  mutable retired : int; (* cached popcount of [visited] *)
  mutable fault : fault option;
}

let create g =
  let two_m = 2 * Graph.m g in
  {
    g;
    arc_at = Array.init two_m (fun p -> p);
    pos_of = Array.init two_m (fun p -> p);
    counts = Array.init (Graph.n g) (Graph.degree g);
    visited = Bitset.create two_m;
    retired = 0;
    fault = None;
  }

let graph t = t.g
let count t v = Array.unsafe_get t.counts v

let live_slot t v i =
  Array.unsafe_get t.arc_at (Graph.adj_start t.g v + i)

let incident_edges t v =
  let k = t.counts.(v) in
  let seen = Hashtbl.create (2 * k) in
  let out = ref [] in
  for i = k - 1 downto 0 do
    let e = Graph.slot_edge t.g (live_slot t v i) in
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      out := e :: !out
    end
  done;
  Array.of_list !out

let slot_with_edge t v e =
  let k = t.counts.(v) in
  let found = ref (-1) in
  for i = 0 to k - 1 do
    let p = live_slot t v i in
    if !found < 0 && Graph.slot_edge t.g p = e then found := p
  done;
  if !found < 0 then raise Not_found else !found

let retire_arc t ~owner p =
  let i = t.pos_of.(p) in
  let base = Graph.adj_start t.g owner in
  let last = base + t.counts.(owner) - 1 in
  assert (i >= base && i <= last);
  let q = t.arc_at.(last) in
  t.arc_at.(i) <- q;
  (* Broken_swap (mutation battery): forget to reindex the arc swapped
     into the vacated position — the classic swap-to-back bug. *)
  (match t.fault with Some Broken_swap -> () | _ -> t.pos_of.(q) <- i);
  t.arc_at.(last) <- p;
  t.pos_of.(p) <- last;
  t.counts.(owner) <- t.counts.(owner) - 1;
  Bitset.set t.visited p;
  (* Stale_popcount (mutation battery): leave the cached counter behind
     the bitset it is supposed to summarize. *)
  match t.fault with
  | Some Stale_popcount -> ()
  | _ -> t.retired <- t.retired + 1

(* Slot [p] stores the neighbour across its edge, so the owner of each of
   the edge's two slots is [slot_vertex] of the other: no pair is built. *)
let retire_edge t e =
  let p1 = Graph.edge_slot_fst t.g e and p2 = Graph.edge_slot_snd t.g e in
  retire_arc t ~owner:(Graph.slot_vertex t.g p2) p1;
  retire_arc t ~owner:(Graph.slot_vertex t.g p1) p2

let arc_visited t p = Bitset.get t.visited p

let edge_visited t e = Bitset.get t.visited (Graph.edge_slot_fst t.g e)

let retired_arcs t = t.retired
let edges_retired t = t.retired / 2
let recount t = Bitset.popcount t.visited
let counter_consistent t = t.retired = recount t

let set_fault t f = t.fault <- f

(* --- checkpointing -----------------------------------------------------

   The wire format is the legacy [Unvisited.state] record: the bitset and
   the cached counter are fully derived from the partition (an arc is
   visited iff it sits behind its vertex's live prefix), so old snapshots
   restore into the compact representation for free and new snapshots
   stay readable by the legacy module. *)

let save t : Unvisited.state =
  {
    s_slot_list = Array.copy t.arc_at;
    s_slot_index = Array.copy t.pos_of;
    s_counts = Array.copy t.counts;
  }

let restore g (s : Unvisited.state) =
  let n = Graph.n g and two_m = 2 * Graph.m g in
  if
    Array.length s.s_slot_list <> two_m
    || Array.length s.s_slot_index <> two_m
  then invalid_arg "Compact.restore: slot arrays do not match the graph";
  if Array.length s.s_counts <> n then
    invalid_arg "Compact.restore: counts array does not match the graph";
  let owner = Array.make (max two_m 1) 0 in
  for v = 0 to n - 1 do
    for p = Graph.adj_start g v to Graph.adj_stop g v - 1 do
      owner.(p) <- v
    done
  done;
  for p = 0 to two_m - 1 do
    let q = s.s_slot_list.(p) in
    if q < 0 || q >= two_m || s.s_slot_index.(q) <> p then
      invalid_arg "Compact.restore: slot_index is not inverse to slot_list";
    (* Swaps only ever happen within a vertex's own adjacency region. *)
    if owner.(q) <> owner.(p) then
      invalid_arg "Compact.restore: slot moved across vertex regions"
  done;
  for v = 0 to n - 1 do
    if s.s_counts.(v) < 0 || s.s_counts.(v) > Graph.degree g v then
      invalid_arg "Compact.restore: live count out of range"
  done;
  let visited = Bitset.create two_m in
  let retired = ref 0 in
  for p = 0 to two_m - 1 do
    let v = owner.(p) in
    if s.s_slot_index.(p) >= Graph.adj_start g v + s.s_counts.(v) then begin
      Bitset.set visited p;
      incr retired
    end
  done;
  {
    g;
    arc_at = Array.copy s.s_slot_list;
    pos_of = Array.copy s.s_slot_index;
    counts = Array.copy s.s_counts;
    visited;
    retired = !retired;
    fault = None;
  }
