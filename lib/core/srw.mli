(** Simple, lazy, and weighted random walks — the paper's baselines.

    The simple random walk is the process whose [Omega(n log n)] cover time
    (Feige; Theorem 5) the E-process beats.  The lazy walk (stay put with
    probability 1/2) is the standard fix for bipartite periodicity
    (Section 2.1).  The weighted walk covers the full generality of
    Theorem 5: transition probabilities proportional to positive edge
    weights. *)

open Ewalk_graph

type t

val create : Graph.t -> Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** A simple random walk at [start].
    @raise Invalid_argument if [start] is out of range. *)

val create_lazy : Graph.t -> Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** Lazy variant: each step stays with probability 1/2. A lazy "stay" counts
    as one transition (visiting the current vertex again). *)

val create_weighted :
  Graph.t -> Ewalk_prng.Rng.t -> weights:float array -> start:Graph.vertex -> t
(** Reversible weighted walk: from [x], traverse edge [e] with probability
    [w(e) / sum of incident weights] (a self-loop counts its weight twice,
    mirroring the slot convention).
    @raise Invalid_argument if any weight is non-positive or the array
    length differs from [m]. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
val coverage : t -> Coverage.t

val step : t -> unit
(** One transition.  @raise Invalid_argument on an isolated vertex. *)

val run_steps : t -> int -> unit
(** [run_steps t k]: [k] transitions in a tight loop, draw-for-draw
    identical to [k] calls of {!step} (the full-scale benchmark path). *)

val run_to_vertex_cover : ?cap:int -> t -> int option
(** Step until every vertex is visited (or [cap] steps, default
    {!Cover.default_cap}); returns the cover step if reached. *)

val set_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove) a per-step trace observer; every transition emits a
    {!Ewalk_obs.Trace.Step} event ([blue] always false; [edge = -1] for a
    lazy stay).  Prefer {!Observe.attach_srw}. *)

val name : t -> string
(** ["srw"], ["lazy-srw"] or ["weighted-rw"]. *)

val process : t -> Cover.process

(** {2 Checkpointing} *)

type checkpoint = {
  ck_kind : [ `Simple | `Lazy ];
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_rng : int64 array;
  ck_coverage : Coverage.state;
}
(** Plain-data walk state for the simple and lazy variants (weighted walks
    do not retain their weight table and are excluded). *)

val checkpoint : t -> checkpoint
(** @raise Invalid_argument on a weighted walk. *)

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild the walk; the observer is not restored.
    @raise Invalid_argument if the checkpoint does not fit the graph. *)

val hitting_time :
  ?cap:int -> Graph.t -> Ewalk_prng.Rng.t -> from:Graph.vertex ->
  target:Graph.vertex -> int option
(** Empirical first-visit time of [target] by a fresh simple walk from
    [from]; [None] if [cap] (default {!Cover.default_cap}) elapses. *)
