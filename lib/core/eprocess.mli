(** The E-process: a random walk that prefers unvisited edges.

    This is the paper's object of study.  At each step, if the current
    vertex has unvisited ("blue") incident edges, the process moves along
    one of them — chosen by an arbitrary {!rule} [A] — and marks it visited
    ("red"); otherwise it performs a plain simple-random-walk step along a
    uniformly random incident (necessarily red) edge.

    Theorem 1's cover-time bound is independent of the rule, including
    adversarial online rules, which is why the rule is a first-class
    parameter here.

    The unvisited-edge bookkeeping is O(1) per step for the uniform rule
    (swap-partition over adjacency slots) and O(degree) for the scanning
    rules — constant for the bounded-degree graphs the theorems cover.

    The process also tracks the red/blue {e phase} structure used throughout
    the paper's proofs: a blue phase is a maximal run of unvisited-edge
    transitions, a red phase a maximal run of random-walk transitions.
    Observation 10 (blue phases on even-degree graphs end where they began)
    is checked by the test suite through {!phase_log}. *)

open Ewalk_graph

type t

type rule =
  | Uar  (** uniform among unvisited incident edges — the "greedy random
             walk" of Orenshtein–Shinkar *)
  | Lowest_slot
      (** deterministic: first unvisited edge in adjacency order *)
  | Highest_slot
      (** deterministic: last unvisited edge in adjacency order *)
  | Adversarial of (t -> Graph.edge array -> int)
      (** online adversary: sees the full process state and the candidate
          unvisited incident edges, returns the index of its choice.  An
          out-of-range answer is clamped. *)

type phase_kind = Blue | Red

type phase = {
  kind : phase_kind;
  start_step : int; (** step count when the phase began *)
  start_vertex : Graph.vertex;
  end_step : int; (** step count when the phase ended *)
  end_vertex : Graph.vertex;
}

type approx = Bloom of { bits_per_edge : int; hashes : int }
(** Opt-in approximate visited tracking for memory-constrained runs: a
    {!Bloom} filter of [bits_per_edge * m] bits (at least 8) with the
    given probe count replaces the exact unvisited-arc partition.  False
    positives make the process believe an unvisited edge is visited and
    skip it — a blue step degrades to a red one — so cover still
    completes but the blue/red split is distorted; {!approx_distortion}
    measures by how much against the exact {!Coverage} table, which
    stays ground truth.  Approx processes are not checkpointable. *)

val create :
  ?rule:rule -> ?record_phases:bool -> ?approx:approx -> Graph.t ->
  Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** [create g rng ~start] initialises the process at [start] with every edge
    unvisited.  Default rule: {!Uar}.  [record_phases] (default [false])
    retains the full phase log for invariant checking.  [approx] (default
    exact) switches visited tracking to a Bloom filter.
    @raise Invalid_argument if [start] is out of range, [g] has no
    vertices, or the approx parameters are degenerate. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
(** Total transitions so far ([blue_steps + red_steps]). *)

val blue_steps : t -> int
(** Transitions along previously unvisited edges. *)

val red_steps : t -> int
(** Simple-random-walk transitions (the embedded walk [W] of Obs. 12). *)

val coverage : t -> Coverage.t

val blue_degree : t -> Graph.vertex -> int
(** Number of unvisited edges incident with the vertex right now. *)

val unvisited_incident : t -> Graph.vertex -> Graph.edge array
(** The unvisited incident edges (fresh array, unspecified order). *)

val in_blue_phase : t -> bool
(** [true] iff the {e next} transition would follow an unvisited edge. *)

val approx_mode : t -> approx option
(** The approximate-visited configuration, [None] for an exact process.
    [bits_per_edge] is recovered as [size/m] and may round down from the
    value passed to {!create}. *)

val approx_filter : t -> Bloom.t option
(** The live filter of an approx process (shared, not a copy). *)

val approx_distortion : t -> (int * int) option
(** [(fp_hits, unvisited_queries)]: of the step-path membership queries
    against truly-unvisited edges so far, how many the filter wrongly
    reported visited.  [None] for an exact process. *)

val step : t -> unit
(** Perform one transition.  @raise Invalid_argument if the current vertex
    is isolated. *)

val run_steps : t -> int -> unit
(** [run_steps t k]: [k] transitions in a tight loop — draw-for-draw
    identical to [k] calls of {!step}, without the generic runner's
    per-step closure dispatch.  The full-scale benchmark path. *)

val run_to_vertex_cover : ?cap:int -> t -> int option
(** Step until every vertex is visited (or [cap] steps, default
    {!Cover.default_cap}); returns the cover step if reached. *)

val run_to_edge_cover : ?cap:int -> t -> int option

val set_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove, with [None]) a per-step trace observer.  With an
    observer present, every transition emits a {!Ewalk_obs.Trace.Step}
    event and every Blue/Red phase boundary a [Phase] event — independent
    of [record_phases].  The default ([None]) costs one pattern match per
    step; use {!Observe.attach_eprocess} rather than calling this
    directly. *)

val set_phase_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove) an observer that sees {e only} [Phase] boundary
    events — no per-step [Step] allocation.  This is the metrics fast
    path's hook: phase transitions are rare (one per maximal blue/red
    run), so phase accounting can stay event-driven while step counting
    reads the process's native counters.  Independent of, and composable
    with, {!set_observer}: with both installed a phase boundary reaches
    the full observer first. *)

val phase_log : t -> phase list
(** Completed phases in chronological order ([] unless [record_phases]).
    The phase currently in progress is not included. *)

val name : t -> string
(** The run name, e.g. ["e-process(uar)"]; a [[bloom]] suffix marks
    approximate visited tracking. *)

val process : t -> Cover.process
(** Adapter for the generic runners in {!Cover}. *)

(** {2 Checkpointing} *)

type rule_id = [ `Uar | `Lowest_slot | `Highest_slot ]
(** Serializable rules.  {!Adversarial} carries a closure and is excluded. *)

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
(** Complete plain-data process state: continuing from a restored
    checkpoint is bit-identical to never having stopped. *)

val checkpoint : t -> checkpoint
(** Capture the full state (PRNG words included).
    @raise Invalid_argument on an {!Adversarial} rule. *)

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild a process over [g].  The observer is not restored; re-attach
    one with {!set_observer} / {!Observe.attach_eprocess} if needed.
    @raise Invalid_argument if the checkpoint does not fit the graph or
    its counters are inconsistent. *)
