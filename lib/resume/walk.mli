(** The snapshottable walks, and the one table from a [--process] spec to
    one of them.

    Six specs name a walk that {!Snapshot} can serialize: the three
    E-process rules ([e-process], [e-process:lowest],
    [e-process:highest]), [srw], [lazy-srw] and [rotor].  A single
    cooperating walker runs the legacy single-walker loop; more walkers,
    or competing mode, run the {!Ewalk_kernel.Engine} (which ports every
    spec but [lazy-srw]).  Both front ends — [eproc] and the [eprocd]
    sessions — build, step, observe and summarize walks only through this
    module. *)

open Ewalk_graph

type t =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Ewalk_kernel.Engine.t

(** {1 Construction} *)

val specs : walkers:int -> mode:Ewalk_kernel.Engine.mode -> string list
(** The specs {!of_spec} accepts for this walker count and mode. *)

val of_spec :
  ?walkers:int ->
  ?mode:Ewalk_kernel.Engine.mode ->
  ?start:Graph.vertex ->
  ?perm:int array ->
  string ->
  Graph.t ->
  Ewalk_prng.Rng.t ->
  t option
(** [of_spec spec g rng] builds the walk [spec] names, or [None] (with
    [rng] untouched) when the spec is not in {!specs}.  [walkers]
    defaults to 1 and [mode] to cooperating.  At one cooperating walker
    the legacy loop starts at [start] (default 0); otherwise the engine
    draws its [walkers] start vertices from [rng] and [start] is unused.
    When [g] is a relabelling, pass [perm] ([perm.(old) = new]): rotor
    offsets and engine start vertices are then drawn in original vertex
    order, so the walk is isomorphic draw-for-draw to the unrelabelled
    one. *)

(** {1 State} *)

val name : t -> string
(** The run name: the legacy process name at one cooperating walker,
    ["kernel-<proc>[w=W,<mode>]"] otherwise. *)

val graph : t -> Graph.t
val mode : t -> Ewalk_kernel.Engine.mode
(** [Competing] only for a competing engine. *)

val steps : t -> int
(** Total steps across all walkers. *)

val position : t -> Graph.vertex
(** The position of the walker that moves next. *)

val covered : t -> bool
(** Every vertex visited: by the shared coverage table, or — competing —
    by every walker on its own. *)

val visit_counts : t -> int * int
(** Distinct vertices and edges visited (competing: the furthest walker's
    counts). *)

(** {1 Stepping} *)

val step : t -> unit
(** One step of the walker that moves next. *)

val run_steps : ?pool:Ewalk_par.Pool.t -> t -> int -> unit
(** Exactly [k] steps, state-identical to [k] calls of {!step}.  Each
    walk runs its own tight loop; a multi-walker engine advances whole
    rounds through {!Ewalk_kernel.Engine.run_rounds} (sharded across
    [pool] in competing mode) and steps the remainder singly. *)

val run_to_cover : ?pool:Ewalk_par.Pool.t -> ?cap:int -> t -> int option
(** Step until the cover milestone or until {!steps} reaches [cap]
    (default {!Ewalk.Cover.default_cap}): full vertex coverage, or —
    competing — the first walker's own cover.  Returns the cover step
    (competing: the first walker's walker-local cover step). *)

(** {1 Observation} *)

val set_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove) the per-step trace observer: every [Step] and
    [Phase] event, walker indices dropped. *)

val process : t -> Ewalk.Cover.process
(** The generic process adapter.  @raise Invalid_argument for a
    competing engine, which has no shared coverage table. *)

val attach : Ewalk.Observe.t -> t -> unit
(** Hook the observation bundle to the walk's native counters and
    events ({!Ewalk.Observe.attach_eprocess} and kin, or
    {!Ewalk_kernel.Kobs.attach}). *)
