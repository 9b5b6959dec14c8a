open Ewalk_graph
module Kengine = Ewalk_kernel.Engine
module Coverage = Ewalk.Coverage

type t =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Kengine.t

(* -- the spec table ------------------------------------------------------ *)

(* Each spec: its engine port (if any) and its legacy single-walker
   constructor. *)
let table =
  let eprocess rule ~start ~perm:_ g rng =
    Eprocess (Ewalk.Eprocess.create ~rule g rng ~start)
  in
  [
    ("e-process", Some Kengine.E_uar, eprocess Ewalk.Eprocess.Uar);
    ( "e-process:lowest",
      Some Kengine.E_lowest,
      eprocess Ewalk.Eprocess.Lowest_slot );
    ( "e-process:highest",
      Some Kengine.E_highest,
      eprocess Ewalk.Eprocess.Highest_slot );
    ( "srw",
      Some Kengine.Srw,
      fun ~start ~perm:_ g rng -> Srw (Ewalk.Srw.create g rng ~start) );
    ( "lazy-srw",
      None,
      fun ~start ~perm:_ g rng -> Srw (Ewalk.Srw.create_lazy g rng ~start) );
    ( "rotor",
      Some Kengine.Rotor,
      fun ~start ~perm g rng ->
        Rotor (Ewalk.Rotor.create ~randomize_rotors:true ?perm g rng ~start) );
  ]

let on_engine ~walkers ~mode = walkers > 1 || mode = Kengine.Competing

let specs ~walkers ~mode =
  List.filter_map
    (fun (spec, kp, _) ->
      if on_engine ~walkers ~mode && kp = None then None else Some spec)
    table

(* Start vertices are drawn in original label space and mapped through
   [perm], so a relabelled engine is isomorphic draw-for-draw to the
   unrelabelled one. *)
let spread ~mode ?perm kp g rng ~walkers =
  match perm with
  | None -> Kengine.create_spread ~mode kp g rng ~walkers
  | Some pm ->
      let starts =
        Array.init walkers (fun _ -> pm.(Ewalk_prng.Rng.int rng (Graph.n g)))
      in
      Kengine.create ~mode ~perm:pm kp g rng ~starts

let of_spec ?(walkers = 1) ?(mode = Kengine.Cooperating) ?(start = 0) ?perm
    spec g rng =
  match List.find_opt (fun (s, _, _) -> s = spec) table with
  | None -> None
  | Some (_, kp, legacy) ->
      if on_engine ~walkers ~mode then
        Option.map (fun kp -> Kernel (spread ~mode ?perm kp g rng ~walkers)) kp
      else Some (legacy ~start ~perm g rng)

(* -- state --------------------------------------------------------------- *)

let name = function
  | Eprocess p -> Ewalk.Eprocess.name p
  | Srw w -> Ewalk.Srw.name w
  | Rotor r -> Ewalk.Rotor.name r
  | Kernel k -> Kengine.name k

let graph = function
  | Eprocess p -> Ewalk.Eprocess.graph p
  | Srw w -> Ewalk.Srw.graph w
  | Rotor r -> Ewalk.Rotor.graph r
  | Kernel k -> Kengine.graph k

let mode = function Kernel k -> Kengine.mode k | _ -> Kengine.Cooperating

let steps = function
  | Eprocess p -> Ewalk.Eprocess.steps p
  | Srw w -> Ewalk.Srw.steps w
  | Rotor r -> Ewalk.Rotor.steps r
  | Kernel k -> Kengine.steps k

let position = function
  | Eprocess p -> Ewalk.Eprocess.position p
  | Srw w -> Ewalk.Srw.position w
  | Rotor r -> Ewalk.Rotor.position r
  | Kernel k -> Kengine.position k

(* The shared coverage table; a competing engine has none. *)
let coverage = function
  | Eprocess p -> Ewalk.Eprocess.coverage p
  | Srw w -> Ewalk.Srw.coverage w
  | Rotor r -> Ewalk.Rotor.coverage r
  | Kernel k -> Kengine.coverage k

let competing = function
  | Kernel k -> Kengine.mode k = Kengine.Competing
  | _ -> false

let covered w =
  match w with
  | Kernel k when competing w ->
      let rec go i =
        i >= Kengine.walkers k
        || (Kengine.walker_cover_step k i <> None && go (i + 1))
      in
      go 0
  | w -> Coverage.all_vertices_visited (coverage w)

let visit_counts w =
  match w with
  | Kernel k when competing w ->
      let v = ref 0 and e = ref 0 in
      for i = 0 to Kengine.walkers k - 1 do
        v := max !v (Kengine.walker_vertices_visited k i);
        e := max !e (Kengine.walker_edges_visited k i)
      done;
      (!v, !e)
  | w ->
      let cov = coverage w in
      (Coverage.vertices_visited cov, Coverage.edges_visited cov)

(* -- stepping ------------------------------------------------------------ *)

let step = function
  | Eprocess p -> Ewalk.Eprocess.step p
  | Srw w -> Ewalk.Srw.step w
  | Rotor r -> Ewalk.Rotor.step r
  | Kernel k -> Kengine.step k

let run_steps ?pool w k =
  match w with
  | Eprocess p -> Ewalk.Eprocess.run_steps p k
  | Srw s -> Ewalk.Srw.run_steps s k
  | Rotor r ->
      for _ = 1 to k do
        Ewalk.Rotor.step r
      done
  | Kernel e ->
      (* Whole rounds take the engine's batched path; the remainder keeps
         the same round-robin order, so the state sequence is identical
         to k single steps. *)
      let wk = Kengine.walkers e in
      let rounds = if wk > 1 then k / wk else 0 in
      if rounds > 0 then Kengine.run_rounds ?pool e rounds;
      for _ = 1 to k - (rounds * wk) do
        Kengine.step e
      done

let run_to_cover ?pool ?cap w =
  let cap =
    match cap with Some c -> c | None -> Ewalk.Cover.default_cap (graph w)
  in
  match w with
  | Eprocess p -> Ewalk.Eprocess.run_to_vertex_cover ~cap p
  | Srw s -> Ewalk.Srw.run_to_vertex_cover ~cap s
  | Kernel e when competing w ->
      Option.map snd (Kengine.run_until_first_cover ?pool ~cap e)
  | w ->
      let cov = coverage w in
      while (not (Coverage.all_vertices_visited cov)) && steps w < cap do
        step w
      done;
      Coverage.vertex_cover_step cov

(* -- observation --------------------------------------------------------- *)

let set_observer w obs =
  match w with
  | Eprocess p -> Ewalk.Eprocess.set_observer p obs
  | Srw s -> Ewalk.Srw.set_observer s obs
  | Rotor r -> Ewalk.Rotor.set_observer r obs
  | Kernel k ->
      Kengine.set_observer k (Option.map (fun f ~walker:_ ev -> f ev) obs)

let process = function
  | Eprocess p -> Ewalk.Eprocess.process p
  | Srw s -> Ewalk.Srw.process s
  | Rotor r -> Ewalk.Rotor.process r
  | Kernel k -> Kengine.process k

let attach obs = function
  | Eprocess p -> Ewalk.Observe.attach_eprocess obs p
  | Srw s -> Ewalk.Observe.attach_srw obs s
  | Rotor r -> Ewalk.Observe.attach_rotor obs r
  | Kernel k -> Ewalk_kernel.Kobs.attach obs k
