module Rng = Ewalk_prng.Rng

let pair_stubs rng stubs =
  (* Pair a shuffled stub array: stub 2i with stub 2i + 1. *)
  Rng.shuffle_in_place rng stubs;
  let m = Array.length stubs / 2 in
  Array.init m (fun i -> (stubs.(2 * i), stubs.((2 * i) + 1)))

let stubs_of_degrees degrees =
  let total = Array.fold_left ( + ) 0 degrees in
  let stubs = Array.make total 0 in
  let k = ref 0 in
  Array.iteri
    (fun v d ->
      if d < 0 then invalid_arg "Gen_regular: negative degree";
      for _ = 1 to d do
        stubs.(!k) <- v;
        incr k
      done)
    degrees;
  stubs

let multigraph_of_degrees rng n degrees =
  let stubs = stubs_of_degrees degrees in
  if Array.length stubs land 1 = 1 then
    invalid_arg "Gen_regular: odd degree sum";
  Graph.of_edge_array ~n (pair_stubs rng stubs)

let pairing_multigraph rng n r =
  if n < 0 || r < 0 then invalid_arg "Gen_regular.pairing_multigraph";
  multigraph_of_degrees rng n (Array.make n r)

let reject_until ~max_attempts ~what draw accept =
  let rec go k =
    if k >= max_attempts then
      failwith (Printf.sprintf "Gen_regular: no %s sample in %d attempts" what
                  max_attempts)
    else begin
      let g = draw () in
      if accept g then g else go (k + 1)
    end
  in
  go 0

let check_regular_args name n r =
  if n < 0 || r < 0 then invalid_arg name;
  if n * r land 1 = 1 then invalid_arg (name ^ ": n * r is odd");
  if n > 0 && r >= n then invalid_arg (name ^ ": r >= n has no simple graph")

let random_regular_rejection ?(max_attempts = 10_000) rng n r =
  check_regular_args "Gen_regular.random_regular_rejection" n r;
  reject_until ~max_attempts ~what:"simple"
    (fun () -> pairing_multigraph rng n r)
    Graph.is_simple

(* One Steger–Wormald construction attempt: match random suitable stub
   pairs until done, or return None if the remaining stubs are provably
   unmatchable.  Row [v] of [partners] (the [r] ints from [v * r]) holds
   the [placed.(v)] neighbours [v] has so far, so the suitability test
   scans at most [r] ints; the edges go straight into the endpoint arrays
   the graph keeps. *)
let steger_wormald_attempt rng n r =
  let stubs = stubs_of_degrees (Array.make n r) in
  let live = ref (Array.length stubs) in
  let partners = Array.make (n * r) 0 in
  let placed = Array.make n 0 in
  let m = Array.length stubs / 2 in
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  let added = ref 0 in
  let suitable u v =
    u <> v
    &&
    let stop = (u * r) + placed.(u) in
    let p = ref (u * r) in
    while !p < stop && partners.(!p) <> v do
      incr p
    done;
    !p = stop
  in
  let connect u v =
    partners.((u * r) + placed.(u)) <- v;
    placed.(u) <- placed.(u) + 1;
    partners.((v * r) + placed.(v)) <- u;
    placed.(v) <- placed.(v) + 1;
    edge_u.(!added) <- u;
    edge_v.(!added) <- v;
    incr added
  in
  (* Draw stub positions until a suitable pair appears; after too many
     consecutive misses, scan exhaustively to decide dead vs unlucky. *)
  let rec draw misses =
    if misses > 50 + (10 * !live) then scan ()
    else begin
      let i = Rng.int rng !live in
      let j = Rng.int rng !live in
      if i = j then draw (misses + 1)
      else if suitable stubs.(i) stubs.(j) then Some (i, j)
      else draw (misses + 1)
    end
  and scan () =
    let found = ref None in
    (let i = ref 0 in
     while !found = None && !i < !live - 1 do
       let j = ref (!i + 1) in
       while !found = None && !j < !live do
         if suitable stubs.(!i) stubs.(!j) then found := Some (!i, !j);
         incr j
       done;
       incr i
     done);
    !found
  in
  let remove_positions i j =
    (* Remove the larger index first so the smaller one stays valid. *)
    let hi = if i > j then i else j and lo = if i > j then j else i in
    stubs.(hi) <- stubs.(!live - 1);
    decr live;
    stubs.(lo) <- stubs.(!live - 1);
    decr live
  in
  let rec fill () =
    if !live = 0 then Some (Graph.of_endpoints ~n ~edge_u ~edge_v)
    else begin
      match draw 0 with
      | None -> None
      | Some (i, j) ->
          connect stubs.(i) stubs.(j);
          remove_positions i j;
          fill ()
    end
  in
  fill ()

let random_regular ?(max_attempts = 1_000) rng n r =
  check_regular_args "Gen_regular.random_regular" n r;
  if n = 0 || r = 0 then Graph.of_edges ~n []
  else begin
    let rec go k =
      if k >= max_attempts then
        failwith
          (Printf.sprintf
             "Gen_regular.random_regular: no sample in %d attempts"
             max_attempts)
      else begin
        match steger_wormald_attempt rng n r with
        | Some g -> g
        | None -> go (k + 1)
      end
    in
    go 0
  end

let random_regular_connected ?(max_attempts = 1_000) rng n r =
  if r < 2 && n > 2 then
    invalid_arg "Gen_regular.random_regular_connected: r < 2 is never connected";
  check_regular_args "Gen_regular.random_regular_connected" n r;
  reject_until ~max_attempts ~what:"simple connected"
    (fun () -> random_regular ~max_attempts rng n r)
    Traversal.is_connected

let configuration_model ?(simple = false) ?(max_attempts = 10_000) rng degrees =
  let n = Array.length degrees in
  let total = Array.fold_left ( + ) 0 degrees in
  if total land 1 = 1 then
    invalid_arg "Gen_regular.configuration_model: odd degree sum";
  if simple then
    reject_until ~max_attempts ~what:"simple"
      (fun () -> multigraph_of_degrees rng n degrees)
      Graph.is_simple
  else multigraph_of_degrees rng n degrees

let cycle_union ?(max_attempts = 10_000) rng n r =
  if n < 3 || r < 1 then invalid_arg "Gen_regular.cycle_union";
  (* Draw the Hamiltonian cycles one at a time, re-drawing a cycle that
     shares an edge with the ones already placed: the per-cycle acceptance
     probability is constant for constant r, unlike whole-union
     rejection. *)
  let taken = Hashtbl.create (4 * n * r) in
  let key u v = if u < v then (u, v) else (v, u) in
  let b = Builder.create ~n in
  for _ = 1 to r do
    let rec place attempts =
      if attempts >= max_attempts then
        failwith
          (Printf.sprintf
             "Gen_regular.cycle_union: no edge-disjoint cycle in %d attempts"
             max_attempts)
      else begin
        let p = Rng.permutation rng n in
        let fresh = ref true in
        for i = 0 to n - 1 do
          if Hashtbl.mem taken (key p.(i) p.((i + 1) mod n)) then fresh := false
        done;
        if !fresh then
          for i = 0 to n - 1 do
            let u = p.(i) and v = p.((i + 1) mod n) in
            Hashtbl.replace taken (key u v) ();
            Builder.add_edge b u v
          done
        else place (attempts + 1)
      end
    in
    place 0
  done;
  Builder.to_graph b
