type t = Xoshiro.t

let of_int64 seed = Xoshiro.of_seed seed

let create ?(seed = 0x5EED) () = of_int64 (Int64.of_int seed)

let bits64 = Xoshiro.next

let copy = Xoshiro.copy

let save t =
  let s0, s1, s2, s3 = Xoshiro.state t in
  [| s0; s1; s2; s3 |]

let restore words =
  if Array.length words <> 4 then
    invalid_arg "Rng.restore: expected 4 state words";
  Xoshiro.of_state words.(0) words.(1) words.(2) words.(3)

let split t =
  (* Hash two successive outputs through the SplitMix finaliser so the child
     seed is not a raw state word of the parent stream. *)
  let a = Xoshiro.next t and b = Xoshiro.next t in
  of_int64 (Splitmix.mix (Int64.add a (Int64.mul 0x9E3779B97F4A7C15L b)))

let split_n t k = Array.init k (fun _ -> split t)

let stream t i =
  if i < 0 then invalid_arg "Rng.stream: negative index";
  if i = 0 then copy t
  else begin
    (* SplitMix jump: fold the parent's state words into a 64-bit base,
       then advance the SplitMix Weyl sequence by [i] increments and
       finalise.  Distinct [i] give distinct, decorrelated seeds; the
       parent is never advanced, so stream 0 (the parent's own copy)
       stays bit-identical to the parent. *)
    let s0, s1, s2, s3 = Xoshiro.state t in
    let base =
      List.fold_left
        (fun acc w -> Splitmix.mix (Int64.add acc w))
        0L [ s0; s1; s2; s3 ]
    in
    of_int64
      (Splitmix.mix
         (Int64.add base (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int i))))
  end

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Xoshiro.int_below t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits scaled to [0, 1), then to [0, bound). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p out of (0, 1]";
  if p = 1. then 0
  else begin
    let u = float t 1.0 in
    let u = if u = 0. then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1. -. p)))
  end

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda <= 0";
  let u = float t 1.0 in
  let u = if u = 0. then epsilon_float else u in
  -.log u /. lambda

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0. then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let permutation t k =
  let a = Array.init k (fun i -> i) in
  shuffle_in_place t a;
  a

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 2 * k >= n then begin
    (* Dense case: partial Fisher–Yates over the whole range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end else begin
    (* Sparse case: rejection with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
