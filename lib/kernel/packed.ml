module Rng = Ewalk_prng.Rng
module Xoshiro = Ewalk_prng.Xoshiro

(* Struct-of-arrays PRNG bank: the four xoshiro256++ state words of every
   walker live side by side in one [Bytes.t], 32 bytes per walker, accessed
   with native-endian 64-bit loads/stores.  Walker [w]'s words occupy byte
   offsets [32w .. 32w+31]; the slices are disjoint, so distinct walkers can
   draw from the bank concurrently on different domains without
   synchronisation.  Draws run [Xoshiro]'s own step on the walker's slice
   ([Xoshiro.next_at] / [int_below_at]), so the bank matches [Rng] bit for
   bit — [of_rng] seeds walker [w] from [Rng.stream root w], so walker 0 of
   a 1-walker bank produces exactly the parent's future stream. *)

type t = { words : Bytes.t; walkers : int }

let walkers t = t.walkers
let get t i = Bytes.get_int64_ne t.words (8 * i)
let set t i v = Bytes.set_int64_ne t.words (8 * i) v

let all_zero t w =
  get t (4 * w) = 0L
  && get t ((4 * w) + 1) = 0L
  && get t ((4 * w) + 2) = 0L
  && get t ((4 * w) + 3) = 0L

let of_rng rng ~walkers =
  if walkers < 1 then invalid_arg "Packed.of_rng: walkers < 1";
  let t = { words = Bytes.create (32 * walkers); walkers } in
  for w = 0 to walkers - 1 do
    let s = Rng.save (Rng.stream rng w) in
    for j = 0 to 3 do
      set t ((4 * w) + j) s.(j)
    done
  done;
  t

let bits64 t w = Xoshiro.next_at t.words (32 * w)

let int t w bound =
  if bound <= 0 then invalid_arg "Packed.int: bound <= 0";
  Xoshiro.int_below_at t.words (32 * w) bound

let save t = Array.init (4 * t.walkers) (get t)

let restore ~walkers words =
  if walkers < 1 then invalid_arg "Packed.restore: walkers < 1";
  if Array.length words <> 4 * walkers then
    invalid_arg "Packed.restore: expected 4 state words per walker";
  let t = { words = Bytes.create (32 * walkers); walkers } in
  Array.iteri (fun i w -> set t i w) words;
  for w = 0 to walkers - 1 do
    if all_zero t w then invalid_arg "Packed.restore: all-zero walker state"
  done;
  t

let rng_of_walker t w =
  Rng.restore
    [| get t (4 * w); get t ((4 * w) + 1); get t ((4 * w) + 2); get t ((4 * w) + 3) |]
