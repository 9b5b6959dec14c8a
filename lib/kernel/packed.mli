(** Packed per-walker PRNG bank for the lockstep kernel.

    One [Bytes.t] holds the four xoshiro256++ state words of every walker,
    32 bytes per walker, struct-of-arrays style.  Walker slices are
    disjoint, so walkers sharded across domains may draw concurrently
    without synchronisation (each domain touches only its own walkers'
    bytes).

    The bank replicates {!Ewalk_prng.Rng} bit for bit: {!bits64} and
    {!int} are [Xoshiro.next_at] and [Xoshiro.int_below_at] on the
    walker's slice — the same step and bounded draw [Rng] runs, so
    {!int} allocates nothing.  {!of_rng} seeds walker [w] from
    [Rng.stream root w], so walker 0 carries a bit-identical copy of the
    root generator — the basis of the W=1 ≡ legacy equivalence. *)

type t

val of_rng : Ewalk_prng.Rng.t -> walkers:int -> t
(** [of_rng root ~walkers] packs [walkers] generators, walker [w] seeded
    from [Rng.stream root w] (walker 0 = the root's own state; the root
    is not advanced).  @raise Invalid_argument if [walkers < 1]. *)

val walkers : t -> int

val bits64 : t -> int -> int64
(** [bits64 t w] draws 64 uniform bits from walker [w]'s generator,
    advancing only that walker's slice. *)

val int : t -> int -> int -> int
(** [int t w bound] is uniform on [\[0, bound)] from walker [w]'s
    generator — the exact [Rng.int] algorithm, so it consumes the same
    number of [bits64] draws as an [Rng.t] with the same state.
    @raise Invalid_argument if [bound <= 0]. *)

val save : t -> int64 array
(** The full bank as [4 * walkers] words, walker-major — walker [w]'s
    state is [words.(4w .. 4w+3)].  Suitable for checkpointing. *)

val restore : walkers:int -> int64 array -> t
(** Rebuild a bank from {!save} output.  @raise Invalid_argument on a
    length mismatch or an all-zero walker state. *)

val rng_of_walker : t -> int -> Ewalk_prng.Rng.t
(** [rng_of_walker t w] is a fresh {!Ewalk_prng.Rng.t} carrying a copy of
    walker [w]'s current state (the bank is not advanced) — the test
    suite uses it to run a naive oracle in lockstep with a walker. *)
