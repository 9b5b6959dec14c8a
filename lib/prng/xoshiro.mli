(** xoshiro256++: the core pseudo-random generator.

    xoshiro256++ (Blackman & Vigna, 2019) is a 256-bit-state all-purpose
    generator: fast, equidistributed in 4 dimensions, and passing BigCrush.
    The paper's experiments used Python's Mersenne Twister; xoshiro256++ is a
    modern replacement of at least equal statistical quality (see DESIGN.md,
    substitution table).

    The state must not be everywhere zero; seeding through {!of_seed} uses
    SplitMix64 as recommended by the authors and cannot produce the zero
    state.

    The state is four unboxed 64-bit words in a 32-byte buffer, so
    {!int_below} and the [_at] entry points allocate nothing per draw. *)

type t
(** Mutable 256-bit generator state. *)

val of_seed : int64 -> t
(** [of_seed seed] expands [seed] into a full state via SplitMix64. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] uses the given words verbatim.
    @raise Invalid_argument if all four words are zero. *)

val copy : t -> t
(** [copy t] is an independent generator with identical current state. *)

val next : t -> int64
(** [next t] advances the state and returns 64 pseudo-random bits. *)

val int_below : t -> int -> int
(** [int_below t bound] is uniform on [\[0, bound)]: the low bits of one
    {!next} when [bound] is a power of two, otherwise 63-bit rejection
    sampling ([next] masked to 63 bits, redrawn while it falls in the
    incomplete top block, then reduced mod [bound]).  Allocates nothing.
    [bound] must be positive; callers check it. *)

val next_at : Bytes.t -> int -> int64
(** [next_at b off] is {!next} on the state held in the 32 bytes
    [b.[off] .. b.[off + 31]] (four native-endian 64-bit words, [s0]
    first).  Lets a caller pack many generators into one buffer.
    @raise Invalid_argument if the slice is not inside [b]. *)

val int_below_at : Bytes.t -> int -> int -> int
(** [int_below_at b off bound] is {!int_below} on the state at byte
    offset [off] of [b], consuming exactly the same draws.
    @raise Invalid_argument if the slice is not inside [b]. *)

val jump : t -> unit
(** [jump t] advances [t] by 2{^128} steps: the canonical way to carve
    non-overlapping subsequences out of one stream. *)

val state : t -> int64 * int64 * int64 * int64
(** [state t] exposes the current state words (for checkpointing). *)
