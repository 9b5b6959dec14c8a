(** Deterministic, splittable random source for all experiments.

    Every stochastic component in this repository (graph generators, walk
    processes, trial harnesses) draws exclusively from this module, never from
    [Stdlib.Random], so that every experiment is reproducible from a single
    integer seed.  {!split} derives statistically independent child
    generators, which the sweep harness uses to give each trial its own
    stream: trial [i] of experiment [e] sees the same randomness regardless
    of which other trials ran before it. *)

type t
(** A mutable pseudo-random generator (xoshiro256++ underneath). *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from [seed] (default [0x5EED]). *)

val of_int64 : int64 -> t
(** [of_int64 seed] builds a generator from a full 64-bit seed. *)

val split : t -> t
(** [split t] returns a fresh generator whose stream is independent of the
    future output of [t].  [t] itself is advanced. *)

val split_n : t -> int -> t array
(** [split_n t k] is [k] independent children of [t]. *)

val stream : t -> int -> t
(** [stream t i] is the [i]-th derived stream of [t], without advancing
    [t]: stream 0 is [copy t] (bit-identical to the parent), and streams
    [i > 0] are seeded by a SplitMix jump over the parent's state words —
    distinct indices give decorrelated streams even when the parent seed
    is reused.  The multi-walker kernel assigns stream [i] to walker [i],
    so walkers can never collide on a PRNG stream.
    @raise Invalid_argument if [i < 0]. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val save : t -> int64 array
(** [save t] is the exact generator state as 4 words, suitable for
    checkpointing: [restore (save t)] produces the same future stream as
    [t] without advancing it. *)

val restore : int64 array -> t
(** [restore words] rebuilds a generator from {!save} output.
    @raise Invalid_argument if [words] is not 4 words or all zero. *)

val bits64 : t -> int64
(** [bits64 t] is 64 uniform pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)].  Unbiased (rejection
    sampling); allocates nothing.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)] with 53-bit resolution. *)

val bool : t -> bool
(** [bool t] is a fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli([p]) sequence; support [{0, 1, ...}].
    @raise Invalid_argument if [p <= 0. || p > 1.]. *)

val exponential : t -> float -> float
(** [exponential t lambda] is Exp([lambda]) distributed.
    @raise Invalid_argument if [lambda <= 0.]. *)

val gaussian : t -> float
(** [gaussian t] is standard normal (Box–Muller, fresh pair per call). *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates permutation. *)

val shuffle : t -> 'a array -> 'a array
(** [shuffle t a] is a shuffled copy of [a]. *)

val permutation : t -> int -> int array
(** [permutation t k] is a uniform permutation of [0 .. k-1]. *)

val choice : t -> 'a array -> 'a
(** [choice t a] is a uniform element of [a].
    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is a uniform [k]-subset of
    [0 .. n-1], in random order.  @raise Invalid_argument if [k > n] or
    [k < 0]. *)
