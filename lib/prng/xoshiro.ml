(* The four state words live unboxed in 32 bytes (native-endian 64-bit
   slots s0..s3), so a draw reads and writes raw machine words and never
   boxes an [int64].  The [_at] entry points run the same step on a
   32-byte slice of a caller's buffer — the kernel's per-walker PRNG bank
   keeps every walker's state side by side in one [Bytes.t]. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let b = Bytes.create 32 in
  set64u b 0 s0;
  set64u b 8 s1;
  set64u b 16 s2;
  set64u b 24 s3;
  b

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make s0 s1 s2 s3

let of_seed seed =
  let sm = Splitmix.create seed in
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  (* SplitMix64 is a bijection of a Weyl sequence: four consecutive outputs
     cannot all be zero, so the state is always valid. *)
  make s0 s1 s2 s3

let copy = Bytes.copy

let state t = (get64u t 0, get64u t 8, get64u t 16, get64u t 24)

(* xoshiro256++ on the slice at byte offset [off]; bounds already checked. *)
let[@inline] step b off =
  let open Int64 in
  let s0 = get64u b off
  and s1 = get64u b (off + 8)
  and s2 = get64u b (off + 16)
  and s3 = get64u b (off + 24) in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64u b off s0;
  set64u b (off + 8) s1;
  set64u b (off + 16) s2;
  set64u b (off + 24) s3;
  result

let[@inline] check_slice b off =
  if off < 0 || off > Bytes.length b - 32 then
    invalid_arg "Xoshiro: state slice out of range"

let next_at b off =
  check_slice b off;
  step b off

(* Uniform on [0, bound): a low-bit mask for powers of two, 63-bit
   rejection sampling otherwise.  The loop keeps the draw in an unboxed
   mutable local, so no call allocates. *)
let int_below_at b off bound =
  check_slice b off;
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (step b off) (Int64.of_int (bound - 1)))
  else begin
    let bound64 = Int64.of_int bound in
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
    let v = ref (Int64.logand (step b off) Int64.max_int) in
    while !v >= limit do
      v := Int64.logand (step b off) Int64.max_int
    done;
    Int64.to_int (Int64.rem !v bound64)
  end

let next t = step t 0
let int_below t bound = int_below_at t 0 bound

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
                    0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set64u acc (8 * i)
              (Int64.logxor (get64u acc (8 * i)) (get64u t (8 * i)))
          done;
        ignore (step t 0)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
