(* Tests for Ewalk_prng: SplitMix64, xoshiro256++, and the Rng façade. *)

module Splitmix = Ewalk_prng.Splitmix
module Xoshiro = Ewalk_prng.Xoshiro
module Rng = Ewalk_prng.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Reference values for SplitMix64 with seed 0, from the published
   reference implementation (Steele–Lea–Flood / Vigna's splitmix64.c). *)
let splitmix_reference () =
  let sm = Splitmix.create 0L in
  let expect =
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
  in
  List.iter
    (fun e -> check Alcotest.int64 "splitmix64(0) stream" e (Splitmix.next sm))
    expect

let splitmix_deterministic () =
  let a = Splitmix.create 123L and b = Splitmix.create 123L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed same stream" (Splitmix.next a)
      (Splitmix.next b)
  done

let splitmix_mix_bijective_sample () =
  (* mix is a bijection; at least check injectivity on a sample. *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 999 do
    let v = Splitmix.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro.of_state: all-zero state") (fun () ->
      ignore (Xoshiro.of_state 0L 0L 0L 0L))

let xoshiro_deterministic () =
  let a = Xoshiro.of_seed 42L and b = Xoshiro.of_seed 42L in
  for _ = 1 to 1000 do
    check Alcotest.int64 "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let xoshiro_copy_independent () =
  let a = Xoshiro.of_seed 7L in
  ignore (Xoshiro.next a);
  let b = Xoshiro.copy a in
  check Alcotest.int64 "copy continues identically" (Xoshiro.next a)
    (Xoshiro.next b);
  (* Advancing one does not advance the other. *)
  ignore (Xoshiro.next a);
  let va = Xoshiro.next a and vb = Xoshiro.next b in
  Alcotest.(check bool) "streams diverge after unequal advances" true
    (va <> vb)

let xoshiro_jump_disjoint () =
  let a = Xoshiro.of_seed 3L in
  let b = Xoshiro.copy a in
  Xoshiro.jump b;
  (* The jumped stream should not collide with the near part of the original
     stream (overlap probability is astronomically small). *)
  let near = Hashtbl.create 4096 in
  for _ = 1 to 2000 do
    Hashtbl.replace near (Xoshiro.next a) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 2000 do
    if Hashtbl.mem near (Xoshiro.next b) then incr collisions
  done;
  check Alcotest.int "no stream overlap after jump" 0 !collisions

let rng_int_bounds () =
  let rng = Rng.create ~seed:1 () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 10_000 do
    let v = Rng.int rng 8 in
    Alcotest.(check bool) "in [0,8) power of two" true (v >= 0 && v < 8)
  done

let rng_int_rejects_bad_bound () =
  let rng = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "negative" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng (-3)))

let rng_int_uniform_chi2 () =
  (* Loose uniformity check: 10 buckets, 100k draws; chi^2 with 9 dof has
     99.99th percentile ~ 33.7. *)
  let rng = Rng.create ~seed:2 () in
  let buckets = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int draws /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 = %.1f < 33.7" chi2)
    true (chi2 < 33.7)

let rng_int_in () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  check Alcotest.int "singleton range" 9 (Rng.int_in rng 9 9);
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in rng 2 1))

let rng_float_range () =
  let rng = Rng.create ~seed:4 () in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let rng_float_mean () =
  let rng = Rng.create ~seed:5 () in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f ~ 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:6 () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let rng_bernoulli_rate () =
  let rng = Rng.create ~seed:7 () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f ~ 0.3" rate)
    true
    (Float.abs (rate -. 0.3) < 0.01)

let rng_geometric () =
  let rng = Rng.create ~seed:8 () in
  check Alcotest.int "p=1 is 0" 0 (Rng.geometric rng 1.0);
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Rng.geometric: p out of (0, 1]") (fun () ->
      ignore (Rng.geometric rng 0.0));
  (* Mean of geometric(p) (failures before success) is (1-p)/p = 1 for
     p = 1/2. *)
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.5
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f ~ 1.0" mean)
    true
    (Float.abs (mean -. 1.0) < 0.05)

let rng_exponential () =
  let rng = Rng.create ~seed:9 () in
  Alcotest.check_raises "lambda 0"
    (Invalid_argument "Rng.exponential: lambda <= 0") (fun () ->
      ignore (Rng.exponential rng 0.0));
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng 2.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f ~ 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.02)

let rng_gaussian_moments () =
  let rng = Rng.create ~seed:10 () in
  let n = 100_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian rng in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "variance ~ 1" true (Float.abs (var -. 1.0) < 0.03)

let rng_shuffle_is_permutation () =
  let rng = Rng.create ~seed:11 () in
  let a = Array.init 100 (fun i -> i) in
  let b = Rng.shuffle rng a in
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" a sorted;
  (* Original untouched by the copying shuffle. *)
  Alcotest.(check (array int)) "input intact" (Array.init 100 (fun i -> i)) a

let rng_shuffle_uniform_positions () =
  (* Element 0 should land in each of 5 slots about equally often. *)
  let rng = Rng.create ~seed:12 () in
  let counts = Array.make 5 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let a = [| 0; 1; 2; 3; 4 |] in
    Rng.shuffle_in_place rng a;
    let pos = ref 0 in
    Array.iteri (fun i v -> if v = 0 then pos := i) a;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  let expected = float_of_int trials /. 5.0 in
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        "within 5% of uniform" true
        (Float.abs (float_of_int c -. expected) < 0.05 *. expected))
    counts

let rng_permutation () =
  let rng = Rng.create ~seed:13 () in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..49"
    (Array.init 50 (fun i -> i))
    sorted

let rng_choice () =
  let rng = Rng.create ~seed:14 () in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let c = Rng.choice rng a in
    Alcotest.(check bool) "member" true (Array.mem c a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice rng [||]))

let rng_sample_without_replacement () =
  let rng = Rng.create ~seed:15 () in
  (* Dense and sparse paths. *)
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement rng k n in
      check Alcotest.int "size" k (Array.length s);
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          Alcotest.(check bool) "in range" true (v >= 0 && v < n);
          Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
          Hashtbl.add seen v ())
        s)
    [ (5, 8); (3, 1000); (0, 4); (4, 4) ];
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement") (fun () ->
      ignore (Rng.sample_without_replacement rng 5 4))

let rng_split_independent () =
  let root = Rng.create ~seed:16 () in
  let a = Rng.split root in
  let b = Rng.split root in
  (* Distinct children produce distinct streams. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "children differ" true (!same < 4)

let rng_split_reproducible () =
  let mk () =
    let root = Rng.create ~seed:17 () in
    Array.map Rng.bits64 (Rng.split_n root 4)
  in
  Alcotest.(check (array int64)) "split_n deterministic" (mk ()) (mk ())

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bound" ~count:1000
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, b) ->
      let b = b + 1 in
      let rng = Rng.create ~seed () in
      let v = Rng.int rng b in
      v >= 0 && v < b)

let prop_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create ~seed () in
      let a = Array.of_list l in
      let b = Rng.shuffle rng a in
      List.sort compare (Array.to_list b) = List.sort compare l)

(* -- known answers and allocation ------------------------------------------- *)

let digest f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Powers of two (mask path, up to 2^61) and other bounds (63-bit
   rejection path, up to max_int), interleaved. *)
let pin_bounds =
  [| 1; 2; 4; 8; 1024; 1 lsl 20; 1 lsl 40; 1 lsl 61; 3; 5; 6; 7; 100;
     1_000_003; (1 lsl 40) + 1; max_int |]

(* MD5 of draw sequences, recorded before the generator state moved into
   unboxed bytes: any change to a draw, or to how many words a bounded
   draw consumes, changes a digest. *)
let known_answers () =
  List.iter
    (fun (seed, ints, bits, floats) ->
      let r = Rng.create ~seed () in
      check Alcotest.string
        (Printf.sprintf "Rng.int seed %d" seed)
        ints
        (digest (fun b ->
             for i = 0 to 3999 do
               Printf.bprintf b "%d,"
                 (Rng.int r pin_bounds.(i mod Array.length pin_bounds))
             done));
      let r = Rng.create ~seed () in
      check Alcotest.string
        (Printf.sprintf "Rng.bits64 seed %d" seed)
        bits
        (digest (fun b ->
             for _ = 1 to 1000 do
               Printf.bprintf b "%Ld," (Rng.bits64 r)
             done));
      let r = Rng.create ~seed () in
      check Alcotest.string
        (Printf.sprintf "Rng.float seed %d" seed)
        floats
        (digest (fun b ->
             for _ = 1 to 1000 do
               Printf.bprintf b "%Ld," (Int64.bits_of_float (Rng.float r 1.0))
             done)))
    [
      ( 1,
        "8d9969148a42f30b22d3cc90af6c0970",
        "fbff470b668802f4b06637a32ecadb32",
        "ea81f8798aee46d0504bd6753b8b885d" );
      ( 42,
        "d9940f4c5edc783b3b7319d1817aa7c4",
        "5ff6fe1895d57c76f11dafa5eb21e09b",
        "2364c407ad6a8870f1fe5fa76acfaaf3" );
      ( 20120716,
        "fc314c1b924fe903ad3eaabbd3e80066",
        "913f8bb142d5148fe1a10536adc4ae51",
        "1c7990d36c81c6fb6cd0c879f676ab23" );
    ]

(* The save format is the four state words s0..s3, unchanged. *)
let save_words_known () =
  let r = Rng.restore [| 1L; 2L; 3L; 4L |] in
  check (Alcotest.array Alcotest.int64) "restore/save" [| 1L; 2L; 3L; 4L |]
    (Rng.save r);
  (* xoshiro256++ from (1, 2, 3, 4): rotl(1 + 4, 23) + 1. *)
  check Alcotest.int64 "first output" 41943041L (Rng.bits64 r);
  check (Alcotest.array Alcotest.int64) "state after one step"
    [| 7L; 0L; 262146L; 211106232532992L |]
    (Rng.save r)

(* Minor words allocated by [f ()].  Only meaningful in native code,
   where [Gc.minor_words] itself does not allocate. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let int_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create ~seed:9 () in
    let sink = ref 0 in
    let draws = 100_000 in
    let words =
      minor_words (fun () ->
          for i = 1 to draws do
            sink := !sink lxor Rng.int r pin_bounds.(i land 15)
          done)
    in
    ignore (Sys.opaque_identity !sink);
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words over %d draws" words draws)
      true (words < 16.)
  end

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "reference vector" `Quick splitmix_reference;
          Alcotest.test_case "deterministic" `Quick splitmix_deterministic;
          Alcotest.test_case "mix injective sample" `Quick
            splitmix_mix_bijective_sample;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "zero state rejected" `Quick
            xoshiro_zero_state_rejected;
          Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "copy" `Quick xoshiro_copy_independent;
          Alcotest.test_case "jump disjoint" `Quick xoshiro_jump_disjoint;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick rng_int_rejects_bad_bound;
          Alcotest.test_case "int uniform" `Quick rng_int_uniform_chi2;
          Alcotest.test_case "int_in" `Quick rng_int_in;
          Alcotest.test_case "float range" `Quick rng_float_range;
          Alcotest.test_case "float mean" `Quick rng_float_mean;
          Alcotest.test_case "bernoulli extremes" `Quick rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick rng_bernoulli_rate;
          Alcotest.test_case "geometric" `Quick rng_geometric;
          Alcotest.test_case "exponential" `Quick rng_exponential;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick
            rng_shuffle_is_permutation;
          Alcotest.test_case "shuffle uniform" `Quick
            rng_shuffle_uniform_positions;
          Alcotest.test_case "permutation" `Quick rng_permutation;
          Alcotest.test_case "choice" `Quick rng_choice;
          Alcotest.test_case "sample without replacement" `Quick
            rng_sample_without_replacement;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "split reproducible" `Quick rng_split_reproducible;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "draw digests" `Quick known_answers;
          Alcotest.test_case "save words" `Quick save_words_known;
          Alcotest.test_case "int allocates nothing" `Quick
            int_allocates_nothing;
        ] );
      ( "properties",
        [ qcheck prop_int_in_bounds; qcheck prop_shuffle_multiset ] );
    ]
