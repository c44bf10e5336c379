(* Reference model of Imk_entropy.Prng: the straightforward xoshiro256**
   with its state in four boxed int64 fields, a SplitMix64 seeder over a
   ref and recursive-closure rejection loops. The production generator
   keeps its state in a byte buffer and never allocates per draw;
   test_entropy's differential property pins its streams to this one
   value for value, like Crc.crc32 to crc32_ref. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64: expands a single 64-bit seed into well-mixed state words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = create ~seed:(next_int64 t)

let next_int t bound =
  if bound <= 0 then invalid_arg "Prng.next_int: bound must be positive";
  (* Rejection sampling on the top 62 bits keeps the draw exactly uniform. *)
  let mask = 0x3fff_ffff_ffff_ffff in
  let limit = mask - (mask mod bound) in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let next_float t =
  (* 53 bits of mantissa from the top of the stream. *)
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992. (* 2^53 *)

let next_aligned t ~lo ~hi ~align =
  if align <= 0 then invalid_arg "Prng.next_aligned: align must be positive";
  let first = (lo + align - 1) / align * align in
  if first > hi then invalid_arg "Prng.next_aligned: empty aligned range";
  let slots = ((hi - first) / align) + 1 in
  first + (next_int t slots * align)

let gaussian t ~mean ~stddev =
  let rec nonzero () =
    let u = next_float t in
    if u = 0. then nonzero () else u
  in
  let u1 = nonzero () and u2 = next_float t in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)
