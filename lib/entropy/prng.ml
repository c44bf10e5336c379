(* The 256-bit xoshiro256** state lives in one 32-byte buffer, words s0..s3
   at byte offsets 0, 8, 16 and 24, read and written through the
   bounds-checked 64-bit primitives. Each step works on local unboxed
   lets, so a draw that ends in an [int] or a [float] allocates nothing;
   boxed [int64] fields would mint a block per word per step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* SplitMix64's output mix; the state walk is the golden-ratio
   increment, so the k-th output mixes [seed + k * golden]. *)
let golden = 0x9e3779b97f4a7c15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let t = Bytes.make 32 '\000' in
  for k = 0 to 3 do
    let x = Int64.add seed (Int64.mul golden (Int64.of_int (k + 1))) in
    set64 t (8 * k) (mix x)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next_int64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let split t = create ~seed:(next_int64 t)

(* the top 62 bits of the next output, as a non-negative int *)
let[@inline] next_bits62 t =
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let next_int t bound =
  if bound <= 0 then invalid_arg "Prng.next_int: bound must be positive";
  (* Rejection sampling on the top 62 bits keeps the draw exactly uniform. *)
  let mask = 0x3fff_ffff_ffff_ffff in
  let limit = mask - (mask mod bound) in
  let v = ref (next_bits62 t) in
  while !v >= limit do
    v := next_bits62 t
  done;
  !v mod bound

let[@inline] next_float t =
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
  let u1 = ref (next_float t) in
  while !u1 = 0. do
    u1 := next_float t
  done;
  let u2 = next_float t in
  let z = sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)
