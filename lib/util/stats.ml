type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p <= 0. then sorted.(0)
  else if p >= 100. then sorted.(n - 1)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

(* mean and population stddev in [for] loops over a [float array] the
   compiler knows is flat: the loads, the refs and [d *. d] stay
   unboxed, so a summary allocates a constant handful of words however
   many samples it reads. Non-finite samples are refused first — NaN
   poisons every moment and breaks the sort's total order, infinities
   make mean/stddev meaningless; a non-finite sample is a measurement
   bug upstream. Sums run in input order, so [summarize_array] still
   sums its unsorted input. *)
let moments (xs : float array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  for i = 0 to n - 1 do
    if not (Float.is_finite xs.(i)) then
      invalid_arg "Stats.summarize: non-finite sample"
  done;
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i)
  done;
  let mean = !sum /. float_of_int n in
  let sq = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. mean in
    sq := !sq +. (d *. d)
  done;
  (mean, sqrt (!sq /. float_of_int n))

let of_sorted sorted ~mean ~stddev =
  let n = Array.length sorted in
  {
    n;
    mean;
    min = sorted.(0);
    max = sorted.(n - 1);
    stddev;
    p50 = percentile sorted 50.;
    p90 = percentile sorted 90.;
    p99 = percentile sorted 99.;
  }

let summarize_array xs =
  let mean, stddev = moments xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  of_sorted sorted ~mean ~stddev

let summarize xs = summarize_array (Array.of_list xs)

(* the already-sorted variant exists for hot telemetry paths that sort
   millions of integer-valued samples with a counting/radix pass:
   [summarize_array]'s [Array.sort Float.compare] pays a closure call
   per comparison and dominates entire fleet cells. Order is verified —
   a misordered input would silently corrupt every quantile. *)
let summarize_sorted xs =
  let mean, stddev = moments xs in
  for i = 1 to Array.length xs - 1 do
    if xs.(i - 1) > xs.(i) then
      invalid_arg "Stats.summarize_sorted: samples not ascending"
  done;
  of_sorted xs ~mean ~stddev

let empty =
  { n = 0; mean = 0.; min = 0.; max = 0.; stddev = 0.; p50 = 0.; p90 = 0.; p99 = 0. }

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let pct_change base v =
  if base = 0. then invalid_arg "Stats.pct_change: zero base"
  else (v -. base) /. base *. 100.
