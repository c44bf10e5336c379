type token = Literal of char | Match of { dist : int; len : int }

type config = {
  window : int;
  min_match : int;
  max_match : int;
  hash_bits : int;
  max_chain : int;
}

let lz4_config =
  { window = 65535; min_match = 4; max_match = 273; hash_bits = 14; max_chain = 8 }

let lzo_config =
  { window = 49151; min_match = 3; max_match = 66; hash_bits = 13; max_chain = 1 }

let deflate_config =
  { window = 32768; min_match = 3; max_match = 258; hash_bits = 15; max_chain = 64 }

let lzma_config =
  { window = 1 lsl 20; min_match = 3; max_match = 273; hash_bits = 16; max_chain = 128 }

(* Multiplicative hash of the [min_match] (3 or 4) bytes at [i]. *)
let hash cfg input i =
  let b k = Char.code (Bytes.unsafe_get input (i + k)) in
  let v =
    if cfg.min_match >= 4 then
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
    else b 0 lor (b 1 lsl 8) lor (b 2 lsl 16)
  in
  let h = v * 0x9e3779b1 land 0x3fff_ffff in
  h lsr (30 - cfg.hash_bits)

let match_length input ~pos ~cand ~limit =
  let n = ref 0 in
  while
    pos + !n < limit && Bytes.unsafe_get input (cand + !n) = Bytes.unsafe_get input (pos + !n)
  do
    incr n
  done;
  !n

let parse cfg input ~f =
  let n = Bytes.length input in
  let head = Array.make (1 lsl cfg.hash_bits) (-1) in
  let prev = Array.make (max n 1) (-1) in
  let insert i =
    let h = hash cfg input i in
    prev.(i) <- head.(h);
    head.(h) <- i
  in
  let find_best i =
    let h = hash cfg input i in
    let limit = min n (i + cfg.max_match) in
    let best_len = ref 0 and best_dist = ref 0 in
    let cand = ref head.(h) and probes = ref cfg.max_chain in
    while !cand >= 0 && !probes > 0 do
      if i - !cand <= cfg.window then begin
        let len = match_length input ~pos:i ~cand:!cand ~limit in
        if len > !best_len then begin
          best_len := len;
          best_dist := i - !cand
        end;
        cand := prev.(!cand);
        decr probes
      end
      else begin
        (* chain has left the window; older entries are further still *)
        cand := -1
      end
    done;
    (!best_len, !best_dist)
  in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    if pos + cfg.min_match <= n then begin
      let len, dist = find_best pos in
      if len >= cfg.min_match then begin
        f (Match { dist; len });
        (* index every covered position so later matches can reach back
           into this run *)
        let stop = min (pos + len) (n - cfg.min_match) in
        let j = ref pos in
        while !j < stop do
          insert !j;
          incr j
        done;
        i := pos + len
      end
      else begin
        insert pos;
        f (Literal (Bytes.get input pos));
        i := pos + 1
      end
    end
    else begin
      f (Literal (Bytes.get input pos));
      i := pos + 1
    end
  done
