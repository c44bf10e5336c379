let flush_literals buf literals =
  (* runs longer than 128 split into several control bytes *)
  let s = Buffer.contents literals in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let run = min 128 (n - !i) in
    Buffer.add_char buf (Char.chr (run - 1));
    Buffer.add_substring buf s !i run;
    i := !i + run
  done;
  Buffer.clear literals

let encode_payload input =
  let buf = Buffer.create (Bytes.length input / 2) in
  let literals = Buffer.create 256 in
  let emit = function
    | Lz77.Literal c -> Buffer.add_char literals c
    | Lz77.Match { dist; len } ->
        flush_literals buf literals;
        Buffer.add_char buf (Char.chr (0x80 lor (len - 3)));
        Buffer.add_char buf (Char.chr (dist land 0xff));
        Buffer.add_char buf (Char.chr ((dist lsr 8) land 0xff))
  in
  Lz77.parse Lz77.lzo_config input ~f:emit;
  flush_literals buf literals;
  Buffer.to_bytes buf

(* The decode loop: input position and write cursor live in locals,
   a literal run is one blit and a match is one blit or, when it
   overlaps its own output, a forward byte loop. The checks and
   messages are those of the token-sink decoder kept as the reference
   model in test/lzo_ref.ml, in the same order, so every
   [Codec.decompress_into] outcome matches it. *)
let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  (* write confinement (DESIGN.md §4.7): this check, made before any
     byte moves, plus the per-run checks below, proves every store
     stays in [dst_off, dst_off + orig_len). The message is the
     reference's; Codec.make checks the window first, so only a direct
     caller can see it. *)
  if dst_off < 0 || orig_len < 0 || dst_off > Bytes.length dst - orig_len then
    invalid_arg "Lz77.into_output: destination range";
  if src_off < 0 then invalid_arg "Lzo.decode_payload_into: src_off";
  let n = Bytes.length b in
  let pos = ref src_off in
  let w = ref dst_off and stop = dst_off + orig_len in
  while !pos < n do
    (* input proof: pos only grows from src_off >= 0, and the loop
       guard gives pos < n *)
    let c = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    if c < 0x80 then begin
      (* the reference moves the run a byte at a time, checking the
         input before the output at each byte: copy what both allow,
         then fail as it fails at the first byte that one lacks *)
      let run = c + 1 in
      let avail_in = n - !pos and avail_out = stop - !w in
      let k = min run (min avail_in avail_out) in
      Bytes.blit b !pos dst !w k;
      pos := !pos + k;
      w := !w + k;
      if k < run then
        raise
          (Codec.Corrupt
             (if avail_in <= avail_out then "lzo: truncated literal run"
              else "lz77: literal overflow"))
    end
    else begin
      let len = (c land 0x7f) + 3 in
      if !pos + 2 > n then raise (Codec.Corrupt "lzo: truncated");
      (* input proof: 0 <= pos and pos + 1 < n by the check above *)
      let dist =
        Char.code (Bytes.unsafe_get b !pos)
        lor (Char.code (Bytes.unsafe_get b (!pos + 1)) lsl 8)
      in
      pos := !pos + 2;
      if dist = 0 || dist > !w - dst_off then
        raise (Codec.Corrupt "lz77: bad distance");
      if !w + len > stop then raise (Codec.Corrupt "lz77: match overflow");
      let src = !w - dist in
      if dist >= len then Bytes.blit dst src dst !w len
      else
        (* store proof: [w, w + len) lies in [dst_off, stop) by the
           checks above, and the reads [src, src + len) start at or
           after dst_off (dist <= w - dst_off) and end before w + len *)
        for k = 0 to len - 1 do
          Bytes.unsafe_set dst (!w + k) (Bytes.unsafe_get dst (src + k))
        done;
      w := !w + len
    end
  done;
  if !w <> stop then raise (Codec.Corrupt "lz77: short token stream")

let codec =
  Codec.make ~name:"lzo" ~encode:encode_payload ~decode_into:decode_payload_into
