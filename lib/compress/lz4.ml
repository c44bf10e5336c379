let min_match = 4

(* 255-run length extension used by both fields of the token byte. *)
let put_ext buf n =
  let n = ref n in
  while !n >= 255 do
    Buffer.add_char buf '\255';
    n := !n - 255
  done;
  Buffer.add_char buf (Char.chr !n)

let flush_sequence buf literals ~m =
  let lit_len = Buffer.length literals in
  let lit_field = min lit_len 15 in
  let match_field =
    match m with
    | None -> 0
    | Some (_, len) -> min (len - min_match) 15
  in
  Buffer.add_char buf (Char.chr ((lit_field lsl 4) lor match_field));
  if lit_field = 15 then put_ext buf (lit_len - 15);
  Buffer.add_buffer buf literals;
  Buffer.clear literals;
  match m with
  | None -> ()
  | Some (dist, len) ->
      Buffer.add_char buf (Char.chr (dist land 0xff));
      Buffer.add_char buf (Char.chr ((dist lsr 8) land 0xff));
      if match_field = 15 then put_ext buf (len - min_match - 15)

let encode_payload input =
  let buf = Buffer.create (Bytes.length input / 2) in
  let literals = Buffer.create 256 in
  let emit = function
    | Lz77.Literal c -> Buffer.add_char literals c
    | Lz77.Match { dist; len } -> flush_sequence buf literals ~m:(Some (dist, len))
  in
  Lz77.parse Lz77.lz4_config input ~f:emit;
  (* final literals-only sequence (always present, possibly empty, so the
     decoder has an unambiguous end) *)
  flush_sequence buf literals ~m:None;
  Buffer.to_bytes buf

(* The decode loop: input position and write cursor live in locals,
   the 255-run extension bytes are read inline, literal runs and
   non-overlapping matches are blitted and overlapping ones replicated
   forward. The checks and messages are those of the closure decoder
   kept as the reference model in test/lz4_ref.ml, in the same order,
   so every [Codec.decompress_into] outcome matches it. *)
let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  (* write confinement (DESIGN.md §4.7): this check, made before any
     byte moves, plus the per-token checks below, proves every store
     stays in [dst_off, dst_off + orig_len). Codec.make checks the
     window first, so only a direct caller can see it. *)
  if dst_off < 0 || orig_len < 0 || dst_off > Bytes.length dst - orig_len then
    invalid_arg "Lz4.decode_payload_into: destination range";
  if src_off < 0 then invalid_arg "Lz4.decode_payload_into: src_off";
  let n = Bytes.length b in
  let pos = ref src_off in
  let w = ref dst_off and stop = dst_off + orig_len in
  let more = ref (orig_len > 0 || n > src_off) in
  while !more do
    if !pos >= n then raise (Codec.Corrupt "lz4: truncated");
    (* input proof: pos only grows from src_off >= 0, and the check
       above gives pos < n *)
    let token = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    let lit_len = ref (token lsr 4) in
    if !lit_len = 15 then begin
      let c = ref 255 in
      while !c = 255 do
        if !pos >= n then raise (Codec.Corrupt "lz4: truncated");
        (* input proof: 0 <= pos < n, as for the token *)
        c := Char.code (Bytes.unsafe_get b !pos);
        incr pos;
        lit_len := !lit_len + !c
      done
    end;
    let lit_len = !lit_len in
    if !w + lit_len > stop || !pos + lit_len > n then
      raise (Codec.Corrupt "lz4: literal run overflow");
    Bytes.blit b !pos dst !w lit_len;
    pos := !pos + lit_len;
    w := !w + lit_len;
    if !pos < n then begin
      if !pos + 2 > n then raise (Codec.Corrupt "lz4: truncated");
      (* input proof: 0 <= pos and pos + 1 < n by the check above *)
      let dist =
        Char.code (Bytes.unsafe_get b !pos)
        lor (Char.code (Bytes.unsafe_get b (!pos + 1)) lsl 8)
      in
      pos := !pos + 2;
      let len = ref (token land 0xf) in
      if !len = 15 then begin
        let c = ref 255 in
        while !c = 255 do
          if !pos >= n then raise (Codec.Corrupt "lz4: truncated");
          (* input proof: 0 <= pos < n, as for the token *)
          c := Char.code (Bytes.unsafe_get b !pos);
          incr pos;
          len := !len + !c
        done
      end;
      let len = !len + min_match in
      if dist = 0 || dist > !w - dst_off then
        raise (Codec.Corrupt "lz4: bad distance");
      if !w + len > stop then raise (Codec.Corrupt "lz4: match overflow");
      let src = !w - dist in
      if dist >= len then Bytes.blit dst src dst !w len
      else
        (* store proof: [w, w + len) lies in [dst_off, stop) by the
           checks above, and the reads [src, src + len) start at or
           after dst_off (dist <= w - dst_off) and end before w + len.
           The match overlaps its own output, so a forward byte loop
           replicates it. *)
        for k = 0 to len - 1 do
          Bytes.unsafe_set dst (!w + k) (Bytes.unsafe_get dst (src + k))
        done;
      w := !w + len
    end
    else more := false
  done;
  if !w <> stop then raise (Codec.Corrupt "lz4: short stream")

let codec =
  Codec.make ~name:"lz4" ~encode:encode_payload ~decode_into:decode_payload_into
