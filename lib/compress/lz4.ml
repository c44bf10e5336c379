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

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let n = Bytes.length b in
  let pos = ref src_off in
  let byte () =
    if !pos >= n then raise (Codec.Corrupt "lz4: truncated");
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    c
  in
  let ext base =
    if base < 15 then base
    else begin
      let total = ref base in
      let rec go () =
        let c = byte () in
        total := !total + c;
        if c = 255 then go ()
      in
      go ();
      !total
    end
  in
  (* write confinement: every store below is at dst_off + w + k with
     w + k < w + len <= orig_len (checked per token), every load from
     dst is at dst_off + w + k - dist >= dst_off since dist <= w *)
  let w = ref 0 in
  let rec sequence () =
    let token = byte () in
    let lit_len = ext (token lsr 4) in
    if !w + lit_len > orig_len || !pos + lit_len > n then
      raise (Codec.Corrupt "lz4: literal run overflow");
    Bytes.blit b !pos dst (dst_off + !w) lit_len;
    pos := !pos + lit_len;
    w := !w + lit_len;
    if !pos < n then begin
      let lo = byte () in
      let hi = byte () in
      let dist = lo lor (hi lsl 8) in
      let len = ext (token land 0xf) + min_match in
      if dist = 0 || dist > !w then raise (Codec.Corrupt "lz4: bad distance");
      if !w + len > orig_len then raise (Codec.Corrupt "lz4: match overflow");
      for k = 0 to len - 1 do
        Bytes.set dst (dst_off + !w + k) (Bytes.get dst (dst_off + !w + k - dist))
      done;
      w := !w + len;
      sequence ()
    end
  in
  if orig_len > 0 || n > src_off then sequence ();
  if !w <> orig_len then raise (Codec.Corrupt "lz4: short stream")

let codec =
  Codec.make ~name:"lz4" ~encode:encode_payload ~decode_into:decode_payload_into
