(* Reference model of the LZ77 token sink the closure decoders wrote
   through: [into_output] checks the destination window once, then
   hands the producer a literal sink and a match-copy sink that keep
   the write cursor in a ref and check each token against the window;
   [apply_tokens_into] is the same sink for a producer of [Lz77.token]
   values. The closure gzip and lzo decoders in inflate_ref.ml and
   lzo_ref.ml write through it; the production decoders make the same
   checks inline. *)

open Imk_compress

let into_output ~dst ~dst_off ~orig_len produce =
  (* write-confinement (DESIGN.md §4.7): this one check, plus the per-
     token checks inside [lit]/[cpy], proves every access below stays in
     [dst_off, dst_off + orig_len): literals write at dst_off + w with
     w < orig_len; copies write [dst_off+w, dst_off+w+len) with
     w + len <= orig_len and read from dst_off + w - dist >= dst_off
     because dist <= w. Sink decoders inherit the guarantee — corrupt
     streams raise [Codec.Corrupt] before any out-of-window write. *)
  if dst_off < 0 || orig_len < 0 || dst_off > Bytes.length dst - orig_len then
    invalid_arg "Lz77.into_output: destination range";
  let w = ref 0 in
  let lit c =
    if !w >= orig_len then raise (Codec.Corrupt "lz77: literal overflow");
    Bytes.unsafe_set dst (dst_off + !w) c;
    incr w
  in
  let cpy ~dist ~len =
    if dist <= 0 || dist > !w then raise (Codec.Corrupt "lz77: bad distance");
    if len < 0 || !w + len > orig_len then
      raise (Codec.Corrupt "lz77: match overflow");
    let src = dst_off + !w - dist in
    if dist >= len then Bytes.blit dst src dst (dst_off + !w) len
    else
      (* overlapping (RLE-style) match: must replicate forward
         byte-at-a-time — blit's memmove semantics would be wrong *)
      for k = 0 to len - 1 do
        Bytes.unsafe_set dst (dst_off + !w + k) (Bytes.unsafe_get dst (src + k))
      done;
    w := !w + len
  in
  produce ~lit ~cpy;
  if !w <> orig_len then raise (Codec.Corrupt "lz77: short token stream")

let apply_tokens_into ~dst ~dst_off ~orig_len produce =
  into_output ~dst ~dst_off ~orig_len (fun ~lit ~cpy ->
      produce (function
        | Lz77.Literal c -> lit c
        | Lz77.Match { dist; len } -> cpy ~dist ~len))
