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

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let n = Bytes.length b in
  let pos = ref src_off in
  let byte () =
    if !pos >= n then raise (Codec.Corrupt "lzo: truncated");
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    c
  in
  Lz77.apply_tokens_into ~dst ~dst_off ~orig_len (fun consume ->
      while !pos < n do
        let c = byte () in
        if c < 0x80 then
          for _ = 0 to c do
            if !pos >= n then raise (Codec.Corrupt "lzo: truncated literal run");
            consume (Lz77.Literal (Bytes.get b !pos));
            incr pos
          done
        else begin
          let len = (c land 0x7f) + 3 in
          let lo = byte () in
          let hi = byte () in
          let dist = lo lor (hi lsl 8) in
          consume (Lz77.Match { dist; len })
        end
      done)

let codec =
  Codec.make ~name:"lzo" ~encode:encode_payload ~decode_into:decode_payload_into
