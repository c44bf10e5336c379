(* Build raw Huffman code lengths with a pairing of the two least frequent
   subtrees, then canonicalize. A simple array-based priority selection is
   enough: alphabets here are at most a few hundred symbols. *)

let raw_lengths freqs =
  let n = Array.length freqs in
  let lens = Array.make n 0 in
  let live =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i -> if freqs.(i) > 0 then Some i else None)
            (Seq.init n (fun i -> i))))
  in
  match live with
  | [] -> lens
  | [ only ] ->
      lens.(only) <- 1;
      lens
  | _ ->
      (* nodes: (freq, members) where members lists leaf symbols; merging
         two nodes deepens every member by one. *)
      let nodes = ref (List.map (fun i -> (freqs.(i), [ i ])) live) in
      let pop_min () =
        match !nodes with
        | [] -> assert false
        | first :: _ ->
            let best =
              List.fold_left
                (fun acc node -> if fst node < fst acc then node else acc)
                first !nodes
            in
            (* remove one occurrence (physical equality) *)
            let removed = ref false in
            nodes :=
              List.filter
                (fun node ->
                  if (not !removed) && node == best then begin
                    removed := true;
                    false
                  end
                  else true)
                !nodes;
            best
      in
      while List.length !nodes > 1 do
        let f1, m1 = pop_min () in
        let f2, m2 = pop_min () in
        List.iter (fun i -> lens.(i) <- lens.(i) + 1) m1;
        List.iter (fun i -> lens.(i) <- lens.(i) + 1) m2;
        nodes := (f1 + f2, m1 @ m2) :: !nodes
      done;
      lens

let kraft_sum lens =
  Array.fold_left
    (fun acc l -> if l > 0 then acc +. (1. /. float_of_int (1 lsl l)) else acc)
    0. lens

let kraft_sum_valid lens = kraft_sum lens <= 1. +. 1e-9

let lengths_of_freqs ?(max_len = 15) freqs =
  let lens = raw_lengths freqs in
  let too_deep = Array.exists (fun l -> l > max_len) lens in
  if not too_deep then lens
  else begin
    (* Clamp and repair the Kraft inequality by demoting the deepest
       still-shortenable codes — the standard zlib-style fixup. *)
    Array.iteri (fun i l -> if l > max_len then lens.(i) <- max_len) lens;
    let over () = kraft_sum lens > 1. +. 1e-12 in
    while over () do
      (* lengthen the symbol with the smallest length < max_len; this
         frees the most code space per step *)
      let best = ref (-1) in
      Array.iteri
        (fun i l ->
          if l > 0 && l < max_len && (!best = -1 || l < lens.(!best)) then
            best := i)
        lens;
      if !best = -1 then invalid_arg "Huffman: cannot satisfy max_len";
      lens.(!best) <- lens.(!best) + 1
    done;
    lens
  end

(* Canonical code assignment shared by encoder and decoder. *)
let canonical_codes lens =
  let max_len = Array.fold_left max 0 lens in
  let count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let next = Array.make (max_len + 2) 0 in
  let code = ref 0 in
  for l = 1 to max_len do
    code := (!code + count.(l - 1)) lsl 1;
    next.(l) <- !code
  done;
  let codes = Array.make (Array.length lens) 0 in
  for i = 0 to Array.length lens - 1 do
    let l = lens.(i) in
    if l > 0 then begin
      codes.(i) <- next.(l);
      next.(l) <- next.(l) + 1
    end
  done;
  (codes, max_len)

type encoder = { e_lens : int array; e_codes : int array }

let encoder_of_lengths lens =
  let codes, _ = canonical_codes lens in
  { e_lens = Array.copy lens; e_codes = codes }

let encode enc w sym =
  let len = enc.e_lens.(sym) in
  if len = 0 then invalid_arg "Huffman.encode: symbol has no code";
  Bitio.Writer.put_code w ~code:enc.e_codes.(sym) ~len

(* The decoder is table-driven, zlib-style. A root table indexed by the
   next [root_bits] bits (root_bits = min(max_len, 9)) resolves every
   code of length <= root_bits in one lookup; longer codes land on a
   link entry pointing at a subtable indexed by the remaining bits. All
   tables live in one flat int array, entries packed as:

     0                      invalid (no code has this prefix)
     > 0                    (symbol lsl 5) lor bits_to_consume
     < 0, v = -entry        link: (subtable_offset lsl 5) lor sub_bits

   Code lengths are capped at 15 (write_lengths / lengths_of_freqs), so
   subtables index at most 6 bits and one level of linking suffices.
   Construction validates everything up front — the Kraft check rejects
   over-subscribed length sets before any table is sized, and every slot
   written is derived from a canonical code that the check proved
   prefix-free — so [decode] may index the table with
   [Array.unsafe_get]: the index is [peek_bits] output masked to
   root_bits/sub_bits, which by construction is within the table.
   Malformed streams hit 0-entries and raise [Codec.Corrupt]; truncated
   streams fail in [Bitio.Reader.consume] with [Truncated]. *)

type decoder = {
  d_max_len : int;
  d_root_bits : int;
  d_table : int array;
  (* bit-serial canonical-walk fields: the reference decoder the qcheck
     differential property replays against the table *)
  d_first_code : int array;  (** smallest code of each length *)
  d_first_index : int array;  (** index into [d_symbols] for that code *)
  d_count : int array;
  d_symbols : int array;  (** symbols sorted by (length, symbol) *)
}

let max_code_len = 15

let decoder_of_lengths lens =
  if not (kraft_sum_valid lens) then
    raise (Codec.Corrupt "huffman: over-subscribed code lengths");
  if Array.exists (fun l -> l < 0 || l > max_code_len) lens then
    raise (Codec.Corrupt "huffman: code length out of range");
  let codes, max_len = canonical_codes lens in
  let count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let symbols =
    let syms = ref [] in
    for i = Array.length lens - 1 downto 0 do
      if lens.(i) > 0 then syms := i :: !syms
    done;
    let arr = Array.of_list !syms in
    Array.sort
      (fun a b ->
        match Int.compare lens.(a) lens.(b) with 0 -> Int.compare a b | c -> c)
      arr;
    arr
  in
  let first_code = Array.make (max_len + 1) 0 in
  let first_index = Array.make (max_len + 1) 0 in
  let code = ref 0 and index = ref 0 in
  for l = 1 to max_len do
    code := (!code + if l = 1 then 0 else count.(l - 1)) lsl 1;
    first_code.(l) <- !code;
    first_index.(l) <- !index;
    index := !index + count.(l)
  done;
  (* table construction *)
  let root_bits = min max_len 9 in
  let root_size = 1 lsl root_bits in
  let n = Array.length lens in
  (* pass 1: widest overflow per root prefix sizes the subtables *)
  let sub_bits = Array.make root_size 0 in
  for sym = 0 to n - 1 do
    let l = lens.(sym) in
    if l > root_bits then begin
      let prefix = codes.(sym) lsr (l - root_bits) in
      if l - root_bits > sub_bits.(prefix) then sub_bits.(prefix) <- l - root_bits
    end
  done;
  let sub_off = Array.make root_size 0 in
  let total = ref root_size in
  for p = 0 to root_size - 1 do
    if sub_bits.(p) > 0 then begin
      sub_off.(p) <- !total;
      total := !total + (1 lsl sub_bits.(p))
    end
  done;
  let table = Array.make !total 0 in
  for p = 0 to root_size - 1 do
    if sub_bits.(p) > 0 then table.(p) <- -((sub_off.(p) lsl 5) lor sub_bits.(p))
  done;
  (* pass 2: every code owns the index range sharing its bits as prefix *)
  for sym = 0 to n - 1 do
    let l = lens.(sym) in
    if l > 0 then
      if l <= root_bits then begin
        let base = codes.(sym) lsl (root_bits - l) in
        let entry = (sym lsl 5) lor l in
        for k = 0 to (1 lsl (root_bits - l)) - 1 do
          table.(base + k) <- entry
        done
      end
      else begin
        let over = l - root_bits in
        let prefix = codes.(sym) lsr over in
        let sb = sub_bits.(prefix) in
        let low = codes.(sym) land ((1 lsl over) - 1) in
        let base = sub_off.(prefix) + (low lsl (sb - over)) in
        let entry = (sym lsl 5) lor over in
        for k = 0 to (1 lsl (sb - over)) - 1 do
          table.(base + k) <- entry
        done
      end
  done;
  {
    d_max_len = max_len;
    d_root_bits = root_bits;
    d_table = table;
    d_first_code = first_code;
    d_first_index = first_index;
    d_count = count;
    d_symbols = symbols;
  }

let table dec = dec.d_table
let root_bits dec = dec.d_root_bits

let corrupt () = raise (Codec.Corrupt "huffman: invalid code")

let decode dec r =
  if dec.d_max_len = 0 then corrupt ();
  let e =
    Array.unsafe_get dec.d_table (Bitio.Reader.peek_bits r dec.d_root_bits)
  in
  if e > 0 then begin
    Bitio.Reader.consume r (e land 0x1f);
    e lsr 5
  end
  else if e < 0 then begin
    let link = -e in
    Bitio.Reader.consume r dec.d_root_bits;
    let idx = Bitio.Reader.peek_bits r (link land 0x1f) in
    let e2 = Array.unsafe_get dec.d_table ((link lsr 5) + idx) in
    if e2 > 0 then begin
      Bitio.Reader.consume r (e2 land 0x1f);
      e2 lsr 5
    end
    else corrupt ()
  end
  else corrupt ()

(* the original one-bit-at-a-time canonical walk, kept as the reference
   implementation the table decoder is differentially tested against *)
let decode_ref dec r =
  let code = ref 0 and len = ref 0 in
  let result = ref (-1) in
  while !result < 0 do
    code := (!code lsl 1) lor Bitio.Reader.get_bit r;
    incr len;
    if !len > dec.d_max_len then raise (Codec.Corrupt "huffman: invalid code");
    let offset = !code - dec.d_first_code.(!len) in
    if offset >= 0 && offset < dec.d_count.(!len) then
      result := dec.d_symbols.(dec.d_first_index.(!len) + offset)
  done;
  !result

let write_lengths w lens =
  Array.iter
    (fun l ->
      if l > 15 then invalid_arg "Huffman.write_lengths: length > 15";
      Bitio.Writer.put_bits w l 4)
    lens

let read_lengths r n = Array.init n (fun _ -> Bitio.Reader.get_bits r 4)
