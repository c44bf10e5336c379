(* Guest memory is a table of 64 KiB storage chunks, each allocated on
   its first write. A boot writes a few MiB of a 256 MiB guest, so
   allocating and zeroing the whole guest up front costs ~100x the data
   the boot moves; a 64 KiB chunk keeps what a guest allocates and zeroes
   close to the bytes it writes (a 112-byte zero page costs one chunk).
   The storage chunk is not the relocation run: [Kaslr.apply] still ends
   its runs at 2 MiB (CONFIG_PHYSICAL_ALIGN) edges, and a run's storage
   edges only split its store lookups.

   A chunk is either owned by the guest or shared: read-only and owned
   by someone else. An absent chunk is [zero_chunk], the one all-zero
   chunk every guest shares; a copy-on-write clone ({!of_image}) starts
   out sharing every chunk of a frozen image, and the image's table as
   well, which it copies on its first write. No write path ever hands
   out a shared chunk: every mutator goes through [writable], which
   first takes a private copy, so a shared chunk is never written and
   reads never branch on ownership. Only the last chunk may be short
   (sub-chunk test guests); an absent short chunk is still [zero_chunk],
   read only up to [size]. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let zero_chunk = Bytes.make chunk_size '\000'

(* the [base] of a guest that shares no image chunk *)
let no_base : bytes array = [||]

(* Dirty bytes are tracked as a small bounded set of disjoint-ish ranges
   rather than one envelope: a KASLR boot writes bootinfo pages low in the
   guest and the relocated image wherever entropy placed it, and a single
   [lo, hi) extent would span the gap and make recycling re-zero almost the
   whole guest. A handful of ranges keeps [scrub] proportional to bytes
   actually written. *)
let max_ranges = 8

type t = {
  size : int;
  mutable chunks : bytes array;
      (* [zero_chunk], physically, where absent; a clone's is its image's
         table, physically, until the clone's first write *)
  mutable base : bytes array;
      (* the image table a clone was made from, or [no_base]: chunk [i] is
         owned iff it is neither [zero_chunk] nor [base.(i)] *)
  mutable spare : bytes array;
      (* a stack of all-zero full chunks released by [scrub]: the first
         [nspare] slots; an array, so parking a chunk allocates nothing
         once the stack has grown *)
  mutable nspare : int;
  range_lo : int array;  (* [max_ranges] slots; first [nranges] are live *)
  range_hi : int array;  (* one past the highest byte of each range *)
  mutable nranges : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let nchunks size = (size + chunk_mask) lsr chunk_bits

let create ~size =
  if size <= 0 then invalid_arg "Guest_mem.create: non-positive size";
  {
    size;
    chunks = Array.make (nchunks size) zero_chunk;
    base = no_base;
    spare = [||];
    nspare = 0;
    range_lo = Array.make max_ranges 0;
    range_hi = Array.make max_ranges 0;
    nranges = 0;
  }

let size t = t.size

(* [pa > t.size - len], not [pa + len > t.size]: a wild [pa] near
   [max_int] must not wrap into range *)
let check t pa len what =
  if pa < 0 || len < 0 || pa > t.size - len then
    fault "%s at %#x+%d outside guest memory of %d bytes" what pa len t.size

let owned t i c = c != zero_chunk && (t.base == no_base || c != t.base.(i))

(* chunk [i]'s private store, materialized on the first write: a spare
   chunk (zeroed by [scrub]) if one is there, else a fresh one, holding a
   copy of the shared chunk it replaces. A clone's first write copies the
   image's table before it stores into it. *)
let writable t i =
  let c = t.chunks.(i) in
  if owned t i c then c
  else begin
    if t.chunks == t.base then t.chunks <- Array.copy t.base;
    let len = Int.min chunk_size (t.size - (i lsl chunk_bits)) in
    let p =
      if t.nspare > 0 && len = chunk_size then begin
        t.nspare <- t.nspare - 1;
        let s = t.spare.(t.nspare) in
        if c != zero_chunk then Bytes.blit c 0 s 0 len;
        s
      end
      else if c == zero_chunk then Bytes.make len '\000'
      else Bytes.copy c
    in
    t.chunks.(i) <- p;
    p
  end

(* [pieces pa len f] calls [f chunk off pos n] for each chunk-local piece
   [\[pa+pos, pa+pos+n)] of a range, in address order; a range inside one
   chunk is one call *)
let pieces pa len f =
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let off = a land chunk_mask in
    let n = Int.min (len - !pos) (chunk_size - off) in
    f (a lsr chunk_bits) off !pos n;
    pos := !pos + n
  done

(* [one_chunk pa len]: a non-empty range inside one chunk — the fast
   path of every bulk op, which allocates no closure (an empty range may
   sit one past the last chunk, so it takes the loop) *)
let one_chunk pa len = len > 0 && (pa land chunk_mask) + len <= chunk_size

(* unchecked, untracked copies between a range and a buffer *)
let blit_in t pa src src_off len =
  if one_chunk pa len then
    Bytes.blit src src_off (writable t (pa lsr chunk_bits)) (pa land chunk_mask) len
  else
    pieces pa len (fun i off pos n ->
        Bytes.blit src (src_off + pos) (writable t i) off n)

let blit_out t pa dst dst_off len =
  if one_chunk pa len then
    Bytes.blit t.chunks.(pa lsr chunk_bits) (pa land chunk_mask) dst dst_off len
  else
    pieces pa len (fun i off pos n ->
        Bytes.blit t.chunks.(i) off dst (dst_off + pos) n)

(* every mutation lands in some dirty range; scrubbing only has to erase
   the bytes a boot actually touched, not the whole guest. A plain loop,
   not a local recursive function: without flambda that would allocate a
   closure on every write. *)
let touch t pa len =
  if len > 0 then begin
    let lo = pa and hi = pa + len in
    let n = t.nranges in
    let j = ref 0 in
    while !j < n && not (lo <= t.range_hi.(!j) && hi >= t.range_lo.(!j)) do
      incr j
    done;
    if !j < n then begin
      (* overlaps or abuts range [j]: widen it in place. The widened range
         may now overlap a sibling; scrub just fills a few bytes twice,
         which costs less than re-normalizing on every write. *)
      let j = !j in
      if lo < t.range_lo.(j) then t.range_lo.(j) <- lo;
      if hi > t.range_hi.(j) then t.range_hi.(j) <- hi
    end
    else if n < max_ranges then begin
      t.range_lo.(n) <- lo;
      t.range_hi.(n) <- hi;
      t.nranges <- n + 1
    end
    else begin
      (* out of slots: fold into the nearest range, over-approximating
         the dirty set (never under — recycled buffers must come back
         all-zero) while bounding tracker size *)
      let best = ref 0 and best_gap = ref max_int in
      for j = 0 to n - 1 do
        let gap =
          if lo > t.range_hi.(j) then lo - t.range_hi.(j)
          else if hi < t.range_lo.(j) then t.range_lo.(j) - hi
          else 0
        in
        if gap < !best_gap then begin
          best_gap := gap;
          best := j
        end
      done;
      let j = !best in
      if lo < t.range_lo.(j) then t.range_lo.(j) <- lo;
      if hi > t.range_hi.(j) then t.range_hi.(j) <- hi
    end
  end

let dirty_extent t =
  if t.nranges = 0 then None
  else begin
    let lo = ref max_int and hi = ref 0 in
    for j = 0 to t.nranges - 1 do
      if t.range_lo.(j) < !lo then lo := t.range_lo.(j);
      if t.range_hi.(j) > !hi then hi := t.range_hi.(j)
    done;
    Some (!lo, !hi)
  end

(* zeroing an absent chunk is a no-op: it is all zero already. Any
   other shared chunk is copied first, never filled in place *)
let fill_chunk t i off n =
  if t.chunks.(i) != zero_chunk then Bytes.fill (writable t i) off n '\000'

let fill_zero t pa len =
  if one_chunk pa len then
    fill_chunk t (pa lsr chunk_bits) (pa land chunk_mask) len
  else pieces pa len (fun i off _ n -> fill_chunk t i off n)

(* the chunks of dirty range [j]: every owned chunk lies in one, since
   only a tracked write materializes a chunk and a clone's shared chunks
   hold only its image's frames, which its tracker covers too *)
let first_chunk t j = t.range_lo.(j) lsr chunk_bits
let last_chunk t j = (t.range_hi.(j) - 1) lsr chunk_bits

let push_spare t c =
  if t.nspare = Array.length t.spare then begin
    let grown = Array.make (Int.max 8 (2 * t.nspare)) zero_chunk in
    Array.blit t.spare 0 grown 0 t.nspare;
    t.spare <- grown
  end;
  t.spare.(t.nspare) <- c;
  t.nspare <- t.nspare + 1

let scrub t =
  (* a shared chunk is not ours to fill or to recycle: drop it first, so
     the fill below zeroes owned chunks only. A clone that never wrote
     still holds its image's table, which it may not write either. *)
  if t.base != no_base then begin
    if t.chunks == t.base then
      t.chunks <- Array.make (Array.length t.base) zero_chunk
    else
      for j = 0 to t.nranges - 1 do
        for i = first_chunk t j to last_chunk t j do
          if t.chunks.(i) == t.base.(i) then t.chunks.(i) <- zero_chunk
        done
      done;
    t.base <- no_base
  end;
  for j = 0 to t.nranges - 1 do
    fill_zero t t.range_lo.(j) (t.range_hi.(j) - t.range_lo.(j))
  done;
  (* every written byte was in a dirty range, so every chunk is zero
     again: park the full ones for the next writes, wherever they land. A
     short last chunk stays put; no other chunk has its length. *)
  for j = 0 to t.nranges - 1 do
    for i = first_chunk t j to last_chunk t j do
      let c = t.chunks.(i) in
      if c != zero_chunk && Bytes.length c = chunk_size then begin
        push_spare t c;
        t.chunks.(i) <- zero_chunk
      end
    done
  done;
  t.nranges <- 0

let write_bytes t ~pa b =
  check t pa (Bytes.length b) "write";
  touch t pa (Bytes.length b);
  blit_in t pa b 0 (Bytes.length b)

let write_sub t ~pa ~src ~src_off ~len =
  check t pa len "write";
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Guest_mem.write_sub: source range";
  touch t pa len;
  blit_in t pa src src_off len

(* an image is a guest frozen right after its frames were written: its
   chunks are shared by every clone and never written again, and its
   tracker holds exactly the ranges those writes dirtied *)
type image = t

let image ~size frames =
  let t = create ~size in
  List.iter
    (fun (pa, src, src_off, len) -> write_sub t ~pa ~src ~src_off ~len)
    frames;
  t

(* the clone shares the image's table and records it as its [base]:
   O(1) to make whatever the guest's size, and every chunk starts out
   shared *)
let of_image (img : image) =
  {
    size = img.size;
    chunks = img.chunks;
    base = img.chunks;
    spare = [||];
    nspare = 0;
    range_lo = Array.copy img.range_lo;
    range_hi = Array.copy img.range_hi;
    nranges = img.nranges;
  }

let read_bytes t ~pa ~len =
  check t pa len "read";
  if one_chunk pa len then
    Bytes.sub t.chunks.(pa lsr chunk_bits) (pa land chunk_mask) len
  else begin
    let b = Bytes.make len '\000' in
    blit_out t pa b 0 len;
    b
  end

let zero t ~pa ~len =
  check t pa len "zero";
  touch t pa len;
  fill_zero t pa len

let valid t ~pa ~len = pa >= 0 && len >= 0 && pa <= t.size - len

(* one bounds check and one tracker update for the whole range, then one
   store lookup per chunk it overlaps *)
let with_validated_range t ~pa ~len f =
  check t pa len "validated run";
  touch t pa len;
  if len > 0 then
    for i = pa lsr chunk_bits to (pa + len - 1) lsr chunk_bits do
      f (writable t i) (i lsl chunk_bits)
    done

(* the store a record that straddles a chunk edge is copied into, at the
   offset it has in its first chunk: a record is at most [view_max]
   bytes, so it ends at most [view_max] bytes past [chunk_size]. One per
   domain, so views taken on different domains never share it *)
let view_max = 32
let bounce =
  Domain.DLS.new_key (fun () -> Bytes.make (chunk_size + view_max) '\000')

(* one bounds check, then the chunk's own store, which a write may
   replace (copy-on-write) or fill, so the caller reads it before its
   next write; a record straddling a chunk edge is in exactly two. The
   scalar readers below are views of their width, [what] naming the
   access in the fault *)
let record t pa len what =
  check t pa len what;
  let off = pa land chunk_mask and i = pa lsr chunk_bits in
  if off + len <= chunk_size then t.chunks.(i)
  else begin
    let b = Domain.DLS.get bounce in
    let n = chunk_size - off in
    Bytes.blit t.chunks.(i) off b off n;
    Bytes.blit t.chunks.(i + 1) 0 b chunk_size (len - n);
    b
  end

let view t ~pa ~len =
  if len < 1 || len > view_max then invalid_arg "Guest_mem.view: length";
  record t pa len "read"

(* --- scalar accessors: a reader reads its value from a view of it; a
   writer writes one chunk when the value lies inside one (always, for
   aligned values), and a value straddling a chunk edge through a small
   bounce buffer --- *)

let inside pa width = pa land chunk_mask <= chunk_size - width

let get_u8 t ~pa =
  Imk_util.Byteio.get_u8 (record t pa 1 "read u8") (pa land chunk_mask)

let get_u32 t ~pa =
  Imk_util.Byteio.get_u32 (record t pa 4 "read u32") (pa land chunk_mask)

let set_u32 t ~pa v =
  check t pa 4 "write u32";
  touch t pa 4;
  if inside pa 4 then
    Imk_util.Byteio.set_u32 (writable t (pa lsr chunk_bits)) (pa land chunk_mask) v
  else begin
    let b = Bytes.make 4 '\000' in
    Imk_util.Byteio.set_u32 b 0 v;
    blit_in t pa b 0 4
  end

let get_u32_signed t ~pa =
  Imk_util.Byteio.get_u32_signed (record t pa 4 "read u32") (pa land chunk_mask)

let get_addr t ~pa =
  Imk_util.Byteio.get_addr (record t pa 8 "read u64") (pa land chunk_mask)

let set_addr t ~pa v =
  check t pa 8 "write u64";
  touch t pa 8;
  if inside pa 8 then
    Imk_util.Byteio.set_addr (writable t (pa lsr chunk_bits)) (pa land chunk_mask) v
  else begin
    let b = Bytes.make 8 '\000' in
    Imk_util.Byteio.set_addr b 0 v;
    blit_in t pa b 0 8
  end

let get_i64 t ~pa =
  Imk_util.Byteio.get_i64 (record t pa 8 "read i64") (pa land chunk_mask)

(* --- read-only bulk accessors: none of these touch the dirty tracker,
   which is the point — snapshot capture and page hashing must observe a
   guest without inflating the next arena scrub --- *)

let fold_dirty_ranges t ~init ~f =
  let n = t.nranges in
  if n = 0 then init
  else begin
    (* normalize the tracker's possibly-overlapping slots into sorted,
       merged ranges so callers see each dirty byte exactly once *)
    let rs = Array.init n (fun j -> (t.range_lo.(j), t.range_hi.(j))) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) rs;
    let acc = ref init in
    let lo = ref (fst rs.(0)) and hi = ref (snd rs.(0)) in
    for j = 1 to n - 1 do
      let l, h = rs.(j) in
      if l <= !hi then begin
        if h > !hi then hi := h
      end
      else begin
        acc := f !acc ~lo:!lo ~hi:!hi;
        lo := l;
        hi := h
      end
    done;
    f !acc ~lo:!lo ~hi:!hi
  end

let blit_to_bytes t ~pa ~dst ~dst_off ~len =
  check t pa len "read blit";
  if dst_off < 0 || len > Bytes.length dst - dst_off then
    invalid_arg "Guest_mem.blit_to_bytes: destination range";
  blit_out t pa dst dst_off len

let crc32_range t ~pa ~len =
  check t pa len "crc probe";
  (* chained per chunk: crc32 ~init:(crc32 a) b = crc32 (a ^ b) *)
  if one_chunk pa len then
    Imk_util.Crc.crc32 t.chunks.(pa lsr chunk_bits) (pa land chunk_mask) len
  else begin
    let crc = ref 0 in
    pieces pa len (fun i off _ n ->
        crc := Imk_util.Crc.crc32 ~init:!crc t.chunks.(i) off n);
    !crc
  end

(* KSM-style content-based sharing: the CRC-32s of the pages in the
   8 MiB above [pa] (where a kernel image is loaded), all-zero pages left
   out because they merge trivially and say nothing about layouts *)
let kernel_page_hashes t pa =
  let page = 4096 in
  let zero_hash = Imk_util.Crc.crc32 (Bytes.make page '\000') 0 page in
  let hi = min (size t) (pa + (8 * 1024 * 1024)) in
  let hashes = ref [] in
  let off = ref pa in
  while !off + page <= hi do
    let h = crc32_range t ~pa:!off ~len:page in
    if h <> zero_hash then hashes := h :: !hashes;
    off := !off + page
  done;
  !hashes

let identical_kernel_pages (a, pa) (b, pb) =
  let ha = kernel_page_hashes a pa in
  let hb = Hashtbl.create 1024 in
  List.iter (fun h -> Hashtbl.replace hb h ()) (kernel_page_hashes b pb);
  let shared = List.length (List.filter (Hashtbl.mem hb) ha) in
  float_of_int shared /. float_of_int (max 1 (List.length ha)) *. 100.
