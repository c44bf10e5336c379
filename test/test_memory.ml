(* Tests for Imk_memory: address constants and helpers, guest memory
   bounds behaviour, page-table geometry. *)

open Imk_memory

let check = Alcotest.check
let int = Alcotest.int

let test_addr_constants () =
  check int "phys start 16M" 0x1000000 Addr.default_phys_load;
  check int "align 2M" 0x200000 Addr.kernel_align;
  check int "max offset 1G" 0x40000000 Addr.kaslr_max_offset;
  (* the substitution invariant: simulated kmap keeps Linux's low 32
     bits, 0x80000000 *)
  check int "kmap low32" 0x80000000 (Addr.low32 Addr.kmap_base);
  check int "link base" (Addr.kmap_base + Addr.default_phys_load) Addr.link_base

let test_va_low32_roundtrip () =
  let va = Addr.link_base + 0x1234560 in
  check int "roundtrip" va (Addr.va_of_low32 (Addr.low32 va))

let test_va_of_low32_rejects () =
  Alcotest.check_raises "too big"
    (Invalid_argument "Addr.va_of_low32: not a 32-bit value") (fun () ->
      ignore (Addr.va_of_low32 0x100000000));
  check Alcotest.bool "outside window" true
    (try
       ignore (Addr.va_of_low32 0x1000);
       false
     with Invalid_argument _ -> true)

let test_is_kernel_va () =
  check Alcotest.bool "base" true (Addr.is_kernel_va Addr.kmap_base);
  check Alcotest.bool "link" true (Addr.is_kernel_va Addr.link_base);
  check Alcotest.bool "below" false (Addr.is_kernel_va (Addr.kmap_base - 1));
  check Alcotest.bool "way above" false
    (Addr.is_kernel_va (Addr.kmap_base + (4 * Addr.kaslr_max_offset)))

let test_align_helpers () =
  check int "up" 0x400000 (Addr.align_up 0x200001 0x200000);
  check int "down" 0x200000 (Addr.align_down 0x3fffff 0x200000);
  check Alcotest.bool "is_aligned" true (Addr.is_aligned 0x400000 0x200000)

let test_inverse_base_window () =
  (* every kernel VA must yield a 32-bit inverse value *)
  let lo = Addr.kmap_base + Addr.default_phys_load in
  let hi = Addr.kmap_base + Addr.kaslr_max_offset in
  List.iter
    (fun va ->
      let inv = Addr.inverse_base - va in
      check Alcotest.bool "fits u32" true (inv >= 0 && inv <= 0xffffffff))
    [ lo; hi; lo + ((hi - lo) / 2) ]

(* --- guest memory --- *)

let test_guest_mem_rw () =
  let m = Guest_mem.create ~size:4096 in
  Guest_mem.write_bytes m ~pa:100 (Bytes.of_string "hello");
  check Alcotest.string "read back" "hello"
    (Bytes.to_string (Guest_mem.read_bytes m ~pa:100 ~len:5));
  Guest_mem.set_u32 m ~pa:0 0xdeadbeef;
  check int "u32" 0xdeadbeef (Guest_mem.get_u32 m ~pa:0);
  Guest_mem.set_addr m ~pa:8 Addr.link_base;
  check int "addr" Addr.link_base (Guest_mem.get_addr m ~pa:8)

let test_guest_mem_zeroed_at_creation () =
  let m = Guest_mem.create ~size:64 in
  check int "zero" 0 (Guest_mem.get_u32 m ~pa:60)

let test_guest_mem_faults () =
  let m = Guest_mem.create ~size:256 in
  let faults f =
    check Alcotest.bool "faults" true
      (try
         f ();
         false
       with Guest_mem.Fault _ -> true)
  in
  faults (fun () -> ignore (Guest_mem.read_bytes m ~pa:250 ~len:10));
  faults (fun () -> ignore (Guest_mem.get_addr m ~pa:(-1)));
  faults (fun () -> Guest_mem.write_bytes m ~pa:255 (Bytes.of_string "xy"));
  faults (fun () -> Guest_mem.zero m ~pa:0 ~len:1000)

let test_valid_and_validated_range () =
  let m = Guest_mem.create ~size:256 in
  check Alcotest.bool "in bounds" true (Guest_mem.valid m ~pa:0 ~len:256);
  check Alcotest.bool "zero len at end" true (Guest_mem.valid m ~pa:256 ~len:0);
  check Alcotest.bool "past end" false (Guest_mem.valid m ~pa:250 ~len:10);
  check Alcotest.bool "negative pa" false (Guest_mem.valid m ~pa:(-1) ~len:4);
  check Alcotest.bool "negative len" false (Guest_mem.valid m ~pa:0 ~len:(-1));
  (* out-of-bounds run faults before the callback can run *)
  check Alcotest.bool "oob run faults" true
    (try
       Guest_mem.with_validated_range m ~pa:250 ~len:10 (fun _ ->
           Alcotest.fail "callback ran on invalid range");
       false
     with Guest_mem.Fault _ -> true);
  check Alcotest.bool "nothing dirtied by a faulted run" true
    (Guest_mem.dirty_extent m = None);
  (* writes inside a validated run are tracked: scrubbing restores the
     fresh all-zero state, same as for the checked mutators *)
  Guest_mem.with_validated_range m ~pa:16 ~len:8 (fun data base ->
      Imk_util.Byteio.set_addr data (16 - base) 0x1122334455667788);
  (match Guest_mem.dirty_extent m with
  | Some (lo, hi) ->
      check Alcotest.bool "run covered by dirty extent" true
        (lo <= 16 && hi >= 24)
  | None -> Alcotest.fail "expected a dirty extent");
  check int "write visible to checked reads" 0x1122334455667788
    (Guest_mem.get_addr m ~pa:16);
  Guest_mem.scrub m;
  check Alcotest.bool "scrubbed back to fresh" true
    (Guest_mem.dirty_extent m = None
    && Bytes.equal
         (Guest_mem.read_bytes m ~pa:0 ~len:(Guest_mem.size m))
         (Bytes.make 256 '\000'))

let test_get_i64_raw () =
  let m = Guest_mem.create ~size:16 in
  Guest_mem.write_bytes m ~pa:0 (Bytes.make 8 '\xff');
  check Alcotest.int64 "raw read" (-1L) (Guest_mem.get_i64 m ~pa:0);
  (* get_addr on the same bytes raises, which is why get_i64 exists *)
  check Alcotest.bool "get_addr rejects" true
    (try
       ignore (Guest_mem.get_addr m ~pa:0);
       false
     with Invalid_argument _ -> true)

(* --- page tables --- *)

let test_page_table_2m_1g () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Two_m
  in
  (* 512 2M leaves = 1 PD page; 1 PDPT; 1 PML4 *)
  check int "pd" 1 pt.Page_table.pd_pages;
  check int "pdpt" 1 pt.Page_table.pdpt_pages;
  check int "total" 3 (Page_table.total_pages pt);
  check int "bytes" (3 * 4096) (Page_table.table_bytes pt)

let test_page_table_4k_1g () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Four_k
  in
  (* 262144 4K leaves = 512 PT pages, 1 PD, 1 PDPT, 1 PML4 *)
  check int "pt pages" 512 pt.Page_table.pt_pages;
  check int "total" 515 (Page_table.total_pages pt);
  check Alcotest.bool "entries >= leaves" true
    (Page_table.entries pt >= 262144)

let test_page_table_small () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.mib 2)
      ~page_size:Page_table.Two_m
  in
  check int "one leaf still needs tables" 3 (Page_table.total_pages pt)

let test_page_table_invalid () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Page_table.identity_map: non-positive span") (fun () ->
      ignore (Page_table.identity_map ~covered_bytes:0 ~page_size:Page_table.Four_k))

let qcheck_guest_mem_rw =
  QCheck.Test.make ~name:"guest_mem: read back what was written" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (int_bound 200))
    (fun (s, pa) ->
      let m = Guest_mem.create ~size:512 in
      let b = Bytes.of_string s in
      if pa + Bytes.length b > 512 then QCheck.assume_fail ()
      else begin
        Guest_mem.write_bytes m ~pa b;
        Bytes.equal b (Guest_mem.read_bytes m ~pa ~len:(Bytes.length b))
      end)

(* --- sparse chunks --- *)

let chunk = Guest_mem.chunk_size

(* §6's page-sharing measure: content-based, location-independent, and
   blind to all-zero pages *)
let test_identical_kernel_pages () =
  let mib = 1024 * 1024 in
  let page = 4096 in
  let guest pages ~at =
    let m = Guest_mem.create ~size:(16 * mib) in
    List.iteri
      (fun i c -> Guest_mem.write_bytes m ~pa:(at + (i * page)) (Bytes.make page c))
      pages;
    m
  in
  let pct a b = Guest_mem.identical_kernel_pages a b in
  let a = guest [ 'a'; 'b'; 'c'; 'd' ] ~at:mib in
  let moved = guest [ 'd'; 'c'; 'b'; 'a' ] ~at:(3 * mib) in
  let half = guest [ 'a'; 'b'; 'x'; 'y' ] ~at:0 in
  let zero = Guest_mem.create ~size:(16 * mib) in
  check (Alcotest.float 0.) "same content elsewhere" 100. (pct (a, mib) (moved, 3 * mib));
  check (Alcotest.float 0.) "half shared" 50. (pct (a, mib) (half, 0));
  check (Alcotest.float 0.) "zero pages never count" 0. (pct (zero, 0) (zero, 0));
  (* the window is the 8 MiB above the load address *)
  check (Alcotest.float 0.) "outside the window" 0. (pct (a, mib) (moved, 12 * mib))

let test_sparse_chunks () =
  let allocated f =
    let a = Gc.allocated_bytes () in
    let v = f () in
    (v, Gc.allocated_bytes () -. a)
  in
  let below what limit (v, bytes) =
    check Alcotest.bool what true (bytes < float_of_int limit);
    v
  in
  let m =
    below "create allocates the chunk table only" chunk
      (allocated (fun () -> Guest_mem.create ~size:(128 * chunk)))
  in
  below "reads of an absent chunk allocate nothing" 1024
    (allocated (fun () -> Guest_mem.get_addr m ~pa:(100 * chunk)))
  |> check int "absent chunks read zero" 0;
  below "zero on absent chunks allocates nothing" chunk
    (allocated (fun () -> Guest_mem.zero m ~pa:chunk ~len:(4 * chunk)));
  check Alcotest.(option (pair int int)) "zero still tracked"
    (Some (chunk, 5 * chunk)) (Guest_mem.dirty_extent m);
  let write_three base =
    List.iter
      (fun i -> Guest_mem.set_u32 m ~pa:((base + i) * chunk) 0xfeed)
      [ 0; 1; 2 ]
  in
  let (), first = allocated (fun () -> write_three 10) in
  check Alcotest.bool "first writes materialize chunks" true
    (first >= float_of_int (3 * chunk));
  Guest_mem.scrub m;
  below "writes after scrub reuse the spare chunks" chunk
    (allocated (fun () -> write_three 90));
  check int "a reused chunk comes back zeroed" 0
    (Guest_mem.get_u32 m ~pa:((90 * chunk) + 4));
  check int "a scrubbed chunk reads zero" 0
    (Guest_mem.get_u32 m ~pa:(10 * chunk));
  (* a validated run may span storage chunks: one store per chunk *)
  check Alcotest.bool "run inside a chunk" true
    (Guest_mem.valid m ~pa:(chunk - 8) ~len:8);
  check Alcotest.bool "run across a chunk edge" true
    (Guest_mem.valid m ~pa:(chunk - 4) ~len:8);
  let bases = ref [] in
  Guest_mem.with_validated_range m ~pa:(chunk - 4) ~len:(chunk + 8)
    (fun _ base -> bases := base :: !bases);
  check (Alcotest.list int) "crossing run visits each chunk in order"
    [ 0; chunk; 2 * chunk ] (List.rev !bases);
  Guest_mem.with_validated_range m ~pa:((2 * chunk) + 16) ~len:8
    (fun data base ->
      check int "run hands its chunk's base" (2 * chunk) base;
      Imk_util.Byteio.set_addr data ((2 * chunk) + 16 - base) 0x1234);
  check int "run write lands at its address" 0x1234
    (Guest_mem.get_addr m ~pa:((2 * chunk) + 16));
  (* scalars straddling a chunk edge *)
  Guest_mem.set_addr m ~pa:((3 * chunk) - 3) 0x0102030405060708;
  check int "straddling addr" 0x0102030405060708
    (Guest_mem.get_addr m ~pa:((3 * chunk) - 3));
  check int "its high half" 0x01020304 (Guest_mem.get_u32 m ~pa:((3 * chunk) + 1))

(* a guest a little over three chunks long, the last one short, against
   a flat [Bytes] model. Ops straddle chunk edges, land in absent chunks
   and span whole chunks; a scrub in the middle must hand back all-zero
   memory whose spare chunks the second half then reuses. *)
type mem_op =
  | Write of int * int * int  (** pa, len, pattern *)
  | Write_sub of int * int * int  (** pa, src_off, len *)
  | Set_u32 of int * int
  | Set_addr of int * int
  | Zero of int * int
  | Validated of int * int * int  (** pa, len, pattern: one validated run *)

let model_size = (3 * chunk) + 12_345

let show_op = function
  | Write (pa, len, p) -> Printf.sprintf "write %#x+%d /%d" pa len p
  | Write_sub (pa, o, len) -> Printf.sprintf "write_sub %#x+%d from %d" pa len o
  | Set_u32 (pa, v) -> Printf.sprintf "set_u32 %#x %#x" pa v
  | Set_addr (pa, v) -> Printf.sprintf "set_addr %#x %#x" pa v
  | Zero (pa, len) -> Printf.sprintf "zero %#x+%d" pa len
  | Validated (pa, len, p) -> Printf.sprintf "validated %#x+%d /%d" pa len p

let gen_op =
  let open QCheck.Gen in
  (* mostly near a chunk edge, else anywhere — which is mostly absent *)
  let pa =
    frequency
      [
        (3, map2 (fun e d -> (e * chunk) + d) (int_range 1 3) (int_range (-40) 40));
        (1, int_bound (model_size - 1));
      ]
  in
  let len = frequency [ (4, int_range 1 96); (1, int_range 1 (chunk + 4096)) ] in
  frequency
    [
      (2, map3 (fun a l p -> Write (a, l, p)) pa len (int_range 1 255));
      (1, map3 (fun a o l -> Write_sub (a, o, l)) pa (int_bound 4096) len);
      (2, map2 (fun a v -> Set_u32 (a, v)) pa (int_bound 0xffffffff));
      (2, map2 (fun a v -> Set_addr (a, v)) pa (int_bound (1 lsl 60)));
      (1, map2 (fun a l -> Zero (a, l)) pa len);
      (1, map3 (fun a l p -> Validated (a, l, p)) pa len (int_range 1 255));
    ]

let sub_src = Bytes.init (chunk + 8192) (fun i -> Char.chr (((i * 131) + 7) land 255))

(* the tracker's documented rule, restated: a write widens the first slot
   it overlaps or abuts, else takes one of 8 slots, else widens the
   nearest slot (the first of equals) *)
let track slots (lo, hi) =
  let rec widen = function
    | [] -> None
    | (l, h) :: rest when lo <= h && hi >= l ->
        Some ((Int.min l lo, Int.max h hi) :: rest)
    | s :: rest -> Option.map (fun r -> s :: r) (widen rest)
  in
  match widen slots with
  | Some slots -> slots
  | None when List.length slots < 8 -> slots @ [ (lo, hi) ]
  | None ->
      let gap (l, h) = if lo > h then lo - h else if hi < l then l - hi else 0 in
      let best, _ =
        List.fold_left
          (fun (b, i) s -> ((if gap s < gap (List.nth slots b) then i else b), i + 1))
          (0, 0) slots
      in
      List.mapi
        (fun i (l, h) -> if i = best then (Int.min l lo, Int.max h hi) else (l, h))
        slots

let merged slots =
  List.fold_left
    (fun acc (l, h) ->
      match acc with
      | (pl, ph) :: rest when l <= ph -> (pl, Int.max ph h) :: rest
      | _ -> (l, h) :: acc)
    []
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) slots)
  |> List.rev

(* runs one op on both stores; an op clipped to nothing is skipped *)
let step m model slots op =
  let fits pa len = pa >= 0 && len > 0 && pa + len <= model_size in
  let clip pa len = Int.min len (model_size - pa) in
  let touched pa len = track slots (pa, pa + len) in
  match op with
  | Write (pa, len, p) ->
      let len = clip pa len in
      if not (fits pa len) then slots
      else begin
        let b = Bytes.init len (fun i -> Char.chr ((p + (i * 37)) land 255)) in
        Guest_mem.write_bytes m ~pa b;
        Bytes.blit b 0 model pa len;
        touched pa len
      end
  | Write_sub (pa, off, len) ->
      let len = Int.min (clip pa len) (Bytes.length sub_src - off) in
      if not (fits pa len) then slots
      else begin
        Guest_mem.write_sub m ~pa ~src:sub_src ~src_off:off ~len;
        Bytes.blit sub_src off model pa len;
        touched pa len
      end
  | Set_u32 (pa, v) ->
      if not (fits pa 4) then slots
      else begin
        Guest_mem.set_u32 m ~pa v;
        Imk_util.Byteio.set_u32 model pa v;
        touched pa 4
      end
  | Set_addr (pa, v) ->
      if not (fits pa 8) then slots
      else begin
        Guest_mem.set_addr m ~pa v;
        Imk_util.Byteio.set_addr model pa v;
        touched pa 8
      end
  | Zero (pa, len) ->
      let len = clip pa len in
      if not (fits pa len) then slots
      else begin
        Guest_mem.zero m ~pa ~len;
        Bytes.fill model pa len '\000';
        touched pa len
      end
  | Validated (pa, len, p) ->
      (* each chunk's store takes the part of the run inside it *)
      let len = clip pa len in
      if not (fits pa len && Guest_mem.valid m ~pa ~len) then slots
      else begin
        Guest_mem.with_validated_range m ~pa ~len (fun store base ->
            for a = Int.max pa base to Int.min (pa + len) (base + chunk) - 1 do
              Bytes.set store (a - base) (Char.chr ((p + ((a - pa) * 11)) land 255))
            done);
        for i = 0 to len - 1 do
          Bytes.set model (pa + i) (Char.chr ((p + (i * 11)) land 255))
        done;
        touched pa len
      end

(* every read accessor at every probe, the whole guest, its CRC and the
   dirty ranges must equal the model's *)
let agrees m model slots =
  let module B = Imk_util.Byteio in
  let result f = try Ok (f ()) with Invalid_argument _ -> Error () in
  let probes =
    List.concat_map
      (fun e -> List.init 21 (fun d -> (e * chunk) + d - 10))
      [ 0; 1; 2; 3 ]
    @ [ model_size - 9; model_size - 1 ]
    |> List.filter (fun pa -> pa >= 0 && pa < model_size)
  in
  let at pa width = pa + width <= model_size in
  let scalar pa =
    Guest_mem.get_u8 m ~pa = B.get_u8 model pa
    && ((not (at pa 4))
       || Guest_mem.get_u32 m ~pa = B.get_u32 model pa
          && Guest_mem.get_u32_signed m ~pa = B.get_u32_signed model pa)
    && ((not (at pa 8))
       || Guest_mem.get_i64 m ~pa = B.get_i64 model pa
          && result (fun () -> Guest_mem.get_addr m ~pa)
             = result (fun () -> B.get_addr model pa))
  in
  let ranges pa =
    let len = Int.min 19 (model_size - pa) in
    let dst = Bytes.make (len + 3) '\xee' and want = Bytes.make (len + 3) '\xee' in
    Guest_mem.blit_to_bytes m ~pa ~dst ~dst_off:3 ~len;
    Bytes.blit model pa want 3 len;
    Bytes.equal dst want
    && Bytes.equal (Guest_mem.read_bytes m ~pa ~len) (Bytes.sub model pa len)
    && Guest_mem.crc32_range m ~pa ~len = Imk_util.Crc.crc32 model pa len
  in
  let dirty =
    List.rev
      (Guest_mem.fold_dirty_ranges m ~init:[] ~f:(fun acc ~lo ~hi -> (lo, hi) :: acc))
  in
  List.for_all scalar probes && List.for_all ranges probes
  && Bytes.equal (Guest_mem.read_bytes m ~pa:0 ~len:model_size) model
  && Guest_mem.crc32_range m ~pa:0 ~len:model_size
     = Imk_util.Crc.crc32 model 0 model_size
  && dirty = merged slots
  && Guest_mem.dirty_extent m
     =
     match merged slots with
     | [] -> None
     | (lo, _) :: _ as rs -> Some (lo, snd (List.nth rs (List.length rs - 1)))

let qcheck_chunked_matches_flat_model =
  QCheck.Test.make ~count:40
    ~name:"guest_mem: chunked store = flat Bytes model across scrub"
    (QCheck.make
       ~print:QCheck.Print.(pair (list show_op) (list show_op))
       QCheck.Gen.(pair (list_size (1 -- 12) gen_op) (list_size (1 -- 12) gen_op)))
    (fun (before, after) ->
      let m = Guest_mem.create ~size:model_size in
      let model = Bytes.make model_size '\000' in
      let run ops = List.fold_left (fun slots op -> step m model slots op) [] ops in
      let slots = run before in
      agrees m model slots
      && begin
           Guest_mem.scrub m;
           Bytes.fill model 0 model_size '\000';
           Guest_mem.dirty_extent m = None && agrees m model []
         end
      && agrees m model (run after)
      && begin
           Guest_mem.scrub m;
           Bytes.fill model 0 model_size '\000';
           agrees m model []
         end)

(* copy-on-write clones of one image: an image frozen from a random
   guest, three clones of it sharing its chunks and its chunk table. One
   clone is scrubbed before any write (it must drop the shared table, not
   clear it); another's first write, straddling a chunk edge, copies the
   table; then interleaved random ops and scrubs drive all three. Each
   clone must match its own flat model throughout, a scrubbed clone must
   read all-zero with no dirty range, and a fresh clone taken at the end
   must still read as the image and carry its dirty ranges: no write,
   zero, copy, validated run or scrub on one clone may reach the image or
   a sibling. *)
type clone_op = On of int * mem_op | Scrub of int

let nclones = 3

let show_clone_op = function
  | On (c, op) -> Printf.sprintf "%c: %s" "abc".[c] (show_op op)
  | Scrub c -> Printf.sprintf "%c: scrub" "abc".[c]

let gen_clone_op =
  let open QCheck.Gen in
  frequency
    [
      (8, map2 (fun c op -> On (c, op)) (int_bound (nclones - 1)) gen_op);
      (1, map (fun c -> Scrub c) (int_bound (nclones - 1)));
    ]

let qcheck_clones_isolated =
  QCheck.Test.make ~count:40
    ~name:"guest_mem: copy-on-write clones = own flat models, image unchanged"
    (QCheck.make
       ~print:QCheck.Print.(pair (list show_op) (list show_clone_op))
       QCheck.Gen.(pair (list_size (1 -- 12) gen_op) (list_size (1 -- 24) gen_clone_op)))
    (fun (base, ops) ->
      let g = Guest_mem.create ~size:model_size in
      let image_model = Bytes.make model_size '\000' in
      ignore (List.fold_left (fun slots op -> step g image_model slots op) [] base);
      let frames =
        List.rev
          (Guest_mem.fold_dirty_ranges g ~init:[] ~f:(fun acc ~lo ~hi ->
               (lo, Guest_mem.read_bytes g ~pa:lo ~len:(hi - lo), 0, hi - lo) :: acc))
      in
      let img = Guest_mem.image ~size:model_size frames in
      (* the frames are disjoint merged ranges, each one tracker slot *)
      let image_slots = List.map (fun (lo, _, _, len) -> (lo, lo + len)) frames in
      let clones =
        Array.init nclones (fun _ -> (Guest_mem.of_image img, Bytes.copy image_model))
      in
      let slots = Array.make nclones image_slots in
      (* the cheap half of [agrees], for the checks between ops *)
      let reads_as m model slots =
        Bytes.equal (Guest_mem.read_bytes m ~pa:0 ~len:model_size) model
        && List.rev
             (Guest_mem.fold_dirty_ranges m ~init:[] ~f:(fun acc ~lo ~hi ->
                  (lo, hi) :: acc))
           = merged slots
      in
      let image_intact () =
        reads_as (Guest_mem.of_image img) image_model image_slots
      in
      let clone_reads c =
        let m, model = clones.(c) in
        reads_as m model slots.(c)
      in
      let on c op =
        let m, model = clones.(c) in
        slots.(c) <- step m model slots.(c) op
      in
      let scrub c =
        let m, model = clones.(c) in
        Guest_mem.scrub m;
        Bytes.fill model 0 model_size '\000';
        slots.(c) <- [];
        Guest_mem.dirty_extent m = None && reads_as m model []
      in
      let agree c =
        let m, model = clones.(c) in
        agrees m model slots.(c)
      in
      let all f = List.for_all f (List.init nclones Fun.id) in
      (* a scrub before any write, then a first write that copies the
         table, each leaving the image and the untouched clone as they
         were *)
      scrub 2 && image_intact () && clone_reads 1
      && begin
           on 0 (Set_addr (chunk - 4, 0x0102030405060708));
           clone_reads 0 && clone_reads 1 && clone_reads 2 && image_intact ()
         end
      && List.for_all
           (function
             | On (c, op) ->
                 on c op;
                 true
             | Scrub c -> scrub c)
           ops
      && all agree && image_intact () && all scrub
      && begin
           (* writes after a scrub land in private chunks too *)
           let m, model = clones.(0) in
           slots.(0) <- List.fold_left (fun sl op -> step m model sl op) [] base;
           agree 0
         end
      && image_intact ())

(* making a clone costs the same whatever the guest's size: it shares
   the image's chunk table instead of copying it *)
let test_of_image_allocation () =
  Testkit.skip_unless_native ();
  let words size =
    let img =
      Guest_mem.image ~size [ (4096, Bytes.make 100 'x', 0, 100) ]
    in
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Guest_mem.of_image img));
    Gc.allocated_bytes () -. before
  in
  let mib = 1024 * 1024 in
  check (Alcotest.float 0.) "256 MiB image = 32 MiB image" (words (32 * mib))
    (words (256 * mib))

(* the dirty tracker's write path allocates nothing, on all three of its
   branches: widening a slot, taking a free one, folding into the nearest *)
let test_touch_allocation () =
  Testkit.skip_unless_native ();
  let m = Guest_mem.create ~size:(32 * chunk) in
  let writes () =
    for r = 0 to 9 do
      for i = 0 to 15 do
        (* ten passes over 16 spots two chunks apart: past eight slots
           the tracker folds, and repeats widen *)
        Guest_mem.set_u32 m ~pa:((2 * i * chunk) + (r * 8)) (i + r)
      done
    done
  in
  (* warm up: materialize the chunks, then park them and grow the spare
     stack; the measured pass starts from an empty tracker and takes
     every chunk from the spares *)
  writes ();
  Guest_mem.scrub m;
  writes ();
  Guest_mem.scrub m;
  check (Alcotest.float 0.) "160 tracked writes, 0 minor words" 0.
    (Testkit.minor_words writes)

(* --- views: one record, bounds-checked whole --- *)

(* a guest with a short last chunk, holding bytes on both sides of each
   chunk edge and up to its end (a view may also meet an absent chunk on
   one side of an edge when [fill] is false) *)
let view_guest ~fill =
  let size = (2 * chunk) + 100 in
  let m = Guest_mem.create ~size in
  let pattern pa len =
    Guest_mem.write_bytes m ~pa
      (Bytes.init len (fun i -> Char.chr ((((pa + i) * 151) + 29) land 255)))
  in
  pattern (chunk - 64) (if fill then 128 else 64);
  pattern ((2 * chunk) - 64) 64;
  if fill then pattern (size - 128) 128;
  m

type view_outcome = Bytes_read of string | Faulted of string

let view_outcome f =
  match f () with
  | s -> Bytes_read s
  | exception Guest_mem.Fault m -> Faulted m

let qcheck_view_matches_read_bytes =
  QCheck.Test.make ~name:"guest_mem: view = read_bytes" ~count:500
    QCheck.(quad (int_bound 3) (int_bound 80) (int_range 1 32) bool)
    (fun (where, d, len, fill) ->
      let m = view_guest ~fill in
      let size = Guest_mem.size m in
      (* across or near a chunk edge, the short last chunk's edge, the
         guest's end, below 0, or far past the end *)
      let pa =
        match where with
        | 0 -> chunk - 40 + d
        | 1 -> (2 * chunk) - 40 + d
        | 2 -> size - 40 + d
        | _ -> if d mod 2 = 0 then -1 - d else max_int - d
      in
      let viewed =
        view_outcome (fun () ->
            let v = Guest_mem.view m ~pa ~len in
            Bytes.sub_string v (pa land (chunk - 1)) len)
      in
      viewed
      = view_outcome (fun () ->
            Bytes.to_string (Guest_mem.read_bytes m ~pa ~len)))

(* a view allocates nothing, also when it copies a straddling record
   into the bounce buffer *)
let test_view_allocation () =
  Testkit.skip_unless_native ();
  let m = view_guest ~fill:true in
  let views () =
    let acc = ref 0 in
    for i = 0 to 9_999 do
      let pa = chunk - 1 - (i mod 31) in
      let v = Guest_mem.view m ~pa ~len:32 in
      acc := !acc + Bytes.get_uint8 v (pa land (chunk - 1))
    done;
    ignore (Sys.opaque_identity !acc)
  in
  views ();
  check (Alcotest.float 0.) "10,000 straddling views, 0 minor words" 0.
    (Testkit.minor_words views)

(* --- arena: recycled guest memory must be indistinguishable from a
   fresh create --- *)

let test_dirty_extent_tracking () =
  let m = Guest_mem.create ~size:4096 in
  check Alcotest.bool "fresh has no extent" true
    (Guest_mem.dirty_extent m = None);
  Guest_mem.write_bytes m ~pa:100 (Bytes.of_string "abc");
  Guest_mem.set_u32 m ~pa:200 0xdeadbeef;
  (match Guest_mem.dirty_extent m with
  | Some (lo, hi) ->
      check int "extent lo" 100 lo;
      check int "extent hi" 204 hi
  | None -> Alcotest.fail "expected a dirty extent");
  Guest_mem.scrub m;
  check Alcotest.bool "extent reset" true (Guest_mem.dirty_extent m = None);
  check Alcotest.bool "all zero again" true
    (Bytes.equal
       (Guest_mem.read_bytes m ~pa:0 ~len:4096)
       (Bytes.make 4096 '\000'))

let test_arena_recycles_same_buffer () =
  let a = Arena.create () in
  let m1 = Arena.borrow a ~size:8192 in
  Guest_mem.write_bytes m1 ~pa:1000 (Bytes.make 100 '\xff');
  Arena.release a m1;
  check int "pooled after release" 8192 (Arena.pooled_bytes a);
  let m2 = Arena.borrow a ~size:8192 in
  check Alcotest.bool "zeroed before reuse" true
    (Bytes.equal
       (Guest_mem.read_bytes m2 ~pa:0 ~len:8192)
       (Bytes.make 8192 '\000'));
  (* physically the same guest, recycled rather than reallocated *)
  check Alcotest.bool "same backing store" true (m2 == m1);
  let hits, misses = Arena.stats a in
  check int "one hit" 1 hits;
  check int "one miss" 1 misses;
  (* a different size never recycles the wrong buffer *)
  let m3 = Arena.borrow a ~size:4096 in
  check int "fresh size" 4096 (Guest_mem.size m3)

exception Boom

let test_with_buffer_releases_on_raise () =
  let a = Arena.create () in
  (* normal path: buffer comes back to the pool *)
  let m1 =
    Arena.with_buffer a ~size:8192 (fun m ->
        Guest_mem.write_bytes m ~pa:64 (Bytes.make 32 '\xaa');
        m)
  in
  check int "pooled after return" 8192 (Arena.pooled_bytes a);
  (* raising path: same guarantee *)
  (try
     Arena.with_buffer a ~size:8192 (fun m ->
         check Alcotest.bool "recycled on the raising path" true
           (m == m1);
         Guest_mem.write_bytes m ~pa:4000 (Bytes.make 100 '\xff');
         raise Boom)
   with Boom -> ());
  check int "pooled after raise" 8192 (Arena.pooled_bytes a);
  (* the buffer the raising user dirtied is scrubbed, not poisoned *)
  Arena.with_buffer a ~size:8192 (fun m ->
      check Alcotest.bool "fresh-indistinguishable after raise" true
        (Guest_mem.dirty_extent m = None
        && Bytes.equal
             (Guest_mem.read_bytes m ~pa:0 ~len:8192)
             (Bytes.make 8192 '\000'));
      check Alcotest.bool "still the same backing store" true
        (m == m1))

let qcheck_with_buffer_exception_safe =
  QCheck.Test.make ~count:100
    ~name:"arena: with_buffer releases scrubbed buffer on any exception"
    QCheck.(pair (int_bound 65535) bool)
    (fun (off, should_raise) ->
      let size = 65536 in
      let a = Arena.create () in
      (try
         Arena.with_buffer a ~size (fun m ->
             let len = min 257 (size - off) in
             if len > 0 then
               Guest_mem.write_bytes m ~pa:off (Bytes.make len '\x5a');
             if should_raise then raise Boom)
       with Boom -> ());
      Arena.pooled_bytes a = size
      && Arena.with_buffer a ~size (fun m ->
             Guest_mem.dirty_extent m = None
             && Bytes.equal
                  (Guest_mem.read_bytes m ~pa:0 ~len:size)
                  (Bytes.make size '\000')))

let qcheck_arena_recycled_like_fresh =
  QCheck.Test.make ~count:100
    ~name:"arena: recycled buffer indistinguishable from fresh create"
    QCheck.(small_list (pair (int_bound 65535) (int_bound 255)))
    (fun writes ->
      let size = 65536 in
      let a = Arena.create () in
      let m = Arena.borrow a ~size in
      List.iteri
        (fun i (off, v) ->
          (* mix the mutation paths the boot code uses *)
          match i mod 3 with
          | 0 ->
              let len = min 97 (size - off) in
              if len > 0 then
                Guest_mem.write_bytes m ~pa:off (Bytes.make len (Char.chr v))
          | 1 -> if off + 4 <= size then Guest_mem.set_u32 m ~pa:off v
          | _ ->
              let len = min 33 (size - off) in
              if len > 0 then Guest_mem.zero m ~pa:off ~len)
        writes;
      Arena.release a m;
      let r = Arena.borrow a ~size in
      let fresh = Guest_mem.create ~size in
      fst (Arena.stats a) = 1
      && Guest_mem.dirty_extent r = None
      && Bytes.equal
           (Guest_mem.read_bytes r ~pa:0 ~len:size)
           (Guest_mem.read_bytes fresh ~pa:0 ~len:size))

let qcheck_arena_fresh_after_supervised_failures =
  (* the fresh-equivalence promise must survive the supervisor's failure
     paths too: a deadline-aborted attempt, a corrupt image, a guest
     panic mid-boot, a transient storm that exhausts its retries and a
     bit-flipped snapshot's cold-boot fallback all release their guest
     memory through the with_buffer bracket *)
  let module S = Imk_harness.Boot_supervisor in
  let module Inject = Imk_fault.Inject in
  let module Vm_config = Imk_monitor.Vm_config in
  let shared =
    lazy
      (let env = Testkit.make_env ~functions:50 () in
       let vm =
         Vm_config.make ~rando:Vm_config.Rando_kaslr
           ~relocs_path:(Some (Testkit.relocs_path env))
           ~mem_bytes:(64 * 1024 * 1024)
           ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
           ~seed:0L ()
       in
       let _, booted = Testkit.boot env ~seed:404L in
       (env, vm, Imk_monitor.Snapshot.serialize (Imk_monitor.Snapshot.capture booted)))
  in
  QCheck.Test.make ~count:30
    ~name:"arena: deadline-aborted and storm-failed boots leave it fresh"
    QCheck.(pair (int_bound 4) (int_bound 9_999))
    (fun (scenario, seed) ->
      let env, vm, blob = Lazy.force shared in
      let arena = Arena.create () in
      let armed kind =
        let disk = Testkit.pristine_disk env in
        let a =
          Inject.arm kind ~seed ~disk ~kernel_path:(Testkit.vmlinux_path env)
            ~relocs_path:(Testkit.relocs_path env) ()
        in
        {
          S.cache = Imk_storage.Page_cache.create disk;
          inject = a.Inject.inject;
          plans = None;
        }
      in
      let seed64 = Int64.of_int (seed + 1) in
      let report =
        match scenario with
        | 0 ->
            (* hopeless budget: the attempt and its fallback both abort *)
            let policy =
              { S.default_policy with S.attempt_budget_ns = Some 1 }
            in
            let fleet = S.fleet ~policy () in
            let ctx =
              S.plain_ctx (Imk_storage.Page_cache.create (Testkit.pristine_disk env))
            in
            S.supervise ~arena ~fleet ~seed:seed64 ~ctx vm
        | 1 -> S.supervise ~arena ~seed:seed64 ~ctx:(armed Inject.Flip_image_magic) vm
        | 2 -> S.supervise ~arena ~seed:seed64 ~ctx:(armed Inject.Flip_entry_magic) vm
        | 3 ->
            let fleet =
              S.fleet ~policy:{ S.default_policy with S.max_retries = 1 } ()
            in
            S.supervise ~arena ~fleet ~seed:seed64
              ~ctx:(armed (Inject.Transient_init 99))
              vm
        | _ ->
            (* the restore fails its CRC before touching the arena; the
               cold-boot fallback borrows and releases one buffer *)
            let disk = Testkit.pristine_disk env in
            Imk_storage.Disk.add disk ~name:"base.snapshot"
              (Inject.flip_one_bit ~seed blob);
            S.supervise_snapshot ~arena ~seed:seed64
              ~ctx:(S.plain_ctx (Imk_storage.Page_cache.create disk))
              ~snapshot_path:"base.snapshot" ~working_set_pages:64 vm
      in
      (match (scenario, report.S.outcome, report.S.events) with
      | 0, Error (Imk_fault.Failure.Deadline_exceeded _), _
      | 1, Error (Imk_fault.Failure.Corrupt_image _), _
      | 2, Error (Imk_fault.Failure.Guest_panic _), _
      | 3, Error (Imk_fault.Failure.Transient _), _
      | 4, Ok _, Imk_fault.Failure.Fell_back_to_cold_boot _ :: _ ->
          ()
      | _, Error f, _ ->
          QCheck.Test.fail_reportf "wrong failure kind: %s"
            (Imk_fault.Failure.describe f)
      | _, Ok _, _ ->
          QCheck.Test.fail_report
            "expected a failed supervised boot or a cold-boot fallback");
      let size = vm.Vm_config.mem_bytes in
      Arena.pooled_bytes arena = size
      &&
      let r = Arena.borrow arena ~size in
      Guest_mem.dirty_extent r = None
      && Bytes.equal
           (Guest_mem.read_bytes r ~pa:0 ~len:size)
           (Bytes.make size '\000'))

let qcheck_page_table_monotone =
  QCheck.Test.make ~name:"page tables grow with coverage" ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 1 2000))
    (fun (a, b) ->
      let mib = Imk_util.Units.mib 1 in
      let small = min a b * mib and large = max a b * mib in
      let p s =
        Page_table.entries (Page_table.identity_map ~covered_bytes:s ~page_size:Page_table.Four_k)
      in
      p small <= p large)

let () =
  Alcotest.run "imk_memory"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "low32 roundtrip" `Quick test_va_low32_roundtrip;
          Alcotest.test_case "va_of_low32 rejects" `Quick
            test_va_of_low32_rejects;
          Alcotest.test_case "is_kernel_va" `Quick test_is_kernel_va;
          Alcotest.test_case "align helpers" `Quick test_align_helpers;
          Alcotest.test_case "inverse window" `Quick test_inverse_base_window;
        ] );
      ( "guest_mem",
        [
          Alcotest.test_case "read/write" `Quick test_guest_mem_rw;
          Alcotest.test_case "zeroed" `Quick test_guest_mem_zeroed_at_creation;
          Alcotest.test_case "faults" `Quick test_guest_mem_faults;
          Alcotest.test_case "valid + validated range" `Quick
            test_valid_and_validated_range;
          Alcotest.test_case "get_i64 raw" `Quick test_get_i64_raw;
          Testkit.to_alcotest qcheck_guest_mem_rw;
          Alcotest.test_case "sparse chunks" `Quick test_sparse_chunks;
          Alcotest.test_case "identical kernel pages" `Quick
            test_identical_kernel_pages;
          Testkit.to_alcotest qcheck_chunked_matches_flat_model;
          Testkit.to_alcotest qcheck_clones_isolated;
          Alcotest.test_case "clone allocation" `Quick test_of_image_allocation;
          Alcotest.test_case "tracker allocation" `Quick test_touch_allocation;
          Testkit.to_alcotest qcheck_view_matches_read_bytes;
          Alcotest.test_case "view allocation" `Quick test_view_allocation;
        ] );
      ( "arena",
        [
          Alcotest.test_case "dirty extent" `Quick test_dirty_extent_tracking;
          Alcotest.test_case "recycles buffer" `Quick
            test_arena_recycles_same_buffer;
          Alcotest.test_case "with_buffer exception-safe" `Quick
            test_with_buffer_releases_on_raise;
          Testkit.to_alcotest qcheck_arena_recycled_like_fresh;
          Testkit.to_alcotest qcheck_with_buffer_exception_safe;
          Testkit.to_alcotest qcheck_arena_fresh_after_supervised_failures;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "2M over 1G" `Quick test_page_table_2m_1g;
          Alcotest.test_case "4K over 1G" `Quick test_page_table_4k_1g;
          Alcotest.test_case "small" `Quick test_page_table_small;
          Alcotest.test_case "invalid" `Quick test_page_table_invalid;
          Testkit.to_alcotest qcheck_page_table_monotone;
        ] );
    ]
