open Imk_memory
open Imk_vclock

(* A snapshot is the guest's dirty ranges, framed — not a flat copy of the
   whole guest. Everything outside the frames is zero by the Guest_mem
   invariant (a guest starts all-zero and every write is tracked), so the
   frames reconstruct the full image exactly while costing memory and
   copies proportional to what the boot actually wrote. Capture reads
   through the tracker's read-only accessors and leaves it untouched: the
   source guest's next arena scrub stays proportional to its boot, not to
   a whole-guest re-zero.

   Restores clone a chunk image built once, on the first restore, from
   the frames: every later restore shares its chunks copy-on-write, so
   its host work is the guest's verify walk. The image is a write-once
   memo set by compare-and-set, like a bzImage's decoded payload:
   racing first restores build byte-identical images and the loser
   adopts the winner's. *)
type body = {
  mem_size : int;  (** guest size the frames reconstruct *)
  frames : (int * bytes * int * int) list;
      (** (pa, src, src_off, len), sorted, non-overlapping: a captured
          frame owns its [src]; a loaded one is a view into the blob *)
  params : Imk_guest.Boot_params.t;
  image : Guest_mem.image option Atomic.t;
}

(* the body is config-free, so one decoded blob serves every VM config
   of its size; the config is attached per load *)
type t = { body : body; config : Vm_config.t }

let make ~mem_size ~frames ~params =
  { mem_size; frames; params; image = Atomic.make None }

let capture (r : Vmm.boot_result) =
  let mem = r.Vmm.mem in
  let frames =
    List.rev
      (Guest_mem.fold_dirty_ranges mem ~init:[] ~f:(fun acc ~lo ~hi ->
           let len = hi - lo in
           (* audited Bytes.create: fully overwritten by the blit below *)
           let data = Bytes.create len in
           Guest_mem.blit_to_bytes mem ~pa:lo ~dst:data ~dst_off:0 ~len;
           (lo, data, 0, len) :: acc))
  in
  {
    body = make ~mem_size:(Guest_mem.size mem) ~frames ~params:r.Vmm.params;
    config = r.Vmm.config;
  }

(* --- on-disk format: header + params + dirty-range frames + CRC32
   trailer ---

   Byte-exact serialization so snapshots can live on the simulated disk
   (zygote pools, cross-host migration). Version 2 stores the dirty
   ranges as (pa, len, data) frames instead of the whole guest image —
   the blob shrinks from guest size to bytes actually written. The
   trailing CRC32 covers everything before it: any bit flip or
   truncation fails [load] with the typed [Corrupt] instead of restoring
   garbage into a guest. *)

exception Corrupt of string

let snap_magic = 0x494d4b53 (* "IMKS" *)
let snap_version = 2
let header_bytes = 112

let frames_bytes s =
  List.fold_left (fun acc (_, _, _, len) -> acc + 16 + len) 0 s.frames

let encoded_bytes t = header_bytes + 4 + frames_bytes t.body + 4

let serialize t =
  let module B = Imk_util.Byteio in
  let s = t.body in
  let p = s.params in
  let k = p.Imk_guest.Boot_params.kernel in
  let total = encoded_bytes t in
  let out = Bytes.make total '\000' in
  B.set_u32 out 0 snap_magic;
  B.set_u32 out 4 snap_version;
  B.set_addr out 8 p.Imk_guest.Boot_params.phys_load;
  B.set_addr out 16 p.Imk_guest.Boot_params.virt_base;
  B.set_addr out 24 p.Imk_guest.Boot_params.entry_va;
  B.set_addr out 32 p.Imk_guest.Boot_params.mem_bytes;
  B.set_addr out 40 k.Imk_guest.Boot_params.link_entry_va;
  B.set_addr out 48 k.Imk_guest.Boot_params.link_rodata_va;
  B.set_addr out 56 k.Imk_guest.Boot_params.link_kallsyms_va;
  B.set_addr out 64 k.Imk_guest.Boot_params.link_extab_va;
  B.set_addr out 72
    (match k.Imk_guest.Boot_params.link_orc_va with None -> 0 | Some v -> v);
  B.set_u32 out 80 k.Imk_guest.Boot_params.n_functions;
  B.set_u32 out 84 k.Imk_guest.Boot_params.modeled_functions;
  let flags =
    (if p.Imk_guest.Boot_params.kallsyms_fixed then 1 else 0)
    lor (if p.Imk_guest.Boot_params.orc_fixed then 2 else 0)
    lor (match k.Imk_guest.Boot_params.link_orc_va with
        | Some _ -> 4
        | None -> 0)
    lor
    match p.Imk_guest.Boot_params.setup_data_pa with Some _ -> 8 | None -> 0
  in
  B.set_u32 out 88 flags;
  B.set_addr out 92
    (match p.Imk_guest.Boot_params.setup_data_pa with None -> 0 | Some v -> v);
  B.set_addr out 100 s.mem_size;
  B.set_u32 out header_bytes (List.length s.frames);
  let pos = ref (header_bytes + 4) in
  List.iter
    (fun (pa, src, src_off, len) ->
      B.set_addr out !pos pa;
      B.set_addr out (!pos + 8) len;
      Bytes.blit src src_off out (!pos + 16) len;
      pos := !pos + 16 + len)
    s.frames;
  B.set_u32 out (total - 4) (Imk_util.Crc.crc32 out 0 (total - 4));
  out

let corrupt msg = raise (Corrupt ("Snapshot.load: " ^ msg))

(* the config-free half of [load]: validate the blob and frame it. The
   frames are views into [b], which must not change afterwards (the page
   cache's backing stores never do) *)
let decode b =
  let module B = Imk_util.Byteio in
  let len = Bytes.length b in
  if len < header_bytes + 8 then corrupt "truncated header";
  if B.get_u32 b 0 <> snap_magic then corrupt "bad magic";
  if B.get_u32 b 4 <> snap_version then corrupt "unsupported version";
  if B.get_u32 b (len - 4) <> Imk_util.Crc.crc32 b 0 (len - 4) then
    corrupt "CRC mismatch";
  let addr off =
    try B.get_addr b off with Invalid_argument m -> corrupt m
  in
  let mem_size = addr 100 in
  if mem_size <= 0 then corrupt "implausible memory size";
  if addr 32 <> mem_size then
    corrupt "guest size disagrees with the boot parameters' memory size";
  let flags = B.get_u32 b 88 in
  let kernel =
    {
      Imk_guest.Boot_params.link_entry_va = addr 40;
      link_rodata_va = addr 48;
      link_kallsyms_va = addr 56;
      link_extab_va = addr 64;
      link_orc_va = (if flags land 4 <> 0 then Some (addr 72) else None);
      n_functions = B.get_u32 b 80;
      modeled_functions = B.get_u32 b 84;
    }
  in
  let params =
    {
      Imk_guest.Boot_params.phys_load = addr 8;
      virt_base = addr 16;
      entry_va = addr 24;
      mem_bytes = addr 32;
      kernel;
      kallsyms_fixed = flags land 1 <> 0;
      orc_fixed = flags land 2 <> 0;
      setup_data_pa = (if flags land 8 <> 0 then Some (addr 92) else None);
    }
  in
  (* frame walk: every length is validated against the remaining blob
     before it drives a copy, and frames must be sorted, non-overlapping
     and inside the guest — the canonical form [serialize] emits *)
  let nframes = B.get_u32 b header_bytes in
  let data_end = len - 4 in
  let pos = ref (header_bytes + 4) in
  let prev_hi = ref 0 in
  let frames = ref [] in
  for _ = 1 to nframes do
    if !pos + 16 > data_end then corrupt "truncated frame header";
    let pa = addr !pos in
    let flen = addr (!pos + 8) in
    if flen < 0 || pa < !prev_hi || pa > mem_size - flen then
      corrupt "frame outside guest or out of order";
    if flen > data_end - (!pos + 16) then corrupt "truncated frame data";
    frames := (pa, b, !pos + 16, flen) :: !frames;
    prev_hi := pa + flen;
    pos := !pos + 16 + flen
  done;
  if !pos <> data_end then corrupt "trailing bytes after frames";
  make ~mem_size ~frames:(List.rev !frames) ~params

(* a restore builds a guest of the config's size from the snapshot's
   frames and charges per page of it, so a header that claims any other
   size is as corrupt as a flipped bit *)
let attach body (config : Vm_config.t) =
  if config.mem_bytes <> body.mem_size then
    corrupt
      (Printf.sprintf "guest size %d does not match the VM config's %d"
         body.mem_size config.mem_bytes);
  { body; config }

let load ~config b = attach (decode b) config

type Plan_cache.payload += Decoded of body

let load_cached plans ~path ~config b =
  match plans with
  | None -> load ~config b
  | Some plans ->
      attach
        (Plan_cache.cached plans ~path b ~build:decode
           ~select:(function Decoded s -> Some s | _ -> None)
           ~wrap:(fun s -> Decoded s))
        config

(* reconstruct a read-only window of the captured image: zeros overlaid
   with the intersecting frames — used by the layout probe, which must
   hash exactly the bytes the old full-image format hashed *)
let read_range s ~pa ~len =
  let out = Bytes.make len '\000' in
  List.iter
    (fun (fpa, src, src_off, flen) ->
      let lo = max pa fpa and hi = min (pa + len) (fpa + flen) in
      if lo < hi then
        Bytes.blit src (src_off + lo - fpa) out (lo - pa) (hi - lo))
    s.frames;
  out

let layout_seed_of { body = s; _ } =
  let text_pa = s.params.Imk_guest.Boot_params.phys_load in
  let probe = max 0 (min (256 * 1024) (s.mem_size - text_pa)) in
  let window = read_range s ~pa:text_pa ~len:probe in
  s.params.Imk_guest.Boot_params.virt_base
  lxor Imk_util.Crc.crc32 window 0 probe

let page = 4096

let image_of s =
  match Atomic.get s.image with
  | Some img -> img
  | None ->
      let img = Guest_mem.image ~size:s.mem_size s.frames in
      if Atomic.compare_and_set s.image None (Some img) then img
      else Option.get (Atomic.get s.image)

let image_built t = Option.is_some (Atomic.get t.body.image)

let restore ch { body = s; config } ~working_set_pages =
  let cm = Charge.model ch in
  Charge.span ch Trace.In_monitor "snapshot-restore" (fun () ->
      (* CoW mapping setup: per-page bookkeeping across the image *)
      let pages = (s.mem_size + page - 1) / page in
      Charge.pay ch
        (int_of_float (cm.Cost_model.pte_write_ns *. float_of_int pages));
      (* first-touch faults of the working set: each fault copies a page *)
      Charge.pay ch
        (Cost_model.memcpy_cost cm ~in_guest:false (working_set_pages * page));
      Charge.pay ch (int_of_float cm.Cost_model.vmm_entry_ns));
  (* the clone itself, copy-on-write as in a real restore: it shares the
     image's chunks until it writes one, so no byte is copied here *)
  let mem = Guest_mem.of_image (image_of s) in
  let stats = Imk_guest.Runtime.verify_boot mem s.params in
  { Vmm.config; params = s.params; stats; mem }

let verify_restored (r : Vmm.boot_result) =
  Imk_guest.Runtime.verify_boot r.Vmm.mem r.Vmm.params
