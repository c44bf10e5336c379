(* Tests for Imk_guest: boot params, runtime integrity verification (and
   its ability to detect deliberate corruption), kallsyms semantics
   including the deferred fixup, and Linux boot timing. *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

let test_boot_params_translation () =
  let env = Testkit.make_env () in
  let _, r = Testkit.boot env in
  let p = r.Vmm.params in
  let delta = Imk_guest.Boot_params.delta p in
  check int "va_to_pa of virt_base" p.Imk_guest.Boot_params.phys_load
    (Imk_guest.Boot_params.va_to_pa p p.Imk_guest.Boot_params.virt_base);
  check int "delta aligned" 0 (delta mod Imk_memory.Addr.kernel_align)

let test_kernel_info_from_elf_matches_built () =
  let env = Testkit.make_env () in
  let elf = Imk_elf.Parser.parse env.Testkit.built.Imk_kernel.Image.vmlinux in
  let from_elf = Imk_guest.Boot_params.kernel_info_of_elf elf env.Testkit.cfg in
  let from_built =
    Imk_guest.Boot_params.kernel_info_of_built env.Testkit.built
  in
  check int "fns" from_built.Imk_guest.Boot_params.n_functions
    from_elf.Imk_guest.Boot_params.n_functions;
  check int "rodata va" from_built.Imk_guest.Boot_params.link_rodata_va
    from_elf.Imk_guest.Boot_params.link_rodata_va;
  check int "kallsyms va" from_built.Imk_guest.Boot_params.link_kallsyms_va
    from_elf.Imk_guest.Boot_params.link_kallsyms_va

let test_setup_data_roundtrip () =
  let pairs = [| (1, 2, 3); (100, 200, 300) |] in
  let blob = Imk_guest.Boot_params.setup_data_encode pairs in
  Alcotest.(check (array (triple int int int)))
    "roundtrip" pairs
    (Imk_guest.Boot_params.setup_data_decode blob)

let test_setup_data_rejects_garbage () =
  check Alcotest.bool "rejects" true
    (try
       ignore (Imk_guest.Boot_params.setup_data_decode (Bytes.make 16 'x'));
       false
     with Invalid_argument _ -> true)

let test_verify_counts () =
  let env = Testkit.make_env ~functions:60 () in
  let _, r = Testkit.boot env in
  let s = r.Vmm.stats in
  check int "all functions" 60 s.Imk_guest.Runtime.functions_visited;
  check Alcotest.bool "sites verified" true (s.Imk_guest.Runtime.sites_verified >= 60);
  check Alcotest.bool "rodata verified" true (s.Imk_guest.Runtime.rodata_verified > 0);
  check Alcotest.bool "extab verified" true (s.Imk_guest.Runtime.extab_verified > 0);
  check int "kallsyms all" 60 s.Imk_guest.Runtime.kallsyms_verified

(* corruption detection: damage guest memory post-boot and re-run the
   verifier; the walk must panic, with exactly the message pinned here
   (a failed boot carries it as [Failure.Guest_panic]). [corrupt]
   damages the booted guest and returns the params to verify. *)
let panic_of corrupt =
  let env = Testkit.make_env ~functions:40 () in
  let _, r = Testkit.boot env in
  let params = corrupt r in
  match Imk_guest.Runtime.verify_boot r.Vmm.mem params with
  | _ -> "no panic"
  | exception Imk_guest.Runtime.Panic m -> m

let check_panic expect corrupt =
  check Alcotest.string "panic" expect (panic_of corrupt)

(* damage memory only; verify with the boot's own params *)
let in_place f r =
  f r;
  r.Vmm.params

let entry_pa r =
  let p = r.Vmm.params in
  Imk_guest.Boot_params.va_to_pa p p.Imk_guest.Boot_params.entry_va

let first_site_pa r = entry_pa r + Imk_kernel.Function_graph.fn_header_bytes

(* the boot's params with the entry point [back] bytes before the end of
   the guest *)
let entry_near_end ~back r =
  let p = r.Vmm.params in
  let pa = Imk_memory.Guest_mem.size r.Vmm.mem - back in
  { p with
    Imk_guest.Boot_params.entry_va =
      pa - p.Imk_guest.Boot_params.phys_load
      + p.Imk_guest.Boot_params.virt_base }

(* a header for function [id] with [n_sites] sites at [pa], magic
   included *)
let write_header r ~pa ~id ~n_sites =
  let mem = r.Vmm.mem in
  Imk_memory.Guest_mem.set_addr mem ~pa (Imk_kernel.Function_graph.fn_magic id);
  Imk_memory.Guest_mem.set_u32 mem ~pa:(pa + 8) id;
  Imk_memory.Guest_mem.set_u32 mem ~pa:(pa + 12) n_sites;
  Imk_memory.Guest_mem.set_u32 mem ~pa:(pa + 16) 64

let test_detects_corrupted_site () =
  check_panic
    "function header at va 0x3fffffff81777000: read at \
     0x7ffffffff6377000+24 outside guest memory of 67108864 bytes"
    (in_place (fun r ->
         (* smash the first call-site value of the entry function *)
         Imk_memory.Guest_mem.set_addr r.Vmm.mem ~pa:(first_site_pa r + 8)
           (Imk_memory.Addr.link_base + 0x777000)))

let test_detects_corrupted_magic () =
  check_panic "bad function magic at va 0x3fffffff8de00000 (claims id 0)"
    (in_place (fun r ->
         Imk_memory.Guest_mem.set_addr r.Vmm.mem ~pa:(entry_pa r) 0x1234567))

let test_detects_unsorted_kallsyms () =
  (* the first entry's symbol check runs before the order check, so the
     swap shows as a misplaced symbol *)
  check_panic
    "kallsyms symbol: va 0x3fffffff8de002a0 holds function 1, expected 0"
    (in_place (fun r ->
         let p = r.Vmm.params in
         let info = p.Imk_guest.Boot_params.kernel in
         let pa =
           Imk_guest.Boot_params.va_to_pa p
             (info.Imk_guest.Boot_params.link_kallsyms_va
             + Imk_guest.Boot_params.delta p)
         in
         (* swap the first two entries' offsets *)
         let h = Imk_kernel.Image.kallsyms_header_bytes in
         let e = Imk_kernel.Image.kallsyms_entry_bytes in
         let o1 = Imk_memory.Guest_mem.get_u32 r.Vmm.mem ~pa:(pa + h) in
         let o2 = Imk_memory.Guest_mem.get_u32 r.Vmm.mem ~pa:(pa + h + e) in
         Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa:(pa + h) o2;
         Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa:(pa + h + e) o1))

let test_detects_header_at_end () =
  (* the entry's 24-byte header would run 8 bytes past the guest: the
     panic names the whole header *)
  check_panic
    "function header at va 0x3fffffff8f3ffff0: read at 0x3fffff0+24 \
     outside guest memory of 67108864 bytes"
    (entry_near_end ~back:16)

let test_detects_site_straddling_end () =
  (* a valid header whose one abs64 site starts 8 bytes before the end:
     its kind and target id fit, its value does not, and the panic names
     the whole 16-byte record *)
  let back = Imk_kernel.Function_graph.fn_header_bytes + 8 in
  check_panic
    "call site at va 0x3fffffff8f3ffff8: read at 0x3fffff8+16 outside \
     guest memory of 67108864 bytes"
    (fun r ->
      let pa = Imk_memory.Guest_mem.size r.Vmm.mem - back in
      write_header r ~pa ~id:0 ~n_sites:1;
      Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa:(pa + 24) 0;
      Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa:(pa + 28) 1;
      entry_near_end ~back r)

let test_detects_abs32_tail_past_end () =
  (* an abs32 site 12 bytes before the end, calling the function it
     sits in: its kind, target id and value fit, and the walk never
     reads its last 4 bytes, but the record is 16 bytes and is checked
     whole *)
  let back = Imk_kernel.Function_graph.fn_header_bytes + 12 in
  check_panic
    "call site at va 0x3fffffff8f3ffff4: read at 0x3fffff4+16 outside \
     guest memory of 67108864 bytes"
    (fun r ->
      let mem = r.Vmm.mem and params = entry_near_end ~back r in
      let pa = Imk_memory.Guest_mem.size mem - back in
      write_header r ~pa ~id:0 ~n_sites:1;
      Imk_memory.Guest_mem.write_bytes mem ~pa:(pa + 24)
        (Bytes.make 1 '\001' (* abs32 *));
      Imk_memory.Guest_mem.set_u32 mem ~pa:(pa + 28) 0;
      Imk_memory.Guest_mem.set_u32 mem ~pa:(pa + 32)
        (Imk_memory.Addr.low32 params.Imk_guest.Boot_params.entry_va);
      params)

let test_detects_extab_tail_past_end () =
  (* a one-entry extab moved to the guest's end: the 20 bytes of its
     entry the walk reads fit, the entry's last 4 do not *)
  check_panic
    "extab entry at va 0x3fffffff8f3fffec: read at 0x3ffffec+24 outside \
     guest memory of 67108864 bytes"
    (fun r ->
      let p = r.Vmm.params in
      let pa =
        Imk_memory.Guest_mem.size r.Vmm.mem - 20
        - Imk_kernel.Image.extab_header_bytes
      in
      Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa 1;
      let info = p.Imk_guest.Boot_params.kernel in
      { p with
        Imk_guest.Boot_params.kernel =
          { info with
            Imk_guest.Boot_params.link_extab_va =
              pa - p.Imk_guest.Boot_params.phys_load + Imk_memory.Addr.link_base
          } })

let test_detects_target_id_mismatch () =
  check_panic
    "call from fn 0 via abs32: va 0x3fffffff8de002a0 holds function 1, \
     expected 2"
    (in_place (fun r ->
         let pa = first_site_pa r + 4 in
         let id = Imk_memory.Guest_mem.get_u32 r.Vmm.mem ~pa in
         Imk_memory.Guest_mem.set_u32 r.Vmm.mem ~pa ((id + 1) mod 40)))

(* guest bytes that do not decode panic naming their record, as a read
   off the guest does: an [Invalid_argument] would pass
   [Failure.classify] and reach the supervisor as a programming error *)

(* the 64-bit value 2^62 at [pa]: the smallest one [get_addr] rejects *)
let set_2_62 r ~pa =
  let b = Bytes.make 8 '\000' in
  Bytes.set_int64_le b 0 0x4000_0000_0000_0000L;
  Imk_memory.Guest_mem.write_bytes r.Vmm.mem ~pa b

(* --- records across a 64 KiB storage edge or the guest's end: a
   record across a storage edge is read whole from a bounce copy, and
   one across the guest's end panics naming the whole record --- *)

(* a 64 KiB edge below every kernel load address: free in a booted
   guest *)
let storage_edge = 0x400000

(* the entry function's header and site records, copied to [pa] (as
   many of their bytes as the guest holds), and the boot's params with
   the entry point moved there. The copy carries the entry's own id, so
   the walk starts from it as from the entry; [len] is the whole
   record's length *)
let entry_copy_at r ~pa =
  let mem = r.Vmm.mem and p = r.Vmm.params in
  let src = entry_pa r in
  let n_sites = Imk_memory.Guest_mem.get_u32 mem ~pa:(src + 12) in
  let len =
    Imk_kernel.Function_graph.fn_header_bytes
    + (n_sites * Imk_kernel.Function_graph.site_bytes)
  in
  let fit = Int.min len (Imk_memory.Guest_mem.size mem - pa) in
  Imk_memory.Guest_mem.write_bytes mem ~pa
    (Imk_memory.Guest_mem.read_bytes mem ~pa:src ~len:fit);
  let params =
    { p with
      Imk_guest.Boot_params.entry_va =
        pa - p.Imk_guest.Boot_params.phys_load
        + p.Imk_guest.Boot_params.virt_base }
  in
  (params, len)

let test_detects_site_across_storage_edge () =
  (* the entry's copy ends its header 8 bytes before the edge, so its
     first site, made an abs64 one, straddles it with its value, 2^62 *)
  check_panic
    "call site at va 0x3fffffff8b7ffff8: Byteio.get_addr: value does not \
     fit in a native int"
    (fun r ->
      let site = storage_edge - 8 in
      let params, _ =
        entry_copy_at r ~pa:(site - Imk_kernel.Function_graph.fn_header_bytes)
      in
      Imk_memory.Guest_mem.write_bytes r.Vmm.mem ~pa:site (Bytes.make 1 '\000');
      set_2_62 r ~pa:(site + 8);
      params)

(* the guest address of the table linked at [link_va] *)
let table_pa r link_va =
  let p = r.Vmm.params in
  Imk_guest.Boot_params.va_to_pa p (link_va + Imk_guest.Boot_params.delta p)

let test_detects_bad_site_kind () =
  check_panic "call site at va 0x3fffffff8de00018: Image: bad site kind code 7"
    (in_place (fun r ->
         Imk_memory.Guest_mem.write_bytes r.Vmm.mem ~pa:(first_site_pa r)
           (Bytes.make 1 '\007')))

let test_detects_abs64_past_2_62 () =
  check_panic
    "call site at va 0x3fffffff8de00018: Byteio.get_addr: value does not \
     fit in a native int"
    (in_place (fun r ->
         let pa = first_site_pa r in
         Imk_memory.Guest_mem.write_bytes r.Vmm.mem ~pa
           (Bytes.make 1 '\000' (* abs64 *));
         set_2_62 r ~pa:(pa + 8)))

let test_detects_rodata_pointer_past_2_62 () =
  check_panic
    "rodata entry at va 0x3fffffff8de07008: Byteio.get_addr: value does \
     not fit in a native int"
    (in_place (fun r ->
         let info = r.Vmm.params.Imk_guest.Boot_params.kernel in
         set_2_62 r
           ~pa:
             (table_pa r info.Imk_guest.Boot_params.link_rodata_va
             + Imk_kernel.Image.rodata_header_bytes)))

let test_detects_kallsyms_base_past_2_62 () =
  check_panic
    "kallsyms at va 0x3fffffff8de0a880: Byteio.get_addr: value does not \
     fit in a native int"
    (in_place (fun r ->
         let info = r.Vmm.params.Imk_guest.Boot_params.kernel in
         set_2_62 r
           ~pa:(table_pa r info.Imk_guest.Boot_params.link_kallsyms_va)))

let test_detects_id_out_of_range () =
  (* a well-formed header, magic included, for a function the kernel
     does not have *)
  check_panic "function id 40 out of range at 0x3fffffff8de00000"
    (in_place (fun r -> write_header r ~pa:(entry_pa r) ~id:40 ~n_sites:0))

(* the production walk against Verify_ref, a tuple-per-record walk that
   copies each record out with [read_bytes]: the same stats and layout, or the same panic with the same message,
   after one random byte of the placed kernel is damaged. The
   damage lands in a function's header or sites, at the start of a
   verified table, anywhere the boot wrote, or in a header or site
   record that straddles a 64 KiB storage edge or the guest's end. *)
let walk_envs =
  lazy
    [|
      (Testkit.make_env ~functions:40 (), Vm_config.Rando_kaslr);
      ( Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Fgkaslr (),
        Vm_config.Rando_fgkaslr );
    |]

type 'a outcome = Verified of 'a | Panicked of string | Raised of string

let outcome f =
  match f () with
  | v -> Verified v
  | exception Imk_guest.Runtime.Panic m -> Panicked m
  | exception e -> Raised (Printexc.to_string e)

(* damaged guest memory may only panic: any other exception would reach
   the supervisor unclassified *)
let guest_outcome = function Verified _ | Panicked _ -> true | Raised _ -> false

(* the params to verify with and the byte to damage: in a function's
   header or sites, at the start of a verified table, anywhere the boot
   wrote, or in a copy of the entry function whose header or one of
   whose sites straddles the storage edge (region 3) or the guest's end
   (region 4), entered there *)
let corrupt_pa r ~region ~pick =
  let p = r.Vmm.params in
  let info = p.Imk_guest.Boot_params.kernel in
  let table_va link_va = link_va + Imk_guest.Boot_params.delta p in
  match region with
  | 0 ->
      let layout = Imk_guest.Runtime.fn_layout r.Vmm.mem p in
      let va = layout.(pick mod Array.length layout) in
      (p, Imk_guest.Boot_params.va_to_pa p va + (pick / 7 mod 96))
  | 1 ->
      let tables =
        [|
          info.Imk_guest.Boot_params.link_rodata_va;
          info.Imk_guest.Boot_params.link_extab_va;
          info.Imk_guest.Boot_params.link_kallsyms_va;
        |]
      in
      ( p,
        Imk_guest.Boot_params.va_to_pa p (table_va tables.(pick mod 3))
        + (pick / 3 mod 64) )
  | 2 -> (
      match Imk_memory.Guest_mem.dirty_extent r.Vmm.mem with
      | Some (lo, hi) -> (p, lo + (pick mod (hi - lo)))
      | None -> (p, 0))
  | _ ->
      let size = Imk_memory.Guest_mem.size r.Vmm.mem in
      let _, len = entry_copy_at r ~pa:storage_edge in
      let back = 1 + (pick mod len) in
      let pa = if region = 3 then storage_edge - back else size - back in
      let params, _ = entry_copy_at r ~pa in
      (params, Int.min (size - 1) (pa + (pick / 7 mod len)))

let qcheck_walk_matches_reference =
  QCheck.Test.make ~name:"runtime: verify walk = reference"
    ~count:150
    QCheck.(
      quad (int_bound 1_000_000) (int_bound 4) (int_bound 1_000_000)
        (pair bool (int_range 1 255)))
    (fun (seed, region, pick, (fg, flip)) ->
      let env, rando = (Lazy.force walk_envs).(if fg then 1 else 0) in
      let orc = if fg then Vm_config.Orc_update else Vm_config.Orc_skip in
      let _, r = Testkit.boot env ~rando ~orc ~seed:(Int64.of_int seed) in
      let mem = r.Vmm.mem in
      let p, pa = corrupt_pa r ~region ~pick in
      Imk_memory.Guest_mem.write_bytes mem ~pa
        (Bytes.make 1 (Char.chr (Imk_memory.Guest_mem.get_u8 mem ~pa lxor flip)));
      let walk = outcome (fun () -> Imk_guest.Runtime.verify_boot mem p) in
      let layout = outcome (fun () -> Imk_guest.Runtime.fn_layout mem p) in
      walk = outcome (fun () -> Verify_ref.verify_boot mem p)
      && layout = outcome (fun () -> Verify_ref.fn_layout mem p)
      && guest_outcome walk && guest_outcome layout)

(* the walk reads every record without allocating: what a verify costs
   in minor words is its few per-walk values, 21 at most, whatever the
   number of sites (the tuple-per-record walk took ~17 per site) *)
let test_verify_allocation () =
  Testkit.skip_unless_native ();
  let env = Testkit.make_env ~functions:400 () in
  let _, r = Testkit.boot env in
  let sites = ref 0 in
  let verify () =
    let s = Imk_guest.Runtime.verify_boot r.Vmm.mem r.Vmm.params in
    sites := s.Imk_guest.Runtime.sites_verified
  in
  verify ();
  let words = Testkit.minor_words verify in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words <= 21 (%d sites)" words !sites)
    true (words <= 21.)

let test_fn_at_probe () =
  let env = Testkit.make_env ~functions:30 () in
  let _, r = Testkit.boot env in
  let p = r.Vmm.params in
  check Alcotest.bool "entry is fn" true
    (Imk_guest.Runtime.fn_at r.Vmm.mem p ~va:p.Imk_guest.Boot_params.entry_va
    <> None);
  check Alcotest.bool "garbage is not" true
    (Imk_guest.Runtime.fn_at r.Vmm.mem p
       ~va:(p.Imk_guest.Boot_params.virt_base + 7)
    = None)

(* --- kallsyms --- *)

let test_kallsyms_lookup_eager () =
  let env = Testkit.make_env ~functions:30 () in
  let _, r = Testkit.boot env in
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  let p = r.Vmm.params in
  check int "entry resolves to fn0" 0
    (Imk_guest.Kallsyms.lookup state ch r.Vmm.mem p
       ~va:p.Imk_guest.Boot_params.entry_va);
  check Alcotest.bool "no deferred fixup ran" true
    (not (Imk_guest.Kallsyms.fixed_up state))

let test_kallsyms_lookup_missing () =
  let env = Testkit.make_env ~functions:30 () in
  let _, r = Testkit.boot env in
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  check Alcotest.bool "fails" true
    (try
       ignore
         (Imk_guest.Kallsyms.lookup state ch r.Vmm.mem r.Vmm.params
            ~va:(r.Vmm.params.Imk_guest.Boot_params.virt_base + 3));
       false
     with Imk_guest.Kallsyms.Lookup_failed _ -> true)

let test_kallsyms_deferred_fixup () =
  let env =
    Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Fgkaslr ()
  in
  let _, r =
    Testkit.boot env ~rando:Vm_config.Rando_fgkaslr
      ~kallsyms:Vm_config.Kallsyms_deferred
  in
  let p = r.Vmm.params in
  check Alcotest.bool "boot left kallsyms stale" false
    p.Imk_guest.Boot_params.kallsyms_fixed;
  check Alcotest.bool "setup data present" true
    (p.Imk_guest.Boot_params.setup_data_pa <> None);
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  let before = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
  let id =
    Imk_guest.Kallsyms.lookup state ch r.Vmm.mem p
      ~va:p.Imk_guest.Boot_params.entry_va
  in
  let first_cost = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - before in
  check int "still resolves" 0 id;
  check Alcotest.bool "deferred fixup ran" true (Imk_guest.Kallsyms.fixed_up state);
  (* table is now trustworthy: full verification passes *)
  let p_fixed = { p with Imk_guest.Boot_params.kallsyms_fixed = true } in
  let stats = Imk_guest.Runtime.verify_boot r.Vmm.mem p_fixed in
  check int "kallsyms verified post-fixup" 40
    stats.Imk_guest.Runtime.kallsyms_verified;
  (* second lookup is cheap *)
  let before2 = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
  ignore
    (Imk_guest.Kallsyms.lookup state ch r.Vmm.mem p
       ~va:p.Imk_guest.Boot_params.entry_va);
  let second_cost = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - before2 in
  check Alcotest.bool "first lookup pays the fixup" true
    (first_cost > 100 * second_cost)

(* the deferred fixup rebuilds the plan from the blob the boot wrote
   from the plan's arrays: every function resolves at the VA the walk
   finds it at *)
let test_kallsyms_deferred_resolves_all () =
  let env =
    Testkit.make_env ~functions:60 ~variant:Imk_kernel.Config.Fgkaslr ()
  in
  let _, r =
    Testkit.boot env ~rando:Vm_config.Rando_fgkaslr
      ~kallsyms:Vm_config.Kallsyms_deferred
  in
  let p = r.Vmm.params in
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  Array.iteri
    (fun id va ->
      check int "resolves" id
        (Imk_guest.Kallsyms.lookup state ch r.Vmm.mem p ~va))
    (Imk_guest.Runtime.fn_layout r.Vmm.mem p);
  check Alcotest.bool "by the deferred fixup" true
    (Imk_guest.Kallsyms.fixed_up state)

let test_kallsyms_stale_without_setup_data () =
  let env =
    Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Fgkaslr ()
  in
  let _, r =
    Testkit.boot env ~rando:Vm_config.Rando_fgkaslr
      ~kallsyms:Vm_config.Kallsyms_deferred
  in
  let p =
    { r.Vmm.params with Imk_guest.Boot_params.setup_data_pa = None }
  in
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  check Alcotest.bool "unrepairable" true
    (try
       ignore
         (Imk_guest.Kallsyms.lookup state ch r.Vmm.mem p
            ~va:p.Imk_guest.Boot_params.entry_va);
       false
     with Imk_guest.Kallsyms.Lookup_failed _ -> true)

let test_kptr_restrict () =
  let env = Testkit.make_env ~functions:30 () in
  let _, r = Testkit.boot env in
  let _, ch = Imk_vclock.Charge.fresh () in
  let state = Imk_guest.Kallsyms.create () in
  let addr_priv, _ =
    Imk_guest.Kallsyms.read_for_user state ch r.Vmm.mem r.Vmm.params
      ~privileged:true ~index:0
  in
  let addr_user, id =
    Imk_guest.Kallsyms.read_for_user state ch r.Vmm.mem r.Vmm.params
      ~privileged:false ~index:0
  in
  check Alcotest.bool "privileged sees address" true (addr_priv <> 0);
  check int "unprivileged sees zero" 0 addr_user;
  check Alcotest.bool "but still the symbol" true (id >= 0)

(* --- linux boot timing --- *)

let test_linux_boot_linear_in_memory () =
  let cfg = Testkit.small_config () in
  let t256 = Imk_guest.Linux_boot.time_ns cfg ~mem_bytes:(256 * 1024 * 1024) in
  let t512 = Imk_guest.Linux_boot.time_ns cfg ~mem_bytes:(512 * 1024 * 1024) in
  let t1g = Imk_guest.Linux_boot.time_ns cfg ~mem_bytes:(1024 * 1024 * 1024) in
  check Alcotest.bool "monotone" true (t256 < t512 && t512 < t1g);
  (* linearity: the 256M->1G increase is 3x the 256M->512M increase *)
  check int "linear" (3 * (t512 - t256)) (t1g - t256)

let test_linux_boot_preset_ordering () =
  let t p =
    Imk_guest.Linux_boot.time_ns
      (Imk_kernel.Config.make p Imk_kernel.Config.Nokaslr)
      ~mem_bytes:(256 * 1024 * 1024)
  in
  check Alcotest.bool "lupine < aws < ubuntu" true
    (t Imk_kernel.Config.Lupine < t Imk_kernel.Config.Aws
    && t Imk_kernel.Config.Aws < t Imk_kernel.Config.Ubuntu)

let qcheck_boot_verifies_for_random_seeds =
  QCheck.Test.make ~name:"every seed boots and verifies (kaslr)" ~count:15
    QCheck.int64
    (fun seed ->
      let env = Testkit.make_env ~functions:40 () in
      let _, r = Testkit.boot env ~seed in
      r.Vmm.stats.Imk_guest.Runtime.functions_visited = 40)

let () =
  Alcotest.run "imk_guest"
    [
      ( "boot_params",
        [
          Alcotest.test_case "translation" `Quick test_boot_params_translation;
          Alcotest.test_case "kernel_info from elf" `Quick
            test_kernel_info_from_elf_matches_built;
          Alcotest.test_case "setup data roundtrip" `Quick
            test_setup_data_roundtrip;
          Alcotest.test_case "setup data garbage" `Quick
            test_setup_data_rejects_garbage;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "verify counts" `Quick test_verify_counts;
          Alcotest.test_case "detects corrupted site" `Quick
            test_detects_corrupted_site;
          Alcotest.test_case "detects corrupted magic" `Quick
            test_detects_corrupted_magic;
          Alcotest.test_case "detects unsorted kallsyms" `Quick
            test_detects_unsorted_kallsyms;
          Alcotest.test_case "detects header at guest end" `Quick
            test_detects_header_at_end;
          Alcotest.test_case "detects site straddling guest end" `Quick
            test_detects_site_straddling_end;
          Alcotest.test_case "detects abs32 tail past guest end" `Quick
            test_detects_abs32_tail_past_end;
          Alcotest.test_case "detects extab tail past guest end" `Quick
            test_detects_extab_tail_past_end;
          Alcotest.test_case "site across a storage edge" `Quick
            test_detects_site_across_storage_edge;
          Alcotest.test_case "detects target id mismatch" `Quick
            test_detects_target_id_mismatch;
          Alcotest.test_case "detects id out of range" `Quick
            test_detects_id_out_of_range;
          Alcotest.test_case "detects bad site kind" `Quick
            test_detects_bad_site_kind;
          Alcotest.test_case "detects abs64 site past 2^62" `Quick
            test_detects_abs64_past_2_62;
          Alcotest.test_case "detects rodata pointer past 2^62" `Quick
            test_detects_rodata_pointer_past_2_62;
          Alcotest.test_case "detects kallsyms base past 2^62" `Quick
            test_detects_kallsyms_base_past_2_62;
          Alcotest.test_case "verify allocation" `Quick test_verify_allocation;
          Alcotest.test_case "fn_at probe" `Quick test_fn_at_probe;
          Testkit.to_alcotest qcheck_walk_matches_reference;
          Testkit.to_alcotest qcheck_boot_verifies_for_random_seeds;
        ] );
      ( "kallsyms",
        [
          Alcotest.test_case "eager lookup" `Quick test_kallsyms_lookup_eager;
          Alcotest.test_case "missing symbol" `Quick test_kallsyms_lookup_missing;
          Alcotest.test_case "deferred fixup" `Quick test_kallsyms_deferred_fixup;
          Alcotest.test_case "deferred fixup resolves all" `Quick
            test_kallsyms_deferred_resolves_all;
          Alcotest.test_case "stale unrepairable" `Quick
            test_kallsyms_stale_without_setup_data;
          Alcotest.test_case "kptr_restrict" `Quick test_kptr_restrict;
        ] );
      ( "linux_boot",
        [
          Alcotest.test_case "linear in memory" `Quick
            test_linux_boot_linear_in_memory;
          Alcotest.test_case "preset ordering" `Quick
            test_linux_boot_preset_ordering;
        ] );
    ]
