type outcome = Pass | Divergence of string

type report = {
  outcome : outcome;
  planted : outcome option;
  boot_ns : (string * int) list;
}

type t = {
  id : string;
  doc : string;
  plant : string option;
  run : Env.images -> Point.t -> report;
}

let boot ?plans ?choices ?mem cache vm =
  let trace, ch = Imk_vclock.Charge.fresh () in
  (trace, Imk_monitor.Vmm.boot ?plans ?choices ?mem ch cache vm)

(* invariants phrased as "telemetry is bit-identical" are checked at span
   granularity: same labels, same phases, same start/stop instants *)
let span_list_diff la lb =
  let pp (s : Imk_vclock.Trace.span) =
    Printf.sprintf "%s/%s[%d,%d]"
      (Imk_vclock.Trace.phase_name s.Imk_vclock.Trace.phase)
      s.Imk_vclock.Trace.label s.Imk_vclock.Trace.start_ns
      s.Imk_vclock.Trace.stop_ns
  in
  if List.length la <> List.length lb then
    Some
      (Printf.sprintf "span count: %d vs %d" (List.length la)
         (List.length lb))
  else
    List.find_opt (fun (sa, sb) -> sa <> sb) (List.combine la lb)
    |> Option.map (fun (sa, sb) ->
           Printf.sprintf "span %s vs %s" (pp sa) (pp sb))

(* an oracle must report a boot that dies as a divergence of the
   comparison, not kill the campaign: the exception text is the finding,
   for the planted comparison too. [boots] accumulates the virtual totals
   of the boots that completed, so even a divergent comparison
   contributes deterministic telemetry *)
let guard ~planted f images point =
  let boots = ref [] in
  let note label trace =
    boots := (label, Imk_vclock.Trace.total trace) :: !boots
  in
  let outcome, planted =
    try f images point ~note
    with e ->
      let o = Divergence ("raised: " ^ Printexc.to_string e) in
      (o, if planted then Some o else None)
  in
  { outcome; planted; boot_ns = List.rev !boots }

let of_run f =
  guard ~planted:false (fun images point ~note -> (f images point ~note, None))

(* a side of a comparison, what an oracle reads of a finished boot *)
let side trace r = (Imk_vclock.Trace.spans trace, Layout.of_result r)

(* the comparison every catalogue oracle makes: [sides] boots the
   configurations and returns a vacuity finding (if the comparison proved
   nothing) and the labelled pairs of sides to compare, in order.
   Vacuity is reported first, then per pair the spans (when the
   invariant covers them) and the layout; the first divergent pair is
   the finding, prefixed with its label. The planted comparison repeats
   the check with [plant] applied to every pair's side b — the same
   boots, read differently *)
let comparison ~id ~doc ?plant ?(spans = false) ?(compare_phys = false) sides
    =
  let compare_pair (label, (spans_a, la), (spans_b, lb)) =
    (match if spans then span_list_diff spans_a spans_b else None with
    | Some d -> Some ("trace " ^ d)
    | None -> Layout.diff ~compare_phys la lb)
    |> Option.map (fun d -> label ^ ": " ^ d)
  in
  let compare vacuous pairs =
    match vacuous with
    | Some v -> Divergence ("vacuous: " ^ v)
    | None ->
        Option.fold ~none:Pass
          ~some:(fun d -> Divergence d)
          (List.find_map compare_pair pairs)
  in
  {
    id;
    doc;
    plant = Option.map fst plant;
    run =
      guard ~planted:(plant <> None) (fun images point ~note ->
          let vacuous, pairs = sides images point ~note in
          ( compare vacuous pairs,
            Option.map
              (fun (_, f) ->
                compare vacuous
                  (List.map (fun (label, a, b) -> (label, a, f b)) pairs))
              plant ));
  }

(* --- monitor ≡ bootstrap loader --- *)

(* the planted sensitivity fault for cross-path: an off-by-one in one
   image byte of the loader side *)
let plant_off_by_one (spans, (l : Layout.t)) =
  let image = Bytes.copy l.Layout.image in
  let off = Bytes.length image / 2 in
  Bytes.set image off
    (Char.chr ((Char.code (Bytes.get image off) + 1) land 0xff));
  (spans, { l with Layout.image })

let cross_path =
  comparison ~id:"cross-path"
    ~doc:"monitor and bootstrap loader produce the same layout bytes"
    ~plant:("off-by-one", plant_off_by_one)
    (fun images point ~note ->
      let env = Env.instantiate images in
      let choices =
        if
          Imk_monitor.Vm_config.rando_of_variant point.Point.variant
          = Imk_monitor.Vm_config.Rando_off
        then None
        else Some (Imk_randomize.Choices.of_seed point.Point.seed)
      in
      let ta, ra = boot ?choices env.Env.cache (Env.direct_config env point) in
      note "direct" ta;
      let direct = side ta ra in
      let tb, rb = boot ?choices env.Env.cache (Env.bz_config env point) in
      note "bz" tb;
      (None, [ ("direct/bz", direct, side tb rb) ]))

(* --- linear clock ≡ solo boot on the event scheduler --- *)

(* the planted sensitivity fault for the event core: one event
   reordering, surfaced as two adjacent spans swapped in the recorded
   trace. Every boot records at least two spans, so the exact span
   comparison must always report it *)
let swap_adjacent = function
  | a :: b :: rest, l -> (b :: a :: rest, l)
  | s -> s

let event_core_solo =
  comparison ~id:"event-core-solo"
    ~doc:"a solo boot on the event scheduler charges the linear clock's spans"
    ~plant:("event reordering", swap_adjacent) ~spans:true ~compare_phys:true
    (fun images point ~note ->
      (* a private env per side (as in [plan_cache]): both boots read a
         cold cache, so read costs cannot skew the comparison. The bz
         path sweeps the point's codec through the decompress slot; the
         direct path would never exercise it *)
      let env_a = Env.instantiate images in
      let ta, ra = boot env_a.Env.cache (Env.bz_config env_a point) in
      note "linear" ta;
      let env_b = Env.instantiate images in
      let sched = Imk_vclock.Sched.create () in
      let tl = Imk_vclock.Sched.timeline sched in
      let trace, ch = Imk_vclock.Charge.fresh ~sched:tl () in
      let result = ref None in
      Imk_vclock.Sched.spawn sched tl (fun () ->
          result :=
            Some
              (Imk_monitor.Vmm.boot ch env_b.Env.cache
                 (Env.bz_config env_b point)));
      Imk_vclock.Sched.run sched;
      note "event-core" trace;
      match !result with
      | None -> failwith "event-core boot completed without a result"
      | Some rb -> (None, [ ("linear/event-core", side ta ra, side trace rb) ]))

(* --- plan cache on ≡ off --- *)

let plan_cache =
  comparison ~id:"plan-cache"
    ~doc:"a plan-cache hit changes no span and no layout byte" ~spans:true
    ~compare_phys:true (fun images point ~note ->
      (* a private env per side: both sides' compared boot is the second
         one, so page-cache warmth matches too. [warm] runs between the
         two boots *)
      let second_boot ?plans ?(warm = fun () -> true) vm_of =
        let env = Env.instantiate images in
        let vm = vm_of env point in
        let _ = boot ?plans env.Env.cache vm in
        let warm = warm () in
        let trace, r = boot ?plans env.Env.cache vm in
        (warm, trace, side trace r, r)
      in
      let noted label (_, trace, side, _) =
        note label trace;
        side
      in
      let plans = Imk_monitor.Plan_cache.create () in
      let cached = noted "cached" (second_boot ~plans Env.direct_config) in
      let ((_, _, _, booted) as uncached) = second_boot Env.direct_config in
      let cold = noted "uncached" uncached in
      let hits, _ = Imk_monitor.Plan_cache.stats plans in
      (* the bzImage pair, on a plan cache of its own, is compared but not
         noted (the row's telemetry stays the vmlinux boots). Its warm
         boot must find the payload the first boot decoded already in the
         plan — the one a content lookup of the image returns *)
      let bz_plans = Imk_monitor.Plan_cache.create () in
      let memo_filled () =
        let plan =
          Imk_monitor.Plan_cache.bz_plan bz_plans ~path:images.Env.bz_name
            images.Env.bz_bytes
        in
        Option.is_some (Imk_kernel.Bzimage.unpacked plan.Imk_monitor.Plan_cache.bz)
      in
      let bz_warm, _, bz_cached, _ =
        second_boot ~plans:bz_plans ~warm:memo_filled Env.bz_config
      in
      let _, _, bz_cold, _ = second_boot Env.bz_config in
      (* the restore pair, likewise on a cache of its own and not noted:
         the second restore of the vmlinux boot's snapshot, through the
         cache (which must serve it decoded, its chunk image built by the
         first) and without it *)
      let blob = Imk_monitor.Snapshot.(serialize (capture booted)) in
      let config = booted.Imk_monitor.Vmm.config in
      let second_restore plans =
        let restore () =
          let snap =
            Imk_monitor.Snapshot.load_cached plans ~path:"oracle.snapshot"
              ~config blob
          in
          let warm = Imk_monitor.Snapshot.image_built snap in
          let trace, ch = Imk_vclock.Charge.fresh () in
          let r = Imk_monitor.Snapshot.restore ch snap ~working_set_pages:32 in
          (warm, side trace r)
        in
        ignore (restore ());
        restore ()
      in
      let restore_warm, restore_cached =
        second_restore (Some (Imk_monitor.Plan_cache.create ()))
      in
      let _, restore_cold = second_restore None in
      ( (if hits = 0 then Some "the plan cache was never hit"
         else if not bz_warm then
           Some "no warm bzImage boot found its payload decoded"
         else if not restore_warm then
           Some "no warm restore found its snapshot decoded"
         else None),
        [
          ("vmlinux", cached, cold);
          ("bzImage", bz_cached, bz_cold);
          ("restore", restore_cached, restore_cold);
        ] ))

(* --- snapshot restore ≡ the boot it captured --- *)

let snapshot_cold =
  comparison ~id:"snapshot-cold"
    ~doc:"a restored snapshot clone equals the boot it captured"
    ~compare_phys:true (fun images point ~note ->
      let env = Env.instantiate images in
      let t, r = boot env.Env.cache (Env.direct_config env point) in
      note "cold" t;
      let cold = side t r in
      let blob =
        Imk_monitor.Snapshot.serialize (Imk_monitor.Snapshot.capture r)
      in
      let snap =
        Imk_monitor.Snapshot.load ~config:r.Imk_monitor.Vmm.config blob
      in
      let trace, ch = Imk_vclock.Charge.fresh () in
      let restored =
        Imk_monitor.Snapshot.restore ch snap ~working_set_pages:32
      in
      note "restore" trace;
      (None, [ ("cold/restore", cold, side trace restored) ]))

(* --- arena-recycled ≡ fresh guest memory --- *)

let arena_fresh =
  comparison ~id:"arena-fresh"
    ~doc:"a boot into a recycled buffer equals one into fresh memory"
    ~spans:true ~compare_phys:true (fun images point ~note ->
      let env = Env.instantiate images in
      let arena = Imk_memory.Arena.create () in
      let vm = Env.direct_config env point in
      (* dirty a buffer with an unrelated boot, hand it back, then make
         the point's boot recycle it *)
      let dirty_vm =
        { vm with Imk_monitor.Vm_config.seed = Int64.add point.Point.seed 7L }
      in
      let size = vm.Imk_monitor.Vm_config.mem_bytes in
      let dirty = Imk_memory.Arena.borrow arena ~size in
      ignore (boot ~mem:dirty env.Env.cache dirty_vm);
      Imk_memory.Arena.release arena dirty;
      let recycled = Imk_memory.Arena.borrow arena ~size in
      let t_rec, r_rec = boot ~mem:recycled env.Env.cache vm in
      note "recycled" t_rec;
      let recycled = side t_rec r_rec in
      let fresh = Imk_memory.Guest_mem.create ~size in
      let t_fresh, r_fresh = boot ~mem:fresh env.Env.cache vm in
      note "fresh" t_fresh;
      let hits, _ = Imk_memory.Arena.stats arena in
      ( (if hits = 0 then Some "the arena never recycled a buffer" else None),
        [ ("recycled/fresh", recycled, side t_fresh r_fresh) ] ))

let catalogue =
  [ cross_path; event_core_solo; plan_cache; snapshot_cold; arena_fresh ]
