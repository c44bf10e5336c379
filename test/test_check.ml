(* Suite 19: the differential boot-oracle subsystem (Imk_check).

   The oracle catalogue must pass on healthy points, must CATCH a
   planted divergence (an oracle that cannot fail is not evidence), and
   the shrinker must walk a failing point down to a minimal reproducer.
   The campaign driver's rows must be bit-identical for any jobs
   fan-out, like every other experiment. *)

open Imk_check

let check = Alcotest.check

let point ?(preset = Imk_kernel.Config.Aws)
    ?(variant = Imk_kernel.Config.Kaslr) ?(codec = "lz4") ?(functions = 60)
    ?(seed = 11L) () =
  { Point.preset; variant; codec; functions; seed }

let run_oracle (o : Oracle.t) p = (o.Oracle.run (Env.build p) p).Oracle.outcome

(* --- the catalogue passes on healthy points --- *)

let oracle_passes (o : Oracle.t) p () =
  match run_oracle o p with
  | Oracle.Pass -> ()
  | Oracle.Divergence d ->
      Alcotest.failf "oracle %s diverged on %s: %s" o.Oracle.id (Point.name p)
        d

let catalogue_cases =
  List.concat_map
    (fun (o : Oracle.t) ->
      List.map
        (fun p ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" o.Oracle.id (Point.name p))
            `Quick
            (oracle_passes o p))
        [
          point ();
          point ~variant:Imk_kernel.Config.Fgkaslr ~codec:"none-opt" ();
          point ~preset:Imk_kernel.Config.Lupine
            ~variant:Imk_kernel.Config.Nokaslr ~codec:"none" ~seed:3L ();
        ])
    (Oracle.catalogue ~mutate:false)

(* --- deferred kallsyms across paths: Env pins eager kallsyms, so the
   setup-data policy mapping gets its own comparison. Both principals
   must leave kallsyms stale, publish the same blob at the same address
   and otherwise produce the same layout --- *)

let deferred_kallsyms_cross_path preset () =
  let p = point ~preset ~variant:Imk_kernel.Config.Fgkaslr () in
  let env = Env.instantiate (Env.build p) in
  let choices = Imk_randomize.Choices.of_seed p.Point.seed in
  let boot vm =
    let vm =
      { vm with
        Imk_monitor.Vm_config.kallsyms =
          Imk_monitor.Vm_config.Kallsyms_deferred }
    in
    let _, ch = Testkit.charge () in
    Imk_monitor.Vmm.boot ~choices ch env.Env.cache vm
  in
  let a = boot (Env.direct_config env p) and b = boot (Env.bz_config env p) in
  (match Layout.diff (Layout.of_result a) (Layout.of_result b) with
  | None -> ()
  | Some d -> Alcotest.failf "layouts diverge: %s" d);
  let params (r : Imk_monitor.Vmm.boot_result) = r.Imk_monitor.Vmm.params in
  check Alcotest.bool "kallsyms left stale" false
    (params a).Imk_guest.Boot_params.kallsyms_fixed;
  let pa = Imk_guest.Boot_params.default_setup_data_pa in
  check
    Alcotest.(option int)
    "blob published" (Some pa) (params a).Imk_guest.Boot_params.setup_data_pa;
  check
    Alcotest.(option int)
    "same setup_data_pa" (params a).Imk_guest.Boot_params.setup_data_pa
    (params b).Imk_guest.Boot_params.setup_data_pa;
  let blob (r : Imk_monitor.Vmm.boot_result) =
    let mem = r.Imk_monitor.Vmm.mem in
    let len =
      Bytes.length
        (Imk_guest.Boot_params.setup_data_encode
           (Imk_guest.Boot_params.setup_data_read mem ~pa))
    in
    Imk_memory.Guest_mem.read_bytes mem ~pa ~len
  in
  check Alcotest.bool "setup-data blobs byte-equal" true
    (Bytes.equal (blob a) (blob b))

let deferred_kallsyms_cases =
  List.map
    (fun preset ->
      Alcotest.test_case
        (Imk_kernel.Config.preset_name preset ^ "-fgkaslr")
        `Quick
        (deferred_kallsyms_cross_path preset))
    Imk_kernel.Config.all_presets

(* --- sensitivity: the planted off-by-one must be reported caught --- *)

let mutate_caught () =
  let p = point () in
  match run_oracle (Oracle.cross_path ~mutate:true ()) p with
  | Oracle.Divergence d ->
      check Alcotest.bool "divergence names an image byte" true
        (String.length d > 0)
  | Oracle.Pass ->
      Alcotest.fail "planted off-by-one not caught: the oracle cannot fail"

(* --- shrinking: candidates are strictly simpler; a planted failure
   converges to a small reproducer --- *)

let measure (p : Point.t) =
  let index_of x xs =
    let rec go i = function
      | [] -> assert false
      | y :: _ when y = x -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 xs
  in
  p.Point.functions
  + index_of p.Point.codec Point.codecs
  + index_of p.Point.preset
      [ Imk_kernel.Config.Lupine; Imk_kernel.Config.Aws;
        Imk_kernel.Config.Ubuntu ]
  + index_of p.Point.variant
      [ Imk_kernel.Config.Nokaslr; Imk_kernel.Config.Kaslr;
        Imk_kernel.Config.Fgkaslr ]
  + if p.Point.seed = 0L then 0 else 1

let candidates_strictly_simpler () =
  let p =
    point ~preset:Imk_kernel.Config.Ubuntu ~variant:Imk_kernel.Config.Fgkaslr
      ~codec:"gzip" ~functions:200 ~seed:99L ()
  in
  List.iter
    (fun c ->
      check Alcotest.bool
        (Printf.sprintf "%s simpler than %s" (Point.name c) (Point.name p))
        true
        (measure c < measure p))
    (Shrink.candidates p)

let shrink_converges () =
  let mutant = Oracle.cross_path ~mutate:true () in
  let boots = ref 0 in
  let still_fails p =
    incr boots;
    match run_oracle mutant p with
    | Oracle.Divergence _ -> true
    | Oracle.Pass -> false
  in
  let start =
    point ~preset:Imk_kernel.Config.Aws ~variant:Imk_kernel.Config.Fgkaslr
      ~codec:"gzip" ~functions:160 ~seed:77L ()
  in
  let minimal = Shrink.minimize still_fails start in
  check Alcotest.bool "reproducer within the acceptance bound" true
    (minimal.Point.functions <= 80);
  (* the planted fault survives every simplification, so the walk must
     reach the floor on every axis *)
  check Alcotest.int "function floor" 8 minimal.Point.functions;
  check Alcotest.string "codec floor" "none-opt" minimal.Point.codec;
  check Alcotest.bool "seed floor" true (minimal.Point.seed = 0L);
  check Alcotest.bool "bounded work" true (!boots < 200);
  let rep = Shrink.report minimal in
  check Alcotest.bool "report carries an fcsim repro" true
    (String.length rep > 0
    && String.length (List.nth (String.split_on_char '\n' rep) 1) > 0)

(* --- the generators satellite meets the oracle: random points drawn
   from the shared kernel-matrix arbitrary must pass cross-path, and a
   failure would shrink by the campaign's own candidate walk --- *)

let qcheck_cross_path_random_points =
  QCheck.Test.make ~count:5
    ~name:"check: cross-path passes on generated points" Testkit.arb_point
    (fun p ->
      match run_oracle (Oracle.cross_path ()) p with
      | Oracle.Pass -> true
      | Oracle.Divergence _ -> false)

(* --- campaign rows must be bit-identical for any jobs fan-out, like
   every other experiment --- *)

module H = Imk_harness

let diffcheck ?(mutate = false) jobs =
  let run = { H.Workspace.default_run with jobs; mutate } in
  let ws = H.Workspace.create ~scale:4 ~functions_override:40 ~run () in
  (List.assoc "diffcheck" H.Experiments.registry) ~runs:3 ws

let diffcheck_jobs_invariant () =
  let a = diffcheck 1 and b = diffcheck 4 in
  check
    Alcotest.(list (list string))
    "table rows identical"
    (Imk_util.Table.rows a.H.Experiments.table)
    (Imk_util.Table.rows b.H.Experiments.table);
  check Alcotest.(list string) "notes identical" a.H.Experiments.notes
    b.H.Experiments.notes;
  check Alcotest.bool "telemetry rows identical" true
    (a.H.Experiments.telemetry = b.H.Experiments.telemetry);
  check Alcotest.bool "zero divergences" true (H.Experiments.failures a = [])

(* the planted faults reach the campaign through the run config, and
   every plant comes back as a passing "caught" verdict *)
let diffcheck_mutate_caught () =
  let verdicts = (diffcheck ~mutate:true 1).H.Experiments.verdicts in
  let caught =
    List.filter
      (fun (v : H.Experiments.verdict) ->
        String.length v.H.Experiments.name > 7
        && String.sub v.H.Experiments.name 0 7 = "caught:")
      verdicts
  in
  check Alcotest.int "one caught verdict per plant" 2 (List.length caught);
  List.iter
    (fun (v : H.Experiments.verdict) ->
      check Alcotest.bool v.H.Experiments.detail true v.H.Experiments.pass)
    verdicts

let () =
  Alcotest.run "check"
    [
      ("oracle-catalogue", catalogue_cases);
      ("defer-kallsyms", deferred_kallsyms_cases);
      ( "sensitivity",
        [ Alcotest.test_case "mutate caught" `Quick mutate_caught ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates strictly simpler" `Quick
            candidates_strictly_simpler;
          Alcotest.test_case "planted divergence converges" `Quick
            shrink_converges;
        ] );
      ( "campaign",
        [
          Testkit.to_alcotest qcheck_cross_path_random_points;
          Alcotest.test_case "diffcheck rows jobs-invariant" `Quick
            diffcheck_jobs_invariant;
          Alcotest.test_case "diffcheck --mutate plants caught" `Quick
            diffcheck_mutate_caught;
        ] );
    ]
