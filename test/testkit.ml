(* Shared helpers for the integration-level test suites: small kernels,
   one-call boots through the monitor, and corruption utilities. *)

open Imk_monitor

let small_config ?(preset = Imk_kernel.Config.Aws) ?(functions = 80)
    ?(variant = Imk_kernel.Config.Kaslr) ?(seed = 9L) () =
  { (Imk_kernel.Config.make ~scale:4 ~seed preset variant) with
    Imk_kernel.Config.functions }

type env = {
  disk : Imk_storage.Disk.t;
  cache : Imk_storage.Page_cache.t;
  built : Imk_kernel.Image.built;
  cfg : Imk_kernel.Config.t;
}

let make_env ?preset ?functions ?variant ?seed () =
  let cfg = small_config ?preset ?functions ?variant ?seed () in
  let built = Imk_kernel.Image.build cfg in
  let disk = Imk_storage.Disk.create () in
  let cache = Imk_storage.Page_cache.create disk in
  Imk_storage.Disk.add disk ~name:(cfg.Imk_kernel.Config.name ^ ".vmlinux")
    built.Imk_kernel.Image.vmlinux;
  Imk_storage.Disk.add disk ~name:(cfg.Imk_kernel.Config.name ^ ".relocs")
    built.Imk_kernel.Image.relocs_bytes;
  { disk; cache; built; cfg }

let vmlinux_path env = env.cfg.Imk_kernel.Config.name ^ ".vmlinux"
let relocs_path env = env.cfg.Imk_kernel.Config.name ^ ".relocs"

let add_bzimage env ~codec ~variant =
  let bz = Imk_kernel.Bzimage.link env.built ~codec ~variant in
  let name =
    Printf.sprintf "%s.bz-%s-%s" env.cfg.Imk_kernel.Config.name codec
      (Imk_kernel.Bzimage.variant_name variant)
  in
  Imk_storage.Disk.add env.disk ~name (Imk_kernel.Bzimage.encode bz);
  name

let charge () =
  let clock = Imk_vclock.Clock.create () in
  let trace = Imk_vclock.Trace.create clock in
  (trace, Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default)

let boot ?(rando = Vm_config.Rando_kaslr) ?flavor ?kallsyms ?orc ?loader
    ?plans ?(seed = 42L) ?(mem_bytes = 64 * 1024 * 1024) ?kernel_path ?relocs
    env =
  let kernel_path = Option.value ~default:(vmlinux_path env) kernel_path in
  let relocs_path =
    match relocs with
    | Some r -> r
    | None ->
        if rando = Vm_config.Rando_off then None else Some (relocs_path env)
  in
  let vm =
    Vm_config.make ?flavor ?kallsyms ?orc ?loader ~rando ~relocs_path
      ~mem_bytes ~kernel_path ~kernel_config:env.cfg ~seed ()
  in
  let trace, ch = charge () in
  let result = Vmm.boot ?plans ch env.cache vm in
  (trace, result)

(* --- a pristine single-kernel disk: campaigns that corrupt on-disk
   artifacts (test_fault) take a private copy per run so the shared env
   stays clean --- *)

let pristine_disk env =
  let disk = Imk_storage.Disk.create () in
  Imk_storage.Disk.add disk ~name:(vmlinux_path env)
    env.built.Imk_kernel.Image.vmlinux;
  Imk_storage.Disk.add disk ~name:(relocs_path env)
    env.built.Imk_kernel.Image.relocs_bytes;
  disk

(* corruption helper shared by the rejection tests: chop the tail off an
   encoded artifact — decoders must reject it, never read past the end *)
let truncated ?(drop = 5) b = Bytes.sub b 0 (max 0 (Bytes.length b - drop))

(* --- qcheck generators for the kernel matrix: suites draw cells from
   these instead of hand-rolled lists, and a failing case shrinks toward
   the simplest cell (lupine-nokaslr, none-opt, smallest kernel) — the
   same walk Imk_check.Shrink does for campaign points --- *)

let earlier_in xs x =
  let rec go acc = function
    | [] -> []
    | y :: _ when y = x -> List.rev acc
    | y :: tl -> go (y :: acc) tl
  in
  go [] xs

let arb_of_order ~print xs =
  QCheck.make ~print
    ~shrink:(fun x -> QCheck.Iter.of_list (earlier_in xs x))
    (QCheck.Gen.oneofl xs)

let arb_preset =
  arb_of_order ~print:Imk_kernel.Config.preset_name
    Imk_kernel.Config.all_presets

let arb_variant =
  arb_of_order ~print:Imk_kernel.Config.variant_name
    Imk_kernel.Config.all_variants

let arb_codec = arb_of_order ~print:Fun.id Imk_check.Point.codecs

(* int_range already shrinks toward its low bound *)
let arb_scale = QCheck.int_range 1 4

(* a full differential-campaign point; the shrinker is the campaign's
   own candidate walk, so qcheck minimizes exactly like --exp diffcheck *)
let arb_point =
  let gen =
    QCheck.Gen.map
      (fun (((preset, variant), (codec, functions)), seed) ->
        { Imk_check.Point.preset; variant; codec; functions;
          seed = Int64.of_int seed })
      QCheck.Gen.(
        pair
          (pair
             (pair
                (oneofl Imk_kernel.Config.all_presets)
                (oneofl Imk_kernel.Config.all_variants))
             (pair (oneofl Imk_check.Point.codecs) (int_range 8 64)))
          (int_bound 10_000))
  in
  QCheck.make ~print:Imk_check.Point.name
    ~shrink:(fun p -> QCheck.Iter.of_list (Imk_check.Shrink.candidates p))
    gen

(* --- alcotest adapter: one seed per process, printed with a repro
   one-liner when a property fails. QCHECK_SEED pins it (the same
   variable qcheck-alcotest honors natively), so the printed command
   replays the exact generator sequence. --- *)

let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None -> invalid_arg "QCHECK_SEED must be an integer")
    | None ->
        Random.self_init ();
        Random.int 1_000_000_000)

let to_alcotest ?speed_level test =
  let seed = Lazy.force qcheck_seed in
  let rand = Random.State.make [| seed |] in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ?speed_level ~rand test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf
          "[qcheck] %S failed under seed %d; replay it with:\n\
           [qcheck]   QCHECK_SEED=%d dune exec test/%s --\n\
           %!"
          name seed seed
          (Filename.basename Sys.executable_name);
        raise e )

(* --- allocation guards: minor words a thunk allocates. They hold for
   native code only — bytecode boxes every int64 and float — so a guard
   test calls [skip_unless_native] first. The thunk's closure is built
   before the first reading, so only what it allocates is counted. --- *)

let skip_unless_native () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ()

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before
