type t = {
  preset : Imk_kernel.Config.preset;
  variant : Imk_kernel.Config.variant;
  codec : string;
  functions : int;
  seed : int64;
}

let kernel t = Imk_kernel.Config.kernel_name t.preset t.variant

let name t =
  Printf.sprintf "%s/%s/f%d/s%Ld" (kernel t) t.codec t.functions t.seed

(* simplest first: the aligned uncompressed link skips both the
   copy-out-of-the-way and decompression, so a divergence that survives
   shrinking to "none-opt" has the smallest possible boot between the
   seed and the comparison *)
let codecs = [ "none-opt"; "none"; "lz4"; "gzip" ]

let default_functions preset variant =
  (Imk_kernel.Config.make preset variant).Imk_kernel.Config.functions

let matrix ~seed ~functions =
  List.concat_map
    (fun preset ->
      List.concat_map
        (fun variant ->
          (* one compressed and one uncompressed loader path per cell
             keeps the campaign quadratic-free; the codec axis is
             exercised fully by the shrinker's walk *)
          List.map
            (fun codec ->
              let functions =
                match functions with
                | Some f -> f
                | None -> default_functions preset variant
              in
              { preset; variant; codec; functions; seed })
            [ "lz4"; "none-opt" ])
        Imk_kernel.Config.all_variants)
    Imk_kernel.Config.all_presets

let rando_flag t =
  let mode = Imk_monitor.Vm_config.rando_of_variant t.variant in
  fst (List.find (fun (_, m) -> m = mode) Imk_monitor.Vm_config.rando_flags)

let fcsim_commands t =
  let base meth =
    Printf.sprintf
      "dune exec bin/fcsim.exe -- --kernel %s --rando %s --method %s \
       --seed %Ld --functions %d"
      (kernel t) (rando_flag t) meth t.seed t.functions
  in
  [ base "direct"; base t.codec ]
