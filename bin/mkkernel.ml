(* mkkernel: build a synthetic kernel image (and companions) to real files
   on the host filesystem — the build step that precedes boot-time
   experiments, analogous to compiling a Linux tree.

   Example:
     mkkernel --kernel aws-fgkaslr --out /tmp/k
   writes /tmp/k/aws-fgkaslr.vmlinux, .relocs, .bzimage-lz4, .bzimage-none-opt *)

open Cmdliner

let kernel =
  Arg.(
    required
    & opt (some (enum Imk_kernel.Config.kernel_names)) None
    & info [ "kernel"; "k" ] ~docv:"PRESET-VARIANT" ~doc:"Kernel to build.")

let out_dir =
  Arg.(
    value & opt string "."
    & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")

let scale =
  Arg.(
    value & opt int 16
    & info [ "scale" ] ~docv:"N"
        ~doc:"Build scale: the image models a kernel N× its actual size.")

let codecs =
  Arg.(
    value
    & opt (list string) [ "lz4" ]
    & info [ "codecs" ] ~docv:"LIST"
        ~doc:"bzImage codecs to link (from gzip bzip2 lzma xz lzo lz4 none).")

let write_file path data =
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  Printf.printf "wrote %-48s %s\n" path
    (Imk_util.Units.bytes_to_string (Bytes.length data))

let run kernel out_dir scale codecs =
  let preset, variant = kernel in
  let cfg = Imk_kernel.Config.make ~scale preset variant in
  Printf.printf "building %s (%d functions, scale %d)...\n"
    cfg.Imk_kernel.Config.name cfg.Imk_kernel.Config.functions scale;
  let built = Imk_kernel.Image.build cfg in
  let base = Filename.concat out_dir cfg.Imk_kernel.Config.name in
  write_file (base ^ ".vmlinux") built.Imk_kernel.Image.vmlinux;
  if cfg.Imk_kernel.Config.relocatable then
    write_file (base ^ ".relocs") built.Imk_kernel.Image.relocs_bytes;
  List.iter
    (fun codec ->
      match Imk_compress.Registry.find_opt codec with
      | None -> Printf.eprintf "skipping unknown codec %s\n" codec
      | Some _ ->
          let bz =
            Imk_kernel.Bzimage.link built ~codec
              ~variant:Imk_kernel.Bzimage.Standard
          in
          write_file
            (Printf.sprintf "%s.bzimage-%s" base codec)
            (Imk_kernel.Bzimage.encode bz))
    codecs;
  let bz_opt =
    let codec, variant = Imk_kernel.Bzimage.of_method "none-opt" in
    Imk_kernel.Bzimage.link built ~codec ~variant
  in
  write_file (base ^ ".bzimage-none-opt") (Imk_kernel.Bzimage.encode bz_opt);
  Printf.printf "modelled sizes: vmlinux %s, relocs %s, %d sections\n"
    (Imk_util.Units.bytes_to_string (Imk_kernel.Image.modeled_vmlinux_bytes built))
    (Imk_util.Units.bytes_to_string (Imk_kernel.Image.modeled_reloc_bytes built))
    (Imk_kernel.Image.modeled_sections built);
  0

let cmd =
  let doc = "build a synthetic kernel image and its boot companions" in
  Cmd.v (Cmd.info "mkkernel" ~doc)
    Term.(const run $ kernel $ out_dir $ scale $ codecs)

let () = exit (Cmd.eval' cmd)
