(** A campaign point: one cell of the differential-oracle sweep.

    A point fixes everything a comparison boots — kernel preset and
    variant, function count, bzImage codec for the loader-path side, and
    the entropy seed. The oracle catalogue ({!Oracle}) boots a point
    through two paths and asserts equivalence; the shrinker ({!Shrink})
    walks points toward a minimal failing one. Points print as
    ready-to-paste [fcsim] commands so a diverging cell is reproducible
    outside the campaign. *)

type t = {
  preset : Imk_kernel.Config.preset;
  variant : Imk_kernel.Config.variant;
  codec : string;
      (** loader-path image method: a codec name ("lz4", "gzip", "none")
          or "none-opt" for the aligned uncompressed link *)
  functions : int;  (** kernel size knob (actual function count) *)
  seed : int64;  (** boot entropy seed; also pins the {!Imk_randomize.Choices} schedule *)
}

val name : t -> string
(** Short cell label, e.g. "aws-kaslr/lz4/f80/s42". *)

val codecs : string list
(** Valid [codec] values, simplest first ("none-opt", "none", "lz4",
    "gzip") — the shrinker walks this order, and [fcsim --method]
    accepts each besides "direct". {!Imk_kernel.Bzimage.of_method} links
    them. *)

val matrix : seed:int64 -> functions:int option -> t list
(** The campaign catalogue for one seed: presets × variants × a
    representative codec spread, mirroring the boot-matrix suites.
    [functions] overrides the preset's size when given. *)

val fcsim_commands : t -> string list
(** Ready-to-paste reproduction commands for the two boots a cross-path
    comparison runs: the direct (monitor) boot and the bzImage (loader)
    boot of this point. The point boots with
    {!Imk_monitor.Vm_config.rando_of_variant} of its variant; every
    [--kernel], [--rando] and [--method] value printed is one of
    {!Imk_kernel.Config.kernel_names}, {!Imk_monitor.Vm_config.rando_flags}
    and "direct" or {!codecs}, the vocabularies [fcsim] parses. *)
