type t =
  | Corrupt_image of string
  | Bad_reloc of string
  | Decode_error of string
  | Transient of string
  | Guest_panic of string
  | Deadline_exceeded of string

let kind_name = function
  | Corrupt_image _ -> "corrupt-image"
  | Bad_reloc _ -> "bad-reloc"
  | Decode_error _ -> "decode-error"
  | Transient _ -> "transient"
  | Guest_panic _ -> "guest-panic"
  | Deadline_exceeded _ -> "deadline-exceeded"

let message = function
  | Corrupt_image m | Bad_reloc m | Decode_error m | Transient m
  | Guest_panic m | Deadline_exceeded m ->
      m

let describe f = kind_name f ^ ": " ^ message f

let classify = function
  | Imk_monitor.Vmm.Boot_error m -> Some (Corrupt_image m)
  | Imk_monitor.Vmm.Transient m -> Some (Transient m)
  | Imk_monitor.Snapshot.Corrupt m -> Some (Decode_error m)
  (* one shared exception for every Imk_elf decoder (Parser, Note) *)
  | Imk_elf.Types.Malformed m -> Some (Corrupt_image m)
  | Imk_elf.Relocation.Bad_table m -> Some (Bad_reloc m)
  (* a well-formed table that belongs to another build of the kernel *)
  | Imk_randomize.Kaslr.Reloc_error m -> Some (Bad_reloc m)
  | Imk_kernel.Bzimage.Malformed m -> Some (Corrupt_image m)
  | Imk_kernel.Relocs_tool.Unsupported m -> Some (Bad_reloc m)
  | Imk_kernel.Rootfs.Corrupt m -> Some (Decode_error m)
  | Imk_kernel.Initrd.Corrupt m -> Some (Decode_error m)
  | Imk_compress.Codec.Corrupt m -> Some (Decode_error m)
  | Imk_bootstrap.Loader.Loader_error m -> Some (Corrupt_image m)
  | Imk_guest.Boot_info.Invalid m -> Some (Corrupt_image m)
  | Imk_guest.Runtime.Panic m -> Some (Guest_panic m)
  | Imk_memory.Guest_mem.Fault m -> Some (Guest_panic m)
  | Imk_vclock.Deadline.Exceeded m -> Some (Deadline_exceeded m)
  | _ -> None

let recoverable = function
  | Transient _ | Deadline_exceeded _ -> true
  | Corrupt_image _ | Bad_reloc _ | Decode_error _ | Guest_panic _ -> false

(* recovery actions a supervised boot can take; recorded in its report so
   telemetry can show what degraded gracefully and what it cost *)
type event =
  | Retried of { attempt : int; failure : t; backoff_ns : int }
  | Fell_back_to_cold_boot of t
  | Rederived_relocs of t
  | Deadline_aborted of { failure : t; fresh_budget_ns : int }
  | Retry_budget_exhausted of t
  | Breaker_opened of { failure : t; consecutive : int }
  | Breaker_short_circuit of { failure : t }
  | Breaker_probe of { succeeded : bool }

let event_name = function
  | Retried _ -> "retried"
  | Fell_back_to_cold_boot _ -> "cold-boot-fallback"
  | Rederived_relocs _ -> "rederived-relocs"
  | Deadline_aborted _ -> "deadline-aborted"
  | Retry_budget_exhausted _ -> "retry-budget-exhausted"
  | Breaker_opened _ -> "breaker-opened"
  | Breaker_short_circuit _ -> "breaker-short-circuit"
  | Breaker_probe _ -> "breaker-probe"

let describe_event = function
  | Retried { attempt; failure; backoff_ns } ->
      Printf.sprintf "retried (attempt %d, backoff %d ns) after %s" attempt
        backoff_ns (describe failure)
  | Fell_back_to_cold_boot f -> "cold-boot fallback after " ^ describe f
  | Rederived_relocs f -> "re-derived relocs from the ELF after " ^ describe f
  | Deadline_aborted { failure; fresh_budget_ns } ->
      Printf.sprintf "aborted attempt on %s; fresh budget %d ns"
        (describe failure) fresh_budget_ns
  | Retry_budget_exhausted f ->
      "campaign retry budget exhausted; failing fast on " ^ describe f
  | Breaker_opened { failure; consecutive } ->
      Printf.sprintf "breaker opened after %d consecutive persistent failures (last: %s)"
        consecutive (describe failure)
  | Breaker_short_circuit { failure } ->
      "breaker open: boot short-circuited (last: " ^ describe failure ^ ")"
  | Breaker_probe { succeeded } ->
      if succeeded then "half-open probe boot succeeded: breaker closed"
      else "half-open probe boot failed: breaker re-opened"
