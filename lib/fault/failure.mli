(** Typed failure taxonomy for supervised boots.

    Every exception a boot path can raise on corrupted input maps onto
    one of five kinds. The mapping is the contract the fault-injection
    campaign enforces: an injected corruption must surface as one of
    these (or as a guest-side {!Imk_guest.Runtime.Panic} from the
    integrity walk) — a boot that stays green over corrupted bytes is a
    soundness bug, and an exception {!classify} cannot place is an
    unclassified escape, which is equally a bug. *)

type t =
  | Corrupt_image of string
      (** A kernel image (ELF or bzImage) failed structural validation:
          bad magic, truncated tables, out-of-range offsets. *)
  | Bad_reloc of string
      (** The relocation table is unusable: bad magic, truncated
          entries, sites outside the kernel window (a table from another
          build), or an extraction path that cannot serve the image. *)
  | Decode_error of string
      (** A framed payload failed its own integrity check: codec CRC,
          snapshot CRC, rootfs/initrd archive corruption. *)
  | Transient of string
      (** A fault the monitor believes is not persistent (injected VMM
          init hiccup); retrying is sensible. *)
  | Guest_panic of string
      (** The guest itself detected the problem: a missed relocation in
          the integrity walk or a memory-fault during boot. *)
  | Deadline_exceeded of string
      (** The attempt charged past its {!Imk_vclock.Deadline} budget —
          an overload symptom, not corruption. The supervisor aborts the
          attempt and falls back (snapshot-or-cold) with a fresh
          budget. *)

val kind_name : t -> string
(** Stable short tag ("corrupt-image", "bad-reloc", "decode-error",
    "transient", "guest-panic", "deadline-exceeded") — used as telemetry
    column values and in [BENCH_faults.json]. *)

val message : t -> string
(** The underlying exception's message. *)

val describe : t -> string
(** ["kind: message"]. *)

val classify : exn -> t option
(** [classify e] maps a boot-path exception onto the taxonomy, or [None]
    for exceptions that are not typed boot failures (programming errors
    like [Invalid_argument] — the supervisor re-raises those rather than
    masking them). *)

val recoverable : t -> bool
(** [recoverable f] is true for the kinds a supervisor has a generic
    recovery for regardless of configuration: transients (retry) and
    deadline overruns (abort + fresh-budget fallback). [Bad_reloc] and a
    snapshot's [Decode_error] are also recoverable {e when} the config
    carries a relocs path / a cold-boot fallback — the campaign, which
    knows the config, accounts for those separately. *)

(** Recovery actions a {!Imk_harness.Boot_supervisor} took, in order.
    Each is recorded in the supervision report; retry/backoff and
    re-derivation work is separately charged to the virtual clock. *)
type event =
  | Retried of { attempt : int; failure : t; backoff_ns : int }
      (** A transient failure was retried after paying [backoff_ns]. *)
  | Fell_back_to_cold_boot of t
      (** Snapshot restore failed its validation; a cold boot was run
          instead. *)
  | Rederived_relocs of t
      (** The relocation table was corrupt; a fresh one was re-derived
          from the kernel ELF. *)
  | Deadline_aborted of { failure : t; fresh_budget_ns : int }
      (** An attempt overran its virtual-time budget and was aborted at
          a phase boundary; the follow-up attempt got a fresh budget of
          [fresh_budget_ns]. *)
  | Retry_budget_exhausted of t
      (** A transient would have been retried, but the campaign-level
          retry budget was dry — the supervisor failed fast instead of
          spinning through a storm. *)
  | Breaker_opened of { failure : t; consecutive : int }
      (** [consecutive] persistent failures in a row tripped the
          kernel-config's circuit breaker. *)
  | Breaker_short_circuit of { failure : t }
      (** The breaker was open: the boot was rejected without an
          attempt, for a small charged cost; [failure] is the last
          failure the breaker saw. *)
  | Breaker_probe of { succeeded : bool }
      (** The half-open probe boot ran: success closes the breaker,
          failure re-opens it for another cooldown. *)

val event_name : event -> string
(** Stable short tag ("retried", "cold-boot-fallback",
    "rederived-relocs", "deadline-aborted", "retry-budget-exhausted",
    "breaker-opened", "breaker-short-circuit", "breaker-probe"). *)

val describe_event : event -> string
