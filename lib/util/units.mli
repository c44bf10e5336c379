(** Human-readable formatting of byte sizes and durations.

    The virtual clock counts nanoseconds as integers; experiment reports
    print milliseconds, matching the paper's figures. *)

val kib : int -> int
(** [kib n] is [n * 1024]. *)

val mib : int -> int
(** [mib n] is [n * 1024 * 1024]. *)

val gib : int -> int
(** [gib n] is [n * 1024 * 1024 * 1024]. *)

val bytes_to_string : int -> string
(** [bytes_to_string n] renders [n] as e.g. ["4.2M"], ["94K"], ["512"]
    using binary units, in the compact style of the paper's Table 1. *)

val ns_to_ms : int -> float
(** [ns_to_ms ns] converts nanoseconds to milliseconds. *)

val ns_float_to_ms : float -> float
(** [ns_float_to_ms ns] converts a fractional nanosecond quantity (e.g. a
    mean over samples) to milliseconds without truncating through int. *)

val ms_to_ns : float -> int
(** [ms_to_ns ms] converts milliseconds to nanoseconds (rounded). *)

val ms_string : int -> string
(** [ms_string ns] renders a nanosecond duration as milliseconds with
    two decimals, e.g. ["28.10 ms"]. *)
