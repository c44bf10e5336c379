(** Plain-text table rendering for experiment reports.

    [bench/main.exe] prints one table per reproduced figure; this module
    keeps the formatting uniform (left-aligned first column, right-aligned
    numeric columns, a rule under the header). *)

type t

val create : headers:string list -> t
(** [create ~headers] starts an empty table with the given column
    headers. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row. Rows shorter than the header are
    padded with empty cells; longer rows raise [Invalid_argument]. *)

val headers : t -> string list
(** [headers t] returns the column headers, for consumers that export the
    table (e.g. the bench telemetry JSON) rather than render it. *)

val rows : t -> string list list
(** [rows t] returns the data rows in insertion order.
    Each row has exactly as many cells as there are headers. *)

val render : t -> string
(** [render t] lays the table out with each column as wide as its widest
    cell and returns the final string (including a trailing newline). *)

val print : t -> unit
(** [print t] writes [render t] to stdout. *)
