(** Plain-text table rendering for the benchmark harness.

    The benches print the same rows/series the paper reports; this module
    keeps the formatting in one place (aligned columns, optional CSV,
    and the JSON string escaper every JSON writer shares). *)

type t

val create : title:string -> header:string list -> t
(** New table with column [header].  [title] is printed above. *)

val add_row : t -> string list -> unit
(** Append a row; short rows are padded with empty cells. *)

val cell_f : float -> string
(** Canonical float cell: 2 decimals, or scientific for tiny/huge
    values.  Non-finite values (a percentile of an empty histogram, a
    ratio with a zero denominator) render as ["-"], never ["nan"]. *)

val print : Format.formatter -> t -> unit
(** Render with aligned columns. *)

val to_csv : t -> string
(** Comma-separated rendering (header included, title omitted). *)

val json_escape : string -> string
(** The body of a JSON string literal: quote, backslash and control
    characters escaped, every other byte as is. *)
