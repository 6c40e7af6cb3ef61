(** CSV export of experiment results, for plotting Table 2 and the
    sweeps outside this repository.

    Values are RFC-4180-quoted where needed; the first line is a header.
    The row schema matches {!Table2.row} plus the realized metrics the
    paper's table omits.  Its count columns are the rows of
    {!Sekitei_core.Session.counts}, in order, each under its bench
    record key ({!Bench_json.key}). *)

(** Header + one line per row. *)
val table2_csv : Table2.row list -> string

(** [write_table2 rows path] writes the CSV to a file. *)
val write_table2 : Table2.row list -> string -> unit
