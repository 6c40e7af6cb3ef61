(** Minimal JSON values with a hand-rolled writer and parser.

    The build environment has no JSON library, so the telemetry JSONL
    sink, the benchmark record emitter, and the trace-report tool share
    this module instead of each hand-rolling Printf emission.  The writer
    emits compact one-line documents, passing UTF-8 string bytes through
    verbatim; the parser decodes [\uXXXX] escapes to UTF-8, combining
    surrogate pairs into the supplementary code point and replacing an
    unpaired surrogate with U+FFFD. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line serialization.  Non-finite floats are emitted as
    the strings ["nan"], ["inf"], ["-inf"] (not valid JSON number
    literals otherwise). *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** Field lookup on an [Obj]; [None] on other constructors. *)
val member : string -> t -> t option

val to_int : t -> int option

(** [Int] widens to float. *)
val to_float : t -> float option

val to_str : t -> string option
