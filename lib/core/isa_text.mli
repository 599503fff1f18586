(** Textual serialisation of compiled operation streams (the PUMA-style
    ISA dump emitted by the dataflow-scheduling stage).  [to_string] and
    [of_string] round-trip exactly.

    [of_string] accepts the printer's line forms and nothing else
    (docs/formats.md has the grammar): the lines in the printed order,
    each line's fields in the printed order and each once, decimal
    integers that fit an [int].  Spaces, tabs and a trailing CR separate
    tokens, and blank lines are skipped. *)

exception Parse_error of { line : int; message : string }
(** Every malformed input raises [Parse_error], never another
    exception.  [line] is the 1-based line at fault; a core count that
    the core headers do not match is reported on the program line. *)

val to_string : Isa.t -> string
val of_string : string -> Isa.t
val to_file : string -> Isa.t -> unit
val of_file : string -> Isa.t
