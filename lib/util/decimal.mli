(** The one decimal writer of the textual formats (.nnt, .isa): the
    digits [string_of_int] prints, written straight into a buffer. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [n] in decimal, with a leading ['-'] when
    negative; allocates nothing. *)
