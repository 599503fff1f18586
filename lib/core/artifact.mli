(** Serialised compile artifacts — the on-disk unit of the compile
    cache (docs/formats.md, "pimart container").

    The container records the cache key the program was compiled under
    and an MD5 checksum over the marshalled payload, validated {e
    before} the bytes reach the unmarshaller: torn or bit-flipped
    entries raise {!Corrupt} instead of undefined behaviour.  Semantic
    validity of the program itself is re-established by {!Verify} at
    every cache load (see {!Cache}). *)

exception Corrupt of string
(** The container failed structural validation (bad magic, truncated
    header, payload length or checksum mismatch).  Always raised in
    preference to feeding suspect bytes to [Marshal]. *)

type t = { key : string; program : Isa.t }

val make : key:string -> Isa.t -> t
(** [key] must be 32 lowercase hex characters (a {!Cache.digest_fields}
    output); raises [Invalid_argument] otherwise. *)

val to_string : t -> string
val of_string : string -> t
(** Exact round-trip: [of_string (to_string a) = a].  [of_string]
    raises {!Corrupt} on any container violation. *)

val to_file : string -> t -> unit
(** Atomic publication via {!Pimutil.Atomic_io} — a crashed writer
    never leaves a torn artifact. *)

val of_file : string -> t
(** Raises {!Corrupt} on unreadable or invalid files. *)

val graph_name_of_file : string -> string
(** The graph name in a container's header, after every check {!of_file}
    makes before the payload reaches [Marshal]: the payload is never
    unmarshalled.  Raises {!Corrupt} on unreadable or invalid files. *)
