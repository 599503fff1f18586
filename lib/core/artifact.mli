(** Serialised compile artifacts — the on-disk unit of the compile
    cache (docs/formats.md, "pimart container").

    The container records the cache key the program was compiled under
    and an MD5 checksum over the payload, a compact binary encoding of
    the program (docs/formats.md, "payload grammar").  The decoder is
    total: any bytes decode to a program or raise {!Corrupt}, so no
    input ends the process, and the checksum turns torn or bit-flipped
    entries into {!Corrupt} before they are decoded.  Semantic validity
    of the program itself is established by {!Verify} when a {!Cache}
    handle first loads the entry (see {!Cache}).

    One header parser serves every reader.  The payload is checksummed
    and decoded where it lies in the bytes read from disk, never copied
    out of them. *)

exception Corrupt of string
(** The container failed structural validation: bad magic or version,
    truncated header, payload length or checksum mismatch, or a payload
    that is not the encoding of a program.  The only exception the
    readers below raise. *)

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
    makes before it decodes the payload: the payload is never decoded.
    Raises {!Corrupt} on unreadable or invalid files. *)

(** {2 Staged loading}

    {!Cache}'s hit path: read a file once, check its header, and decide
    from the bytes alone whether the payload still needs its checks. *)

type opened
(** A container read into memory with its header checked (magic,
    version, key, graph and payload lines, payload length); the payload
    is neither checksummed nor decoded yet. *)

val open_file : pad:string -> string -> opened
(** [open_file ~pad path] reads [path] into one buffer that begins with
    [pad] and checks the header that follows it.  Raises {!Corrupt} on
    unreadable files and malformed headers. *)

val key : opened -> string
(** The key line's key. *)

val bytes : opened -> string
(** The whole buffer: [pad], then the file's bytes as read. *)

val load : opened -> Isa.t
(** Every remaining check {!of_file} makes: the payload's MD5, then the
    decode and the graph-name match.  Raises {!Corrupt}. *)

val decode : opened -> Isa.t
(** The decode and graph-name match alone, without the checksum.  Sound
    on any bytes: a payload that is not a program's encoding raises
    {!Corrupt}. *)
