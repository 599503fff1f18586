(** Content-addressed compile cache: a directory of {!Artifact}
    containers keyed by a canonical digest of (graph, options, hardware
    config) — see {!Compile.cache_key} for key construction and
    docs/formats.md for the container format.

    Invariant ("a cache hit is indistinguishable from a fresh
    compile"): {!find} only returns a program that passed the container
    checksum, matched the requested key, and re-verified cleanly under
    {!Verify.run} against the request's graph and hardware config.  Any
    failed entry is deleted and counted as a rejected miss, so the
    caller recompiles and the cache heals.  Entries are published
    atomically (temp + rename), so crashed or concurrent writers cannot
    leave torn files.  Eviction is LRU by file mtime (hits touch their
    entry), enforced on {!store} when [max_bytes] is set.

    Handles are domain-safe and cheap to open; the serve daemon keeps
    one for its lifetime so the counters aggregate across requests. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  rejected : int;  (** corrupt / mismatched / verify-failed entries dropped *)
  entries : int;   (** currently on disk *)
  bytes : int;     (** total size currently on disk *)
}

val digest_fields : (string * string) list -> string
(** Canonical digest of a (name, value) field list: fields are sorted
    and length-prefixed (the rendering is injective — no pair of field
    lists with different contents shares a byte string), then MD5'd to
    32 hex chars.  Field order never affects the digest.  This is
    deliberately a real content digest, not [Hashtbl.hash], whose
    truncated traversal collides distinct structures. *)

val open_dir : ?max_bytes:int -> string -> t
(** Creates the directory if needed.  [max_bytes] bounds the on-disk
    size via LRU eviction on store ([None] = unbounded). *)

val dir : t -> string

val find :
  t ->
  key:string ->
  graph:Nnir.Graph.t ->
  config:Pimhw.Config.t ->
  unit ->
  Isa.t option
(** Verify-on-load lookup.  [Some program] is a hit: checksummed, key-
    matched, and [Verify.run]-clean against [graph]/[config].  [None]
    is a miss — including poisoned entries, which are deleted and
    counted in [rejected]. *)

val store : t -> key:string -> Isa.t -> unit
(** Atomic publication, then LRU budget enforcement.  The newest entry
    always survives eviction. *)

val trim : t -> int
(** Enforce the [max_bytes] budget now (no-op when unbounded); returns
    how many entries were evicted by this call. *)

val stats : t -> stats
val clear : t -> int
(** Deletes every entry; returns how many were removed. *)

val list : t -> (string * string * int * float) list
(** [(key, graph_name, bytes, mtime)] for every entry, newest first.
    The graph name is read from the container header by
    {!Artifact.graph_name_of_file}, so no payload is unmarshalled; an
    entry that fails the container check is named ["<corrupt>"]. *)
