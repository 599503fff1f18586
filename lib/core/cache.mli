(** Content-addressed compile cache: a directory of {!Artifact}
    containers keyed by a canonical digest of (graph, options, hardware
    config) — see {!Compile.cache_key} for key construction and
    docs/formats.md for the container format.

    Invariant ("a cache hit is indistinguishable from a fresh
    compile"): {!find} only returns a program whose bytes passed, in
    this handle, the container checksum, the match with the requested
    key, and a clean {!Verify.run} against the request's graph and
    hardware config.  Each handle runs those checks on its first load
    of an entry and records an HMAC-MD5 of the entry's file bytes under
    a secret drawn from OS entropy when the handle opened.  A later hit
    whose bytes carry the recorded MAC under the same key is
    {e recalled}: the verdict depends only on (program, graph, config),
    the bytes fix the program and the key fixes the graph and config,
    so the checks are not repeated and the program is decoded only when
    the caller forces it.  Changed bytes never match a record and are
    checked again.  Any failed entry is deleted and counted as a
    rejected miss, so the caller recompiles and the cache heals.
    Entries are published atomically (temp + rename), so crashed or
    concurrent writers cannot leave torn files.  Eviction is LRU by file
    mtime (hits touch their entry), enforced on {!store} when
    [max_bytes] is set.

    Handles are domain-safe and cheap to open; the serve daemon keeps
    one for its lifetime so the counters aggregate across requests. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  rejected : int;  (** corrupt / mismatched / verify-failed entries dropped *)
  recalled : int;  (** hits answered from the handle's verified record *)
  entries : int;   (** currently on disk *)
  bytes : int;     (** total size currently on disk *)
}

type summary = { graph_name : string; cores : int; instructions : int }
(** What the serve daemon's [compile] and [verify] answers report about
    a program: its graph name, core count and instruction count. *)

val summary : Isa.t -> summary

val digest_fields : (string * string) list -> string
(** Canonical digest of a (name, value) field list: fields are sorted
    and length-prefixed (the rendering is injective — no pair of field
    lists with different contents shares a byte string), then MD5'd to
    32 hex chars.  Field order never affects the digest.  This is
    deliberately a real content digest, not [Hashtbl.hash], whose
    truncated traversal collides distinct structures. *)

val hmac_md5 : key:string -> string -> string
(** [hmac_md5 ~key message] in hex: the RFC 2104 MAC that records a
    verified entry's bytes (there under the handle's secret). *)

val open_dir : ?max_bytes:int -> string -> t
(** Creates the directory if needed and draws the handle's MAC secret;
    the verified record starts empty.  [max_bytes] bounds the on-disk
    size via LRU eviction on store ([None] = unbounded). *)

val dir : t -> string

val lookup :
  t ->
  key:string ->
  graph:Nnir.Graph.t ->
  config:Pimhw.Config.t ->
  unit ->
  (summary * Isa.t Lazy.t * Digest.t) option
(** Verified lookup.  [key] must be {!Compile.cache_key} of [graph] and
    [config]: the record trusts the key to fix them.  [Some (s, p, m)]
    is a hit whose bytes this handle has seen pass the checksum, the key
    match and [Verify.run] against [graph]/[config]; [s] summarises
    [Lazy.force p], and [m] is this handle's MAC of the bytes, so two
    hits under one key with equal [m] served equal bytes.  On the
    handle's first load of those bytes, [p] is already decoded; on a
    recalled hit it is decoded in place on the first [Lazy.force],
    which must happen on one domain at a time.  [None] is a miss —
    including poisoned entries, which are deleted and counted in
    [rejected]. *)

val find :
  t ->
  key:string ->
  graph:Nnir.Graph.t ->
  config:Pimhw.Config.t ->
  unit ->
  Isa.t option
(** {!lookup}, with the program forced. *)

val store : t -> key:string -> Isa.t -> unit
(** Atomic publication, then LRU budget enforcement.  The newest entry
    always survives eviction. *)

val trim : t -> int
(** Enforce the [max_bytes] budget now (no-op when unbounded); returns
    how many entries were evicted by this call. *)

val stats : t -> stats

val stats_fields : stats -> (string * int) list
(** The seven counters as (name, value), in the order serve's [stats]
    answer and [BENCH_CACHE.json] list them: hits, recalled, misses,
    rejected, evictions, entries, bytes. *)

val pp_stats : stats Fmt.t
(** {!stats_fields} on one line: [hits 2  recalled 1  ...  bytes 1161]. *)

val clear : t -> int
(** Deletes every entry; returns how many were removed. *)

val list : t -> (string * string * int * float) list
(** [(key, graph_name, bytes, mtime)] for every entry, newest first.
    The graph name is read from the container header by
    {!Artifact.graph_name_of_file}, so no payload is decoded; an
    entry that fails the container check is named ["<corrupt>"]. *)
