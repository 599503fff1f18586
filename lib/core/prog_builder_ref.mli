(** Reference (pre-arena) builder used only by {!Schedule_ll_ref} /
    {!Schedule_ht_ref}, oracles for the tests.  Mutable program-under-construction shared by the two schedulers:
    per-core instruction buffers, rendezvous tags, the local-memory
    allocator and global-traffic accounting.  Allocator spills
    materialise as STORE/LOAD round trips. *)

type t

val create :
  core_count:int -> strategy:Memalloc.strategy -> capacity:int option -> t

val emit : t -> core:int -> ?deps:int list -> ?node:Nnir.Node.id -> Isa.op -> int
(** Appends an instruction and returns its index within the core.
    Raises [Invalid_argument] if a dependency index is out of range. *)

val alloc_buffer :
  t -> core:int -> bytes:int -> ?node:Nnir.Node.id -> Memalloc.request -> int list
(** Requests a local buffer; returns the indices of any spill
    instructions emitted, to be added to dependent work. *)

val free_buffer : t -> core:int -> bytes:int -> unit
val free_accumulator : t -> core:int -> key:int -> unit

val send_recv :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  ?node:Nnir.Node.id ->
  src_deps:int list ->
  dst_deps:int list ->
  unit ->
  int
(** Emits a matched SEND/RECV pair and returns the RECV's index on
    [dst].  Raises [Invalid_argument] when [src = dst]. *)

val finish :
  t ->
  graph_name:string ->
  mode:Mode.t ->
  strategy:Memalloc.strategy ->
  ag_core:int array ->
  ag_xbars:int array ->
  pipeline_depth:int ->
  Isa.t
