(** Mutable program-under-construction shared by the two schedulers:
    per-core instruction buffers, rendezvous tags, the local-memory
    allocator and global-traffic accounting.  Allocator spills
    materialise as STORE/LOAD round trips. *)

type t

val create :
  core_count:int ->
  strategy:Memalloc.strategy ->
  capacity:int option ->
  ?plan:Lifetime.plan ->
  unit ->
  t
(** With [plan] installed (a lifetime scheduler's second emission pass),
    allocation events are matched to the plan by trace ordinal: spilled
    buffers bypass the allocator and emit the planned STORE/LOAD round
    trips instead. *)

(** Instruction emitters for the schedulers' hot loops.  Each appends
    an instruction and returns its index within the core, and raises
    [Invalid_argument] if a dependency index is out of range.  All
    arguments are required labels — without flambda, an optional
    argument boxes a [Some] at every call site.  The [deps] list is
    retained as given (it is never mutated), so passing a shared list
    is fine. *)

val emit_mvm :
  t ->
  core:int ->
  deps:int list ->
  node:Nnir.Node.id ->
  ag:int ->
  windows:int ->
  xbars:int ->
  input_bytes:int ->
  output_bytes:int ->
  int

val emit_vec :
  t ->
  core:int ->
  deps:int list ->
  node:Nnir.Node.id ->
  kind:Isa.vec_kind ->
  elements:int ->
  int

val emit_load :
  t -> core:int -> deps:int list -> node:Nnir.Node.id -> bytes:int -> int

val emit_store :
  t -> core:int -> deps:int list -> node:Nnir.Node.id -> bytes:int -> int

(** Local-buffer requests, mirroring {!Memalloc}'s.  Each returns the
    indices of any spill instructions emitted, to be added to dependent
    work. *)

val alloc_fresh :
  t -> core:int -> bytes:int -> node:Nnir.Node.id -> int list

val alloc_accumulator :
  t -> core:int -> bytes:int -> node:Nnir.Node.id -> key:int -> int list

val alloc_ag_slot :
  t -> core:int -> bytes:int -> node:Nnir.Node.id -> key:int -> int list

val free_buffer : t -> core:int -> bytes:int -> unit
val free_accumulator : t -> core:int -> key:int -> unit

val free_ag_slot : t -> core:int -> key:int -> unit
(** Staging-slot death.  Only lifetime-strategy schedulers emit this:
    the Fig. 7 disciplines never release slots, and the event would
    break bit-identity with the reference pipelines. *)

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
