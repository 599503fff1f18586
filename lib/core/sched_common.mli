(** Helpers shared by the HT and LL dataflow schedulers. *)

val bpe : int
(** Bytes per element (16-bit fixed point). *)

val ensure_bulk_nursery : unit -> unit
(** Grow the minor heap (grow-only, sticky) to fit a whole stream's
    emission; called by the schedulers on entry.  See the comment in
    the implementation for the measured rationale. *)

val warm_pool : int option -> Pimutil.Domain_pool.Persistent.t
(** Long-lived workers ([None]: {!Pimutil.Domain_pool.default_domains})
    whose domains each run [ensure_bulk_nursery] once, so the schedulers
    they run start with the grown minor heap. *)

val fused_activations :
  Nnir.Graph.t -> (Nnir.Node.id, Nnir.Op.activation_kind) Hashtbl.t
  * (Nnir.Node.id, unit) Hashtbl.t
(** Activations whose producer is a weighted node are fused into the
    producer's accumulation epilogue (Algorithm 1, line 8): (kind by
    producer id, set of fused activation node ids). *)

val fresh_input_bytes_per_window : Nnir.Graph.t -> Partition.info -> int
(** New input bytes a sliding window consumes, accounting for overlap
    between consecutive windows. *)

val slice_bytes : total_bytes:int -> ags_on_core:int -> ags_per_replica:int -> int
(** Fraction of a replica's input held by a subset of its AGs. *)

val anchor_ancestors : Nnir.Graph.t -> Nnir.Node.id -> Nnir.Node.id list
(** Nearest weighted ancestors — where non-weighted work is co-located
    (Section IV-D2). *)

val pipeline_depth : Nnir.Graph.t -> int
(** Longest chain of weighted layers: the inter-layer pipeline depth. *)

val row_geometry : Nnir.Node.t -> int * int
(** (output rows, bytes per output row). *)

val stream_bases : num_nodes:int -> (int -> int) -> int array
(** Dense numbering of per-node streams: with [base = stream_bases
    ~num_nodes count], the [count id] items of node [id] occupy
    [base.(id), base.(id+1)), so a (node, sequence) pair becomes the
    flat index [base.(node) + seq].  Backbone of the flat-array
    scheduler state. *)

val input_edge_slots : Nnir.Graph.t -> int array array * int
(** Dense numbering of (consumer, provider) input edges: the slot of
    input position [k] of node [id] is [(fst r).(id).(k)]; duplicate
    providers within one node share a slot.  [(snd r)] is the total slot
    count. *)

val row_vec_elements : Nnir.Graph.t -> Nnir.Node.t -> int
(** Per-output-row VFU work of a non-weighted node. *)
