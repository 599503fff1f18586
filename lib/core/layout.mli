(** Concrete mapping layout derived from a chromosome: per-node replica
    structure, AG-to-core assignment, and work splits (contiguous window
    shares for HT, round-robin rows for LL).  The one owner of AG
    placement: the chromosome holds only per-core AG counts. *)

type replica = {
  ag_ids : int array;  (** global AG ids, by AG index in the replica *)
  ag_cores : int array;  (** core of each AG *)
  head_core : int;  (** core of the first AG; partial sums meet here *)
  groups : (int * int list) list;
      (** the replica's AGs by hosting core: (core, AG ids in replica
          order), ascending core *)
  window_lo : int;
  window_hi : int;
}

type node_layout = {
  info : Partition.info;
  replication : int;
  replicas : replica array;
}

type t = {
  table : Partition.table;
  graph : Nnir.Graph.t;
  core_count : int;
  num_ags : int;
  ag_core : int array;
  ag_xbars : int array;
  by_node_index : node_layout array;
}

val of_chromosome : Chromosome.t -> t
(** Places every AG the genes count.  Each node's holders are visited by
    descending AG count, then ascending core; slot [s] of the visit is
    AG [s mod ags_per_replica] of replica [s / ags_per_replica].  Global
    AG ids are dense, in weighted-node then slot order.  The chromosome
    must be valid ({!Chromosome.is_valid}). *)

val node_layout : t -> int -> node_layout
val node_layout_by_id : t -> Nnir.Node.id -> node_layout option
val replication_by_id : t -> Nnir.Node.id -> int
