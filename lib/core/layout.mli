(** Concrete mapping layout derived from a chromosome: per-node replica
    structure, AG-to-core assignment, and work splits (contiguous window
    shares for HT, round-robin rows for LL). *)

type replica = {
  node_index : int;
  node_id : Nnir.Node.id;
  replica_index : int;
  ag_ids : int array;
  ag_cores : int array;
  head_core : int;
  distinct_cores : int list;
  window_lo : int;
  window_hi : int;
}

type node_layout = {
  info : Partition.info;
  replication : int;
  replicas : replica array;
}

type t = {
  chromosome : Chromosome.t;
  table : Partition.table;
  graph : Nnir.Graph.t;
  core_count : int;
  num_ags : int;
  ag_core : int array;
  ag_xbars : int array;
  by_node_index : node_layout array;
}

val of_chromosome : Chromosome.t -> t
val node_layout : t -> int -> node_layout
val node_layout_by_id : t -> Nnir.Node.id -> node_layout option
val replication_by_id : t -> Nnir.Node.id -> int
val ags_by_core : replica -> (int * int list) list
