(** GA encoding for weight replicating + core mapping (Section IV-C1).

    Gene = AG bundle of one node on one core, encoded as
    [node_index * 10000 + ag_count].  Chromosome = up to
    [max_node_num_in_core] genes for each of [core_count] cores. *)

type gene = { node_index : int; ag_count : int }

val encode : gene -> int
val decode : int -> gene

type t

exception Infeasible of string

val create_empty : Partition.table -> core_count:int -> max_node_num_in_core:int -> t

val random_initial :
  Rng.t ->
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  ?extra_replica_attempts:int ->
  unit ->
  t
(** One replica per node scattered at random (plus optional extra
    replicas).  Raises {!Infeasible} when the network cannot fit. *)

val compact_initial :
  Rng.t ->
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  ?extra_replica_attempts:int ->
  unit ->
  t
(** Nodes in random order, AGs packed sequentially from a random core —
    a compact (replica-whole) random individual. *)

val copy : t -> t

val unshare : t -> t
(** Like {!copy} but sharing no mutation scratch with the original:
    required before handing a chromosome to another domain (e.g. island
    migration).  {!copy} shares a scratch array that two domains must
    not shuffle concurrently. *)

val core_count : t -> int
val table : t -> Partition.table
val genes : t -> int -> gene list

val gene_ags : gene list -> int -> int
(** [gene_ags (genes t core) node_index] — AGs of the weighted node on
    that core, 0 when the core holds none.  Allocation-free. *)

val core_xbars : t -> int -> int
val free_xbars : t -> int -> int
val total_ags : t -> int -> int
val replication : t -> int -> int
(** Replication number of a weighted node (by dense weighted index). *)

val add_ags : t -> core:int -> node_index:int -> count:int -> unit

(** {1 Validation} *)

type violation =
  | Core_over_capacity of { core : int; used : int; capacity : int }
  | Too_many_nodes_in_core of { core : int; count : int; limit : int }
  | Missing_node of { node_index : int }
  | Partial_replica of { node_index : int; total_ags : int; per_replica : int }
  | Non_positive_gene of { core : int; node_index : int; ag_count : int }
  | Stale_cache of { node_index : int; cached : int; actual : int }
      (** The O(1) per-node AG-count cache disagrees with the gene
          lists; indicates a bookkeeping bug, not a bad mapping. *)

val violations : t -> violation list
val is_valid : t -> bool
val pp_violation : violation Fmt.t

(** {1 Mutations (paper operations I-IV)} *)

type mutation = Add_replica | Remove_replica | Spread_gene | Merge_gene

type touched = { t_nodes : int list; t_cores : int list }
(** What a mutation moved: weighted nodes whose replication or placement
    changed, and cores whose gene lists changed (either may contain
    duplicates).  Drives the incremental fitness evaluator. *)

val mutate_random_touched : Rng.t -> t -> touched option
(** A uniformly random mutation, reporting what it touched.  Consumes
    the same RNG stream as {!mutate_random}. *)

val mutate : Rng.t -> t -> mutation -> bool
(** Applies the mutation in place; [false] means it was inapplicable
    and the chromosome is unchanged. *)

val mutate_random : Rng.t -> t -> bool

val pp : t Fmt.t
