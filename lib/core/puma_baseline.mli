(** PUMA-like baseline replication and mapping (Section V-A2):
    rate-matching replication allocated front to back, plus sequential
    first-fit core mapping.  Produces a {!Chromosome.t} so the same
    scheduler and simulator run downstream. *)

val build :
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  Chromosome.t
(** PUMA replication within 85% of the crossbar budget + sequential
    mapping.  Raises
    {!Chromosome.Infeasible} when the network does not fit. *)
