(** End-to-end compilation driver (Fig. 3): node partitioning -> weight
    replicating + core mapping -> dataflow scheduling, with per-stage
    wall-time accounting (Table II). *)

type mapping_strategy =
  | Genetic_algorithm of Genetic.params
  | Puma_like
  | Random_search of Genetic.params

val mapping_strategy_name : mapping_strategy -> string

type options = {
  mode : Mode.t;
  parallelism : int;
  core_count : int option;
  max_node_num_in_core : int;
  allocator : Memalloc.strategy;
  spill_budget : int option;
      (** Cap, in bytes, on deliberate spill traffic the lifetime
          allocator may plan per program; [None] = unlimited.  Ignored
          by the legacy disciplines, which never plan spills. *)
  mvms_per_transfer : int;
  seed : int;
  strategy : mapping_strategy;
  objective : Fitness.objective;
  ga_islands : Genetic.island_params option;
      (** [Some] runs the GA as a domain-parallel island model
          ({!Genetic.optimize_islands}); the mapping depends only on
          (seed, islands, migration), never on the domain count. *)
  verify : bool;
      (** Run {!Verify.run} on the compiled program and raise on any
          violation.  On by default; the pass is a small fraction of a
          compile. *)
}

val default_options : options
(** HT mode, parallelism 20, AG-reuse, GA with the paper's parameters,
    single-population GA, verification on. *)

type stage_seconds = {
  partitioning : float;
  replicating_mapping : float;
  scheduling : float;
  verification : float;  (** 0 when [options.verify] is false *)
  total : float;  (** sum of the per-stage wall-clock times *)
  total_cpu : float;  (** CPU seconds over the whole compilation *)
}

type t = {
  graph : Nnir.Graph.t;
  config : Pimhw.Config.t;
  options : options;
  core_count : int;
  table : Partition.table;
  chromosome : Chromosome.t;
  layout : Layout.t;
  program : Isa.t;
  fitness : float;
  ga : Genetic.result option;
  stage_seconds : stage_seconds;
}

exception Self_check_failed of string
(** The compiler's own mapping violates the chromosome constraints, or
    its program fails {!Verify.run}: a compiler bug, not bad input and
    not an infeasible design.  Both raise sites are reachable only
    through such a bug, so no test reaches them; test_verify checks the
    {!Verify.run} reports the second one reads. *)

val compile : ?options:options -> Pimhw.Config.t -> Nnir.Graph.t -> t
(** Raises {!Self_check_failed} when its own mapping or program fails a
    check, {!Chromosome.Infeasible} when the network cannot fit the
    machine, {!Memalloc.Doesnt_fit} when one buffer exceeds a core's
    scratchpad, and [Invalid_argument] on bad options or hardware. *)

val cache_key : ?options:options -> Pimhw.Config.t -> Nnir.Graph.t -> string
(** Canonical content digest (32 hex chars) of everything that
    determines the compiled program: the MD5 of the graph's canonical
    [.nnt] text plus every semantically relevant option and hardware
    field, rendered canonically and hashed by {!Cache.digest_fields}.
    Fields that cannot change the program are excluded:
    [options.verify] and the island GA's [domains] (island results are
    domain-count-invariant).  Equal keys mean bit-identical programs;
    any change to a hashed field changes the key. *)

(** Where a served program came from. *)
type origin =
  | Cache_off of t  (** compiled, with no cache: the full record *)
  | Cache_miss of { key : string; result : t }
      (** compiled under the cache key [key] and stored: the full
          record *)
  | Cache_hit of { key : string; mac : Digest.t }
      (** read from the entry under [key]; only the program is stored,
          so there is no compile record.  [mac] is the cache handle's
          MAC of the served bytes ({!Cache.lookup}): under one [key],
          equal MACs mean equal bytes, so a result derived from the
          program alone can be recorded by [(key, mac)]. *)

val outcome_name : origin -> string
(** ["off"], ["miss"], ["hit"]. *)

type served = {
  summary : Cache.summary;  (** graph name, cores and instructions *)
  program : Isa.t Lazy.t;
      (** Already evaluated on a miss, with the cache off, and on a
          handle's first load of an entry.  A recalled hit
          ({!Cache.lookup}) decodes it on the first [Lazy.force], so
          a caller that needs only [summary] never pays the decode. *)
  origin : origin;
  seconds : float;
      (** wall-clock for the whole request, less a recalled hit's
          deferred decode *)
}

val compile_program :
  ?options:options -> ?cache:Cache.t -> Pimhw.Config.t -> Nnir.Graph.t ->
  served
(** Cache-aware front door used by the CLI and the serve daemon.  With a
    cache, looks the program up by {!cache_key} — a hit's bytes have
    passed, in this cache handle, the container checksum and a
    {!Verify.run} (see {!Cache.lookup}), making it indistinguishable
    from a fresh compile — and stores the program after a miss.
    Without one, equivalent to {!compile}. *)

exception Job_error of { index : int; graph : string; exn : exn }
(** A job in a fan-out of compiles (the synthesis evaluator's) failed
    with an exception that is a bug, not infeasibility: [index] is its
    position in the work list, [graph] the network's name, [exn] the
    original exception.  The registered printer names all three. *)
