(** The modified genetic algorithm of Section IV-C (no crossover,
    mutations I-IV, elitist truncation selection), as a single
    population ({!optimize}) or a domain-parallel island model
    ({!optimize_islands}). *)

type params = {
  population : int;
  iterations : int;
  elite : int;
  extra_replica_attempts : int;
  patience : int option;
}

val default_params : params
(** Paper setting: population 100, 200 iterations. *)

val fast_params : params
(** Reduced setting for tests and quick sweeps. *)

type island_params = {
  islands : int;  (** sub-populations; clamped so each holds >= 2 *)
  migration_interval : int;  (** generations between ring migrations *)
  migration_size : int;  (** individuals each island sends to the next *)
  domains : int option;
      (** worker domains for the fan-out; [None] = the host's
          recommended count.  Never affects the result, only the wall
          clock. *)
}

val default_island_params : island_params
(** 2 islands, migration every 20 generations, 8 migrants, host-default
    domains — tuned on the BENCH_GA.json network so the island model
    matches the single population at an equal evaluation budget. *)

val island_layout : population:int -> island_params -> int array
(** Sub-population sizes after clamping: one entry per island, summing
    to [population], sizes differing by at most one, each at least 2
    (the island count is reduced when [population / 2] is smaller).
    Exposed for the migration-bookkeeping tests. *)

type evaluation = Incremental | Full
(** [Incremental] (the default) caches per-node / per-core fitness terms
    and refreshes only what each mutation touched; [Full] re-runs
    {!Fitness.evaluate} for every child.  Both produce bit-identical
    fitness values and hence the same search trajectory for a given
    seed. *)

type result = {
  best : Chromosome.t;
  best_fitness : float;
  initial_best_fitness : float;
  generations_run : int;
  evaluations : int;  (** fitness evaluations performed *)
  failed_mutations : int;
      (** population slots left unchanged in some generation because
          every mutation attempt — including the bounded parent
          redraws — was inapplicable *)
  history : float list;
}

val optimize :
  ?params:params ->
  ?seeds:Chromosome.t list ->
  ?objective:Fitness.objective ->
  ?evaluation:evaluation ->
  ?progress:(generations:int -> best:float -> unit) ->
  mode:Mode.t ->
  timing:Pimhw.Timing.t ->
  rng:Rng.t ->
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  unit ->
  result
(** Single panmictic population on the calling domain: the one-pool
    case of {!optimize_islands}'s generation loop, driven by [rng]
    itself, one generation per batch, with nothing to migrate.
    [history] is the running best per generation (length
    [generations_run + 1]).  [patience = Some p] stops the search after
    [p] consecutive generations without improvement; it is checked after
    each generation, so [Some 0] runs exactly one.  [progress] is called
    after every generation (benchmark instrumentation; it cannot
    influence the search).  Raises [Invalid_argument] when
    [params.population < 2] or [params.iterations < 0]. *)

val optimize_islands :
  ?params:params ->
  ?island:island_params ->
  ?seeds:Chromosome.t list ->
  ?objective:Fitness.objective ->
  ?evaluation:evaluation ->
  ?progress:(generations:int -> best:float -> unit) ->
  mode:Mode.t ->
  timing:Pimhw.Timing.t ->
  rng:Rng.t ->
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  unit ->
  result
(** Island model: {!island_layout} sub-populations each run the elitist
    loop on their own {!Rng.split} stream, fanned out across OCaml 5
    domains; every [migration_interval] generations the top
    [migration_size] individuals of island [i] replace the worst of
    island [i+1] over a fixed ring (emigrants are snapshot before any
    replacement, so the order of islands cannot matter).  Caller seeds
    are distributed round-robin.

    Deterministic: the result is a pure function of the master [rng]
    seed and the island/migration parameters — bit-identical whatever
    [island.domains] is, because islands share only read-only state and
    results are merged in island order.  [history] is the running global
    best per generation (length [generations_run + 1]); [patience] is
    counted per generation but only stops at a migration-batch boundary,
    so [Some 0] runs one batch of [migration_interval] generations;
    [progress] fires once per batch.  Raises [Invalid_argument] on the
    same parameters as {!optimize}. *)

val random_search :
  ?params:params ->
  ?objective:Fitness.objective ->
  mode:Mode.t ->
  timing:Pimhw.Timing.t ->
  rng:Rng.t ->
  Partition.table ->
  core_count:int ->
  max_node_num_in_core:int ->
  unit ->
  result
(** Same evaluation budget, initialisation only — the mutation-ablation
    baseline.  [history] records the running best at every
    population-sized chunk of the budget, so ablation plots compare
    curves of matching shape.  Raises [Invalid_argument] when
    [params.iterations < 0]. *)
