(* The modified genetic algorithm of Section IV-C: random initialisation,
   no crossover (the paper judges it meaningless for this encoding),
   mutation operations I-IV, elitist truncation selection, fitness F_HT or
   F_LL.  The paper's evaluation uses population 100 and 200 iterations;
   those are the defaults.

   Children are evaluated incrementally by default: each individual
   carries a [Fitness.Inc.t] cache, a child copies its parent's cache and
   refreshes only the nodes/cores its one mutation touched.  [Full] re-runs
   [Fitness.evaluate] from scratch for every child — same fitness values
   bit-for-bit (the incremental evaluator shares its arithmetic with the
   full path), so the search trajectory is identical; it exists as the
   reference for tests and benchmarks.

   One generation loop ([evolve]) serves both searches.  [optimize] is
   its one-pool case: one panmictic population on the calling domain,
   driven by the master RNG one generation at a time.
   [optimize_islands] is the island model: the population is partitioned
   into sub-populations that each run the same elitist loop on their own
   RNG stream ([Rng.split] off the master), fanned out across OCaml 5
   domains via [Pimutil.Domain_pool]; every [migration_interval]
   generations the top [migration_size] individuals of each island
   replace the worst of the next island over a fixed ring.  The result
   is a pure function of (seed, islands, migration parameters) and
   bit-identical for any domain count: islands share only read-only
   state (the [Fitness.ctx], the partition table, timing), migration
   happens on the calling domain between fan-outs, and the domain pool
   preserves slot order — which domain ran which island can never
   matter. *)

type params = {
  population : int;
  iterations : int;
  elite : int;                   (* individuals copied unchanged *)
  extra_replica_attempts : int;  (* initial-population diversity *)
  patience : int option;         (* stop after this many stale iterations *)
}

let default_params =
  {
    population = 100;
    iterations = 200;
    elite = 10;
    extra_replica_attempts = 4;
    patience = None;
  }

(* A smaller setting for tests and quick exploration. *)
let fast_params =
  {
    population = 24;
    iterations = 60;
    elite = 4;
    extra_replica_attempts = 2;
    patience = Some 25;
  }

type island_params = {
  islands : int;                 (* sub-populations; clamped so each >= 2 *)
  migration_interval : int;      (* generations between migrations *)
  migration_size : int;          (* individuals sent along the ring *)
  domains : int option;          (* worker domains; None = host default *)
}

(* Tuned on the bench network (resnet18@56, BENCH_GA.json): the HT
   fitness landscape is strongly bimodal (runs either escape to ~5.5e3
   or stall in a ~1.97e4 local optimum), and small sub-populations stall
   far more often than a panmictic 100.  Two islands keep each
   sub-population at half the paper's population; the rarer but heavier
   migration re-mixes enough diversity to match the single population at
   an equal evaluation budget. *)
let default_island_params =
  { islands = 2; migration_interval = 20; migration_size = 8; domains = None }

(* Sub-population sizes: as equal as possible, every island at least 2
   individuals (the elitist loop needs a surviving parent besides the
   replaced tail), so the island count is clamped to population / 2. *)
let island_layout ~population (island : island_params) =
  if population < 2 then invalid_arg "Genetic.island_layout: population < 2";
  if island.islands < 1 then invalid_arg "Genetic.island_layout: islands < 1";
  let islands = max 1 (min island.islands (population / 2)) in
  let base = population / islands and extra = population mod islands in
  Array.init islands (fun i -> base + if i < extra then 1 else 0)

type evaluation = Incremental | Full

type individual = {
  chrom : Chromosome.t;
  fitness : float;
  inc : Fitness.Inc.t option;  (* None under Full evaluation *)
}

type result = {
  best : Chromosome.t;
  best_fitness : float;
  initial_best_fitness : float;
  generations_run : int;
  evaluations : int;
  failed_mutations : int;
  history : float list;  (* best fitness per generation, oldest first *)
}

let sort_population pop =
  Array.sort
    (fun (a : individual) (b : individual) ->
      Float.compare a.fitness b.fitness)
    pop

(* Stale-generation test with a relative tolerance: fitness values range
   from ~5e3 (HT) to ~2e4 (LL) and scale with the network, so an
   absolute epsilon makes [patience] trip on different rounding noise in
   different modes; improvement is judged relative to the previous
   best. *)
let improved ~previous current =
  current < previous -. (1e-9 *. Float.abs previous)

(* A child whose every [mutate_random_touched] attempt returns [None] is
   unchanged — evaluating it would waste its population slot for the
   generation — so the parent draw is retried a bounded number of times;
   slots still unchanged afterwards count into
   [result.failed_mutations]. *)
let max_parent_retries = 3

(* --- per-population machinery ---------------------------------------------- *)

type pool = {
  mutable p_pop : individual array;  (* sorted best-first between generations *)
  p_rng : Rng.t;
  p_elite : int;
  p_parent_pool : int;               (* truncation-selection prefix *)
  mutable p_evaluations : int;
  mutable p_failed : int;
  mutable p_history_rev : float list;  (* best per generation, newest first *)
}

(* Evaluation closures capture only read-only state (ctx, timing, mode),
   so one pair serves every island; the mutable counters live in the
   per-island [pool]. *)
let make_eval ?objective ~evaluation ~mode ~timing ctx =
  let eval pool chrom =
    pool.p_evaluations <- pool.p_evaluations + 1;
    match evaluation with
    | Full ->
        {
          chrom;
          fitness = Fitness.evaluate ?objective mode timing chrom;
          inc = None;
        }
    | Incremental ->
        let inc = Fitness.Inc.create ctx chrom in
        { chrom; fitness = Fitness.Inc.fitness inc; inc = Some inc }
  in
  (* Child evaluation: reuse the parent's caches and refresh only what
     the mutation touched.  Falls back to a full build when the parent
     carries no cache (Full evaluation, or a seed evaluated before). *)
  let eval_child pool parent child (touched : Chromosome.touched) =
    pool.p_evaluations <- pool.p_evaluations + 1;
    match evaluation with
    | Full ->
        {
          chrom = child;
          fitness = Fitness.evaluate ?objective mode timing child;
          inc = None;
        }
    | Incremental ->
        let inc =
          match parent.inc with
          | Some pinc ->
              let inc = Fitness.Inc.copy pinc child in
              Fitness.Inc.update inc touched;
              inc
          | None -> Fitness.Inc.create ctx child
        in
        { chrom = child; fitness = Fitness.Inc.fitness inc; inc = Some inc }
  in
  (eval, eval_child)

(* Half the initial population packs compactly, half scatters; any
   caller-provided seed individuals (e.g. the PUMA-like mapping) join
   it, so the GA result can only improve on them. *)
let init_pool ~params ~population ~elite ~eval ~seeds ~rng table ~core_count
    ~max_node_num_in_core =
  let fresh i =
    if i mod 2 = 0 then
      Chromosome.compact_initial rng table ~core_count ~max_node_num_in_core
        ~extra_replica_attempts:params.extra_replica_attempts ()
    else
      Chromosome.random_initial rng table ~core_count ~max_node_num_in_core
        ~extra_replica_attempts:params.extra_replica_attempts ()
  in
  let pool =
    {
      p_pop = [||];
      p_rng = rng;
      p_elite = elite;
      p_parent_pool = max 1 (population / 2);
      p_evaluations = 0;
      p_failed = 0;
      p_history_rev = [];
    }
  in
  let seeds = Array.of_list seeds in
  let pop =
    Array.init population (fun i ->
        if i < Array.length seeds then eval pool seeds.(i)
        else eval pool (fresh i))
  in
  sort_population pop;
  pool.p_pop <- pop;
  pool.p_history_rev <- [ pop.(0).fitness ];
  pool

(* One generation: children replace the non-elite tail, parents come
   from the elite half (truncation selection).  Each child is its parent
   plus one mutation, the unit the incremental evaluator refreshes. *)
let run_generation ~eval_child pool =
  let pop = pool.p_pop in
  for i = pool.p_elite to Array.length pop - 1 do
    let rec attempt retries =
      let parent = pop.(Rng.int pool.p_rng pool.p_parent_pool) in
      let child = Chromosome.copy parent.chrom in
      match Chromosome.mutate_random_touched pool.p_rng child with
      | Some touched -> pop.(i) <- eval_child pool parent child touched
      | None ->
          if retries < max_parent_retries then attempt (retries + 1)
          else pool.p_failed <- pool.p_failed + 1
    in
    attempt 0
  done;
  sort_population pop;
  pool.p_history_rev <- pop.(0).fitness :: pool.p_history_rev

(* --- the generation loop ---------------------------------------------------- *)

(* Both searches run this loop: one pool per entry of [sizes], each on
   its own RNG, fanned out across domains in batches of [batch]
   generations with a ring migration of [migration_k] individuals
   between batches.  [optimize] is the one-pool case: the master RNG,
   batches of one generation, nothing to migrate.

   Caller seeds go round-robin across the pools; [unshare] because each
   copy is owned by a different domain from here on.  A pool's elite is
   scaled from the global setting, so the total elite fraction matches
   the single-population run, and leaves at least one child slot. *)
let evolve ~params ~sizes ~rngs ~batch ~migration_k ?domains ~seeds
    ?objective ~evaluation ?progress ~mode ~timing table ~core_count
    ~max_node_num_in_core () =
  let islands = Array.length sizes in
  let ctx = Fitness.context ?objective mode timing table ~core_count in
  let eval, eval_child = make_eval ?objective ~evaluation ~mode ~timing ctx in
  let pool_seeds = Array.make islands [] in
  List.iteri
    (fun j c ->
      let i = j mod islands in
      pool_seeds.(i) <- Chromosome.unshare c :: pool_seeds.(i))
    (List.filter Chromosome.is_valid seeds);
  let elite_for sub = min (params.elite * sub / params.population) (sub - 1) in
  let pools =
    Pimutil.Domain_pool.map ?domains
      (fun i ->
        init_pool ~params ~population:sizes.(i) ~elite:(elite_for sizes.(i))
          ~eval
          ~seeds:(List.rev pool_seeds.(i))
          ~rng:rngs.(i) table ~core_count ~max_node_num_in_core)
      (Array.init islands (fun i -> i))
  in
  let initial_best_fitness =
    Array.fold_left
      (fun acc pool -> Float.min acc pool.p_pop.(0).fitness)
      infinity pools
  in
  (* Ring migration, on the calling domain between fan-outs: emigrants
     (each island's current top [migration_k]) are snapshot before any
     replacement, then island i's copies replace the worst of island
     i+1.  Replacing only the tail (migration_k <= min_sub - 1) keeps
     every island's best in place, so per-island histories stay
     monotone. *)
  let migrate () =
    if islands > 1 && migration_k > 0 then begin
      let emigrants =
        Array.map
          (fun pool ->
            Array.init migration_k (fun j ->
                let ind = pool.p_pop.(j) in
                let chrom = Chromosome.unshare ind.chrom in
                let inc =
                  Option.map (fun inc -> Fitness.Inc.unshare inc chrom) ind.inc
                in
                { chrom; fitness = ind.fitness; inc }))
          pools
      in
      Array.iteri
        (fun i pool ->
          let from = (i + islands - 1) mod islands in
          let n = Array.length pool.p_pop in
          for j = 0 to migration_k - 1 do
            pool.p_pop.(n - 1 - j) <- emigrants.(from).(j)
          done;
          sort_population pool.p_pop)
        pools
    end
  in
  (* The batch's per-generation global bests (min over islands), for the
     merged history and generation-granular patience accounting. *)
  let batch_bests g =
    let bests = Array.make g infinity in
    Array.iter
      (fun pool ->
        let rec fill l k =
          if k >= 0 then
            match l with
            | x :: rest ->
                if x < bests.(k) then bests.(k) <- x;
                fill rest (k - 1)
            | [] -> assert false
        in
        fill pool.p_history_rev (g - 1))
      pools;
    bests
  in
  let history_rev = ref [ initial_best_fitness ] in
  let current_best = ref initial_best_fitness in
  let stale = ref 0 in
  let generation = ref 0 in
  let stop = ref false in
  while (not !stop) && !generation < params.iterations do
    let g = min batch (params.iterations - !generation) in
    ignore
      (Pimutil.Domain_pool.map ?domains
         (fun pool ->
           for _ = 1 to g do
             run_generation ~eval_child pool
           done)
         pools);
    generation := !generation + g;
    Array.iter
      (fun gb ->
        if improved ~previous:!current_best gb then stale := 0 else incr stale;
        if gb < !current_best then current_best := gb;
        history_rev := !current_best :: !history_rev)
      (batch_bests g);
    (match progress with
    | Some f -> f ~generations:!generation ~best:!current_best
    | None -> ());
    (match params.patience with
    | Some p when !stale >= p -> stop := true
    | Some _ | None -> ());
    if (not !stop) && !generation < params.iterations then migrate ()
  done;
  let best_pool =
    Array.fold_left
      (fun acc pool ->
        if pool.p_pop.(0).fitness < acc.p_pop.(0).fitness then pool else acc)
      pools.(0) pools
  in
  {
    best = best_pool.p_pop.(0).chrom;
    best_fitness = best_pool.p_pop.(0).fitness;
    initial_best_fitness;
    generations_run = !generation;
    evaluations = Array.fold_left (fun a p -> a + p.p_evaluations) 0 pools;
    failed_mutations = Array.fold_left (fun a p -> a + p.p_failed) 0 pools;
    history = List.rev !history_rev;
  }

let check_params name params =
  if params.population < 2 then invalid_arg (name ^ ": population < 2");
  if params.iterations < 0 then invalid_arg (name ^ ": iterations < 0")

let optimize ?(params = default_params) ?(seeds = []) ?objective
    ?(evaluation = Incremental) ?progress ~mode ~timing ~rng table ~core_count
    ~max_node_num_in_core () =
  check_params "Genetic.optimize" params;
  evolve ~params ~sizes:[| params.population |] ~rngs:[| rng |] ~batch:1
    ~migration_k:0 ~seeds ?objective ~evaluation ?progress ~mode ~timing table
    ~core_count ~max_node_num_in_core ()

(* Per-island RNG streams are split in island order from the master: a
   pure function of the master seed and the island count, independent
   of how many domains run the islands. *)
let optimize_islands ?(params = default_params)
    ?(island = default_island_params) ?(seeds = []) ?objective
    ?(evaluation = Incremental) ?progress ~mode ~timing ~rng table ~core_count
    ~max_node_num_in_core () =
  check_params "Genetic.optimize_islands" params;
  if island.migration_interval < 1 then
    invalid_arg "Genetic.optimize_islands: migration_interval < 1";
  if island.migration_size < 0 then
    invalid_arg "Genetic.optimize_islands: migration_size < 0";
  let sizes = island_layout ~population:params.population island in
  let min_sub = Array.fold_left min max_int sizes in
  evolve ~params ~sizes
    ~rngs:(Array.init (Array.length sizes) (fun _ -> Rng.split rng))
    ~batch:island.migration_interval
    ~migration_k:(max 0 (min island.migration_size (min_sub - 1)))
    ?domains:island.domains ~seeds ?objective ~evaluation ?progress ~mode
    ~timing table ~core_count ~max_node_num_in_core ()

(* Random search with the same evaluation budget, used by the ablation
   benchmarks to show the mutations matter. *)
let random_search ?(params = default_params) ?objective ~mode ~timing ~rng
    table ~core_count ~max_node_num_in_core () =
  if params.iterations < 0 then
    invalid_arg "Genetic.random_search: iterations < 0";
  let budget = params.population * (params.iterations + 1) in
  let ctx = Fitness.context ?objective mode timing table ~core_count in
  let evaluations = ref 0 in
  let best = ref None in
  let history_rev = ref [] in
  for attempt = 1 to budget do
    (match
       Chromosome.random_initial rng table ~core_count ~max_node_num_in_core
         ~extra_replica_attempts:params.extra_replica_attempts ()
     with
    | chrom ->
        incr evaluations;
        let fitness = Fitness.Inc.fitness (Fitness.Inc.create ctx chrom) in
        (match !best with
        | Some (_, bf) when bf <= fitness -> ()
        | _ -> best := Some (chrom, fitness))
    | exception Chromosome.Infeasible _ -> ());
    (* Running best at every population-sized chunk of the budget, so
       the ablation plots compare a curve of the same shape as
       [optimize]'s per-generation history, not a single point. *)
    if attempt mod params.population = 0 then
      match !best with
      | Some (_, f) -> history_rev := f :: !history_rev
      | None -> ()
  done;
  match !best with
  | Some (chrom, fitness) ->
      let history = List.rev !history_rev in
      {
        best = chrom;
        best_fitness = fitness;
        initial_best_fitness =
          (match history with f :: _ -> f | [] -> fitness);
        generations_run = budget;
        evaluations = !evaluations;
        failed_mutations = 0;
        history;
      }
  | None -> raise (Chromosome.Infeasible "random search found no individual")
