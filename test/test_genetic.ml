(* Tests for the genetic algorithm (Section IV-C): determinism,
   monotone improvement over the initial population, seed handling and
   the random-search ablation baseline. *)

let hw = Pimhw.Config.puma_like

let setup name size =
  let g = Nnir.Zoo.build ~input_size:size name in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  (table, core_count)

let params =
  { Pimcomp.Genetic.fast_params with population = 16; iterations = 25 }

let optimize ?seeds ~seed ~mode table core_count =
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let rng = Pimcomp.Rng.create ~seed in
  Pimcomp.Genetic.optimize ~params ?seeds ~mode ~timing ~rng table ~core_count
    ~max_node_num_in_core:16 ()

let test_deterministic () =
  let table, cores = setup "tiny" 16 in
  let r1 = optimize ~seed:7 ~mode:Pimcomp.Mode.High_throughput table cores in
  let r2 = optimize ~seed:7 ~mode:Pimcomp.Mode.High_throughput table cores in
  Alcotest.(check bool) "same fitness for same seed" true
    (r1.Pimcomp.Genetic.best_fitness = r2.Pimcomp.Genetic.best_fitness);
  Alcotest.(check bool) "same history for same seed" true
    (r1.Pimcomp.Genetic.history = r2.Pimcomp.Genetic.history)

let test_incremental_equals_full () =
  (* Incremental and Full evaluation share their arithmetic, so for a
     fixed seed the whole search trajectory — not just the final best —
     must be bit-identical. *)
  let table, cores = setup "squeezenet" 56 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let run evaluation mode =
    Pimcomp.Genetic.optimize ~params ~evaluation ~mode ~timing
      ~rng:(Pimcomp.Rng.create ~seed:31)
      table ~core_count:cores ~max_node_num_in_core:16 ()
  in
  List.iter
    (fun mode ->
      let inc = run Pimcomp.Genetic.Incremental mode in
      let full = run Pimcomp.Genetic.Full mode in
      Alcotest.(check bool) "identical best fitness" true
        (inc.Pimcomp.Genetic.best_fitness = full.Pimcomp.Genetic.best_fitness);
      Alcotest.(check bool) "identical history" true
        (inc.Pimcomp.Genetic.history = full.Pimcomp.Genetic.history);
      Alcotest.(check int) "identical evaluation count"
        full.Pimcomp.Genetic.evaluations inc.Pimcomp.Genetic.evaluations)
    Pimcomp.Mode.all

let test_improves_over_initial () =
  let table, cores = setup "tiny" 16 in
  List.iter
    (fun mode ->
      let r = optimize ~seed:11 ~mode table cores in
      Alcotest.(check bool) "best <= initial" true
        (r.Pimcomp.Genetic.best_fitness
        <= r.Pimcomp.Genetic.initial_best_fitness +. 1e-9);
      Alcotest.(check bool) "best is valid" true
        (Pimcomp.Chromosome.is_valid r.Pimcomp.Genetic.best))
    Pimcomp.Mode.all

let test_history_monotone () =
  let table, cores = setup "tiny" 16 in
  let r = optimize ~seed:13 ~mode:Pimcomp.Mode.High_throughput table cores in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "history non-increasing" true (b <= a +. 1e-9);
        check rest
    | _ -> ()
  in
  check r.Pimcomp.Genetic.history;
  Alcotest.(check int) "history length"
    (r.Pimcomp.Genetic.generations_run + 1)
    (List.length r.Pimcomp.Genetic.history)

let test_seed_never_worse () =
  (* seeding with the PUMA-like individual means the result can only be
     at least as good as that seed *)
  let table, cores = setup "squeezenet" 56 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let puma =
    Pimcomp.Puma_baseline.build table ~core_count:cores
      ~max_node_num_in_core:16
  in
  let puma_fitness = Pimcomp.Fitness.ht timing puma in
  let r =
    optimize ~seeds:[ puma ] ~seed:17 ~mode:Pimcomp.Mode.High_throughput table
      cores
  in
  Alcotest.(check bool) "GA <= PUMA seed" true
    (r.Pimcomp.Genetic.best_fitness <= puma_fitness +. 1e-9)

let test_invalid_seed_filtered () =
  let table, cores = setup "tiny" 16 in
  (* an empty chromosome violates the every-node-mapped invariant and
     must be dropped rather than crash the GA *)
  let bogus =
    Pimcomp.Chromosome.create_empty table ~core_count:cores
      ~max_node_num_in_core:16
  in
  let r =
    optimize ~seeds:[ bogus ] ~seed:19 ~mode:Pimcomp.Mode.High_throughput table
      cores
  in
  Alcotest.(check bool) "result valid" true
    (Pimcomp.Chromosome.is_valid r.Pimcomp.Genetic.best)

let test_patience_stops_early () =
  let table, cores = setup "tiny" 16 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let rng = Pimcomp.Rng.create ~seed:23 in
  let r =
    Pimcomp.Genetic.optimize
      ~params:{ params with iterations = 10_000; patience = Some 5 }
      ~mode:Pimcomp.Mode.High_throughput ~timing ~rng table ~core_count:cores
      ~max_node_num_in_core:16 ()
  in
  Alcotest.(check bool) "stopped well before the cap" true
    (r.Pimcomp.Genetic.generations_run < 2_000)

let test_ga_beats_random_search () =
  (* with the same evaluation budget the mutation-driven GA should be at
     least as good as pure random initialisation *)
  let table, cores = setup "tiny" 16 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let ga =
    Pimcomp.Genetic.optimize ~params ~mode:Pimcomp.Mode.High_throughput
      ~timing
      ~rng:(Pimcomp.Rng.create ~seed:29)
      table ~core_count:cores ~max_node_num_in_core:16 ()
  in
  let rs =
    Pimcomp.Genetic.random_search ~params ~mode:Pimcomp.Mode.High_throughput
      ~timing
      ~rng:(Pimcomp.Rng.create ~seed:29)
      table ~core_count:cores ~max_node_num_in_core:16 ()
  in
  Alcotest.(check bool) "GA <= random search * 1.05" true
    (ga.Pimcomp.Genetic.best_fitness
    <= rs.Pimcomp.Genetic.best_fitness *. 1.05)

let test_random_search_history_curve () =
  (* the ablation baseline must return a curve (running best per
     population-sized chunk of the budget), not a single point *)
  let table, cores = setup "tiny" 16 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let r =
    Pimcomp.Genetic.random_search ~params ~mode:Pimcomp.Mode.High_throughput
      ~timing
      ~rng:(Pimcomp.Rng.create ~seed:37)
      table ~core_count:cores ~max_node_num_in_core:16 ()
  in
  Alcotest.(check int) "one history point per chunk"
    (params.Pimcomp.Genetic.iterations + 1)
    (List.length r.Pimcomp.Genetic.history);
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "running best non-increasing" true (b <= a);
        check rest
    | _ -> ()
  in
  check r.Pimcomp.Genetic.history;
  Alcotest.(check bool) "last point is the best" true
    (List.nth r.Pimcomp.Genetic.history
       (List.length r.Pimcomp.Genetic.history - 1)
    = r.Pimcomp.Genetic.best_fitness);
  Alcotest.(check bool) "first point is the initial best" true
    (List.hd r.Pimcomp.Genetic.history
    = r.Pimcomp.Genetic.initial_best_fitness)

(* --- Rng.split ------------------------------------------------------------- *)

let test_split_deterministic () =
  let a = Pimcomp.Rng.create ~seed:99 in
  let b = Pimcomp.Rng.create ~seed:99 in
  let ca = Pimcomp.Rng.split a and cb = Pimcomp.Rng.split b in
  for i = 0 to 63 do
    Alcotest.(check int)
      (Fmt.str "child draw %d" i)
      (Pimcomp.Rng.bits ca) (Pimcomp.Rng.bits cb);
    Alcotest.(check int)
      (Fmt.str "parent continuation draw %d" i)
      (Pimcomp.Rng.bits a) (Pimcomp.Rng.bits b)
  done

let pearson xs ys =
  let n = float_of_int (Array.length xs) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. n in
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  !sxy /. sqrt (!sxx *. !syy)

let test_split_independent () =
  (* child streams must not correlate with the parent's draws (before or
     after the split) nor with each other *)
  let n = 4096 in
  let draws rng = Array.init n (fun _ -> Pimcomp.Rng.float rng 1.0) in
  List.iter
    (fun seed ->
      let parent = Pimcomp.Rng.create ~seed in
      let pre = draws parent in
      let child1 = Pimcomp.Rng.split parent in
      let child2 = Pimcomp.Rng.split parent in
      let post = draws parent in
      let c1 = draws child1 and c2 = draws child2 in
      let check label a b =
        let r = pearson a b in
        if Float.abs r > 0.05 then
          Alcotest.failf "seed %d: |corr %s| = %.4f > 0.05" seed label r
      in
      check "child1 vs parent-pre" c1 pre;
      check "child1 vs parent-post" c1 post;
      check "child2 vs parent-post" c2 post;
      check "child1 vs child2" c1 c2)
    [ 1; 42; 12345 ]

(* --- island model ----------------------------------------------------------- *)

let island_optimize ?(island = Pimcomp.Genetic.default_island_params)
    ?(params = params) ~seed ~mode table core_count =
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let rng = Pimcomp.Rng.create ~seed in
  Pimcomp.Genetic.optimize_islands ~params ~island ~mode ~timing ~rng table
    ~core_count ~max_node_num_in_core:16 ()

(* Satellite smoke for `dune runtest`: the parallel path (2 islands on
   however many domains the host recommends) runs on every tier-1
   invocation, not just in bench. *)
let test_island_smoke () =
  let table, cores = setup "tiny" 16 in
  let island =
    {
      Pimcomp.Genetic.islands = 2;
      migration_interval = 5;
      migration_size = 1;
      domains = None;
    }
  in
  List.iter
    (fun mode ->
      let r =
        island_optimize ~island ~params:Pimcomp.Genetic.fast_params ~seed:3
          ~mode table cores
      in
      Alcotest.(check bool) "best is valid" true
        (Pimcomp.Chromosome.is_valid r.Pimcomp.Genetic.best);
      Alcotest.(check bool) "best <= initial" true
        (r.Pimcomp.Genetic.best_fitness
        <= r.Pimcomp.Genetic.initial_best_fitness);
      Alcotest.(check int) "history length"
        (r.Pimcomp.Genetic.generations_run + 1)
        (List.length r.Pimcomp.Genetic.history);
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "global best non-increasing" true (b <= a);
            monotone rest
        | _ -> ()
      in
      monotone r.Pimcomp.Genetic.history;
      Alcotest.(check bool) "failed mutations non-negative" true
        (r.Pimcomp.Genetic.failed_mutations >= 0))
    Pimcomp.Mode.all

(* Ring-migration bookkeeping: the sub-population layout at island
   counts 1 and 2, populations that don't divide evenly, and the clamp
   that keeps every island at >= 2 individuals. *)
let test_island_layout () =
  let layout ~population islands =
    Pimcomp.Genetic.island_layout ~population
      { Pimcomp.Genetic.default_island_params with islands }
  in
  Alcotest.(check (array int)) "one island" [| 24 |] (layout ~population:24 1);
  Alcotest.(check (array int)) "two islands, even" [| 12; 12 |]
    (layout ~population:24 2);
  Alcotest.(check (array int)) "two islands, odd" [| 4; 3 |]
    (layout ~population:7 2);
  Alcotest.(check (array int)) "uneven split" [| 3; 2; 2 |]
    (layout ~population:7 3);
  Alcotest.(check (array int)) "clamped to population/2" [| 3; 2 |]
    (layout ~population:5 8);
  Alcotest.(check (array int)) "paper default" [| 25; 25; 25; 25 |]
    (layout ~population:100 4);
  (* every layout sums to the population with sizes within one of each
     other and >= 2 *)
  List.iter
    (fun (population, islands) ->
      let l = layout ~population islands in
      Alcotest.(check int)
        (Fmt.str "pop %d x %d islands sums" population islands)
        population
        (Array.fold_left ( + ) 0 l);
      let mx = Array.fold_left max 0 l and mn = Array.fold_left min max_int l in
      Alcotest.(check bool) "sizes within one" true (mx - mn <= 1);
      Alcotest.(check bool) "each island >= 2" true (mn >= 2))
    [ (2, 1); (5, 2); (7, 3); (11, 4); (100, 7); (9, 100) ]

(* An island run with migrations must not lose to the same islands
   without migration ever exchanging anything worse than the local
   worst: population sizes are preserved and the result is valid. *)
let test_island_uneven_population () =
  let table, cores = setup "tiny" 16 in
  let island =
    {
      Pimcomp.Genetic.islands = 3;
      migration_interval = 3;
      migration_size = 2;  (* clamped to min sub-population - 1 *)
      domains = Some 2;
    }
  in
  let params = { params with Pimcomp.Genetic.population = 7; iterations = 12 } in
  let r =
    island_optimize ~island ~params ~seed:5 ~mode:Pimcomp.Mode.High_throughput
      table cores
  in
  Alcotest.(check bool) "valid best" true
    (Pimcomp.Chromosome.is_valid r.Pimcomp.Genetic.best);
  Alcotest.(check int) "all generations run" 12
    r.Pimcomp.Genetic.generations_run

(* The tentpole determinism claim, as a qcheck property: for any seed,
   the island GA returns a bit-identical best fitness and history
   whether the islands run on 1 domain or fanned out — in both modes.
   [default_domains] is included so the host's real recommendation is
   exercised, plus a forced 4 so multi-domain runs happen even on
   single-core CI hosts. *)
let island_domain_independence =
  QCheck.Test.make ~name:"island GA independent of domain count" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let table, cores = setup "tiny" 16 in
      let params =
        { Pimcomp.Genetic.fast_params with population = 12; iterations = 10 }
      in
      let run mode domains =
        let island =
          {
            Pimcomp.Genetic.islands = 3;
            migration_interval = 4;
            migration_size = 1;
            domains = Some domains;
          }
        in
        island_optimize ~island ~params ~seed ~mode table cores
      in
      List.for_all
        (fun mode ->
          let base = run mode 1 in
          List.for_all
            (fun domains ->
              let r = run mode domains in
              r.Pimcomp.Genetic.best_fitness
              = base.Pimcomp.Genetic.best_fitness
              && r.Pimcomp.Genetic.history = base.Pimcomp.Genetic.history
              && r.Pimcomp.Genetic.evaluations
                 = base.Pimcomp.Genetic.evaluations)
            [ Pimutil.Domain_pool.default_domains (); 4 ])
        Pimcomp.Mode.all)

(* At an equal evaluation budget the island model should not lose badly
   to the single population (it usually wins; allow slack for the
   different RNG streams on this tiny problem). *)
let test_island_competitive () =
  let table, cores = setup "tiny" 16 in
  let single = optimize ~seed:41 ~mode:Pimcomp.Mode.High_throughput table cores in
  let island =
    island_optimize
      ~island:
        {
          Pimcomp.Genetic.islands = 2;
          migration_interval = 5;
          migration_size = 2;
          domains = None;
        }
      ~seed:41 ~mode:Pimcomp.Mode.High_throughput table cores
  in
  Alcotest.(check bool) "island <= single * 1.1" true
    (island.Pimcomp.Genetic.best_fitness
    <= single.Pimcomp.Genetic.best_fitness *. 1.1)

(* A negative generation count is a caller error, not an empty search:
   [optimize], [optimize_islands] and [random_search] reject it up
   front, as the first two reject a population below 2. *)
let test_negative_iterations_rejected () =
  let table, cores = setup "tiny" 16 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let params = { params with Pimcomp.Genetic.iterations = -1 } in
  let mode = Pimcomp.Mode.High_throughput in
  let rng () = Pimcomp.Rng.create ~seed:43 in
  Alcotest.check_raises "optimize"
    (Invalid_argument "Genetic.optimize: iterations < 0") (fun () ->
      ignore
        (Pimcomp.Genetic.optimize ~params ~mode ~timing ~rng:(rng ()) table
           ~core_count:cores ~max_node_num_in_core:16 ()));
  Alcotest.check_raises "optimize_islands"
    (Invalid_argument "Genetic.optimize_islands: iterations < 0") (fun () ->
      ignore
        (Pimcomp.Genetic.optimize_islands ~params ~mode ~timing ~rng:(rng ())
           table ~core_count:cores ~max_node_num_in_core:16 ()));
  Alcotest.check_raises "random_search"
    (Invalid_argument "Genetic.random_search: iterations < 0") (fun () ->
      ignore
        (Pimcomp.Genetic.random_search ~params ~mode ~timing ~rng:(rng ())
           table ~core_count:cores ~max_node_num_in_core:16 ()))

(* [progress] is what [bench -- ga] draws its best-vs-time curves from:
   it fires after every generation of [optimize] and after every
   migration batch of [optimize_islands] (the last batch may be short),
   and each [best] is the history entry of the generation it reports. *)
let test_progress () =
  let table, cores = setup "tiny" 16 in
  let timing = Pimhw.Timing.create ~parallelism:8 hw in
  let reported = ref [] in
  let progress ~generations ~best =
    reported := (generations, best) :: !reported
  in
  let check_calls label ~batch (r : Pimcomp.Genetic.result) =
    let calls = List.rev !reported in
    reported := [];
    let n = r.Pimcomp.Genetic.generations_run in
    Alcotest.(check (list int))
      (label ^ ": generations reported")
      (List.init ((n + batch - 1) / batch) (fun k -> min n ((k + 1) * batch)))
      (List.map fst calls);
    List.iter
      (fun (g, best) ->
        Alcotest.(check string)
          (Fmt.str "%s: best at generation %d" label g)
          (Printf.sprintf "%h" (List.nth r.Pimcomp.Genetic.history g))
          (Printf.sprintf "%h" best))
      calls
  in
  let params = { params with Pimcomp.Genetic.iterations = 23 } in
  List.iter
    (fun mode ->
      let rng () = Pimcomp.Rng.create ~seed:29 in
      check_calls "optimize" ~batch:1
        (Pimcomp.Genetic.optimize ~params ~progress ~mode ~timing ~rng:(rng ())
           table ~core_count:cores ~max_node_num_in_core:16 ());
      let island =
        { Pimcomp.Genetic.default_island_params with migration_interval = 5 }
      in
      check_calls "optimize_islands" ~batch:5
        (Pimcomp.Genetic.optimize_islands ~params ~island ~progress ~mode
           ~timing ~rng:(rng ()) table ~core_count:cores
           ~max_node_num_in_core:16 ()))
    Pimcomp.Mode.all

(* --- Rng.int stream ----------------------------------------------------------- *)

(* Reference [Rng.int] without the fast-accept path: every draw is
   checked against the exact rejection cutoff.  The GA's trajectories
   are pure functions of the accepted draws, so [Rng.int] must accept
   exactly these, and consume the same number of raw draws. *)
let reference_int rng bound =
  let rem = ((max_int mod bound) + 1) mod bound in
  let cutoff = max_int - rem in
  let rec draw () =
    let r = Pimcomp.Rng.bits rng in
    if r > cutoff then draw () else r mod bound
  in
  draw ()

let bound_gen =
  QCheck.Gen.(
    oneof
      [
        return 1;
        int_range 2 1000;
        map (fun k -> 1 lsl k) (int_range 0 61);
        (* just above 2^61, where nearly half of all draws are rejected *)
        map (fun d -> (1 lsl 61) + d) (int_range 1 1_000_000);
        map (fun d -> max_int - d) (int_range 0 1_000_000);
      ])

let rng_int_matches_reference =
  QCheck.Test.make ~name:"Rng.int accepts the reference stream" ~count:300
    QCheck.(
      pair int
        (list_of_size (Gen.int_range 1 40)
           (make ~print:string_of_int bound_gen)))
    (fun (seed, bounds) ->
      let rng = Pimcomp.Rng.create ~seed in
      let reference = Pimcomp.Rng.create ~seed in
      List.for_all
        (fun bound ->
          let same = ref true in
          for _ = 1 to 16 do
            if Pimcomp.Rng.int rng bound <> reference_int reference bound then
              same := false
          done;
          !same)
        bounds
      && Pimcomp.Rng.bits rng = Pimcomp.Rng.bits reference)

(* --- pinned trajectories ------------------------------------------------------ *)

(* "incremental equals full" compares two paths that share the fitness
   refresh arithmetic, so it cannot catch a change common to both.
   These runs pin whole GA trajectories to recorded values instead:
   - [bench -- ga]'s setup (resnet18 at a quarter of its input size,
     [fit_core_count] cores, parallelism 20, default params, seed 42) in
     both modes; BENCH_GA.json records the same best fitness and
     evaluation count;
   - googlenet in LL at [fast_params], whose concat nodes give the LL
     chain nodes with four inputs.
   Fitness values are compared as [%h] strings, so a change in the last
   bit fails. *)
type pinned = {
  best : float;
  evaluations : int;
  failed_mutations : int;
  history : string list;  (* best fitness per generation, as [%h] *)
}

let resnet18_ht =
  {
    best = 5474.081458333334;
    evaluations = 18085;
    failed_mutations = 15;
    history =
      [
        "0x1.3445e71c71c72p+15"; "0x1.343fc71c71c71p+15"; "0x1.9c0961c71c71cp+14";
        "0x1.9c0961c71c71cp+14"; "0x1.9c0131c71c71cp+14"; "0x1.9bf901c71c71dp+14";
        "0x1.9bf901c71c71dp+14"; "0x1.52b34e8f5c29p+14"; "0x1.40bf7cf0a3d71p+14";
        "0x1.40bf7cf0a3d71p+14"; "0x1.40bf7cf0a3d71p+14"; "0x1.3d5793c4d5e6fp+14";
        "0x1.3d43435c28f5dp+14"; "0x1.3453838e38e39p+14"; "0x1.3441d1c71c71dp+14";
        "0x1.3441d1c71c71dp+14"; "0x1.343fc71c71c71p+14"; "0x1.343fc71c71c71p+14";
        "0x1.343bb1c71c71cp+14"; "0x1.343bb1c71c71cp+14"; "0x1.34364p+14";
        "0x1.34364p+14"; "0x1.34364p+14"; "0x1.34364p+14";
        "0x1.34364p+14"; "0x1.34364p+14"; "0x1.34364p+14";
        "0x1.34364p+14"; "0x1.34364p+14"; "0x1.34364p+14";
        "0x1.34364p+14"; "0x1.08782827d27d2p+14"; "0x1.08782827d27d2p+14";
        "0x1.08782827d27d2p+14"; "0x1.08782827d27d2p+14"; "0x1.070d3afc962fcp+14";
        "0x1.070d3afc962fcp+14"; "0x1.e26aff1eb851ep+13"; "0x1.e265b051eb853p+13";
        "0x1.e1ccd2e147aep+13"; "0x1.e178a0b851eb8p+13"; "0x1.bbfc8cda740dbp+13";
        "0x1.bbfc8cda740dbp+13"; "0x1.b2fbe671c71c6p+13"; "0x1.b2fbe671c71c6p+13";
        "0x1.b18cbbbbbbbbcp+13"; "0x1.b18cbbbbbbbbcp+13"; "0x1.8422048888889p+13";
        "0x1.8422048888889p+13"; "0x1.8422048888889p+13"; "0x1.75e5e47ae147ap+13";
        "0x1.6b928b47ae147p+13"; "0x1.663af22222222p+13"; "0x1.65c93eeeeeeefp+13";
        "0x1.6264a2p+13"; "0x1.6264a2p+13"; "0x1.5f8c0e3333334p+13";
        "0x1.5f8c0e3333334p+13"; "0x1.4fa9d4fa4fa5p+13"; "0x1.4402f53e93e94p+13";
        "0x1.43ff622222222p+13"; "0x1.43ff622222222p+13"; "0x1.41c9755555555p+13";
        "0x1.3d1b73582d82ep+13"; "0x1.31abbe02468adp+13"; "0x1.27ac877777778p+13";
        "0x1.22cbe6f5c28f6p+13"; "0x1.1d332047ae148p+13"; "0x1.1d332047ae148p+13";
        "0x1.1d332047ae148p+13"; "0x1.1d332047ae148p+13"; "0x1.1d332047ae148p+13";
        "0x1.19556d654321p+13"; "0x1.11e94bf5c28f6p+13"; "0x1.0f773d5555556p+13";
        "0x1.0f4a69999999ap+13"; "0x1.0f4a69999999ap+13"; "0x1.0f4a69999999ap+13";
        "0x1.071fccp+13"; "0x1.0277551eb851ep+13"; "0x1.0277551eb851ep+13";
        "0x1.0277551eb851ep+13"; "0x1.0277551eb851ep+13"; "0x1.0262d7ae147aep+13";
        "0x1.fae7ef0a3d70ap+12"; "0x1.fae7ef0a3d70ap+12"; "0x1.f5cc211a2b3c4p+12";
        "0x1.f5a44b579be02p+12"; "0x1.f2fde66666667p+12"; "0x1.f2d64ccccccccp+12";
        "0x1.f2d64ccccccccp+12"; "0x1.f28ecccccccccp+12"; "0x1.f175c3e93e93ep+12";
        "0x1.f175c3e93e93ep+12"; "0x1.e68afb60b60b6p+12"; "0x1.e68afb60b60b6p+12";
        "0x1.e68afb60b60b6p+12"; "0x1.e68264e81b4e8p+12"; "0x1.e68264e81b4e8p+12";
        "0x1.e68264e81b4e8p+12"; "0x1.e57905b05b05bp+12"; "0x1.e57905b05b05bp+12";
        "0x1.db9d81d0369d1p+12"; "0x1.db9d81d0369d1p+12"; "0x1.d9f4682468acep+12";
        "0x1.d9bfef62fc963p+12"; "0x1.d9bfef62fc963p+12"; "0x1.d9670737c048dp+12";
        "0x1.d34642d82d82ep+12"; "0x1.cf2c03c4d5e7p+12"; "0x1.cf23d7f6e5d4cp+12";
        "0x1.c840f33333334p+12"; "0x1.c47c962fc963p+12"; "0x1.c47c962fc963p+12";
        "0x1.c4739ddddddddp+12"; "0x1.c151844444444p+12"; "0x1.c14f898765433p+12";
        "0x1.b00b2fd27d27ep+12"; "0x1.b00b2fd27d27ep+12"; "0x1.b00b2fd27d27ep+12";
        "0x1.b00b2fd27d27ep+12"; "0x1.b003917530ecbp+12"; "0x1.a208c8091a2b4p+12";
        "0x1.a208c8091a2b4p+12"; "0x1.a208c8091a2b4p+12"; "0x1.a208c8091a2b4p+12";
        "0x1.9e456130eca87p+12"; "0x1.9e456130eca87p+12"; "0x1.97a11851eb852p+12";
        "0x1.97a11851eb852p+12"; "0x1.93d4985b05b05p+12"; "0x1.93d4985b05b05p+12";
        "0x1.918e749f49f49p+12"; "0x1.918e749f49f49p+12"; "0x1.91875f92c5f92p+12";
        "0x1.91875f92c5f92p+12"; "0x1.91875f92c5f92p+12"; "0x1.91804a8641fdbp+12";
        "0x1.907130369d036p+12"; "0x1.862a3afc962fcp+12"; "0x1.7e8150eca8641p+12";
        "0x1.7e7221907f6e6p+12"; "0x1.7e6a89e26af37p+12"; "0x1.7d459d70a3d7p+12";
        "0x1.7d459d70a3d7p+12"; "0x1.7d459d70a3d7p+12"; "0x1.7d459d70a3d7p+12";
        "0x1.7d459d70a3d7p+12"; "0x1.7cb0cccccccccp+12"; "0x1.7cb0cccccccccp+12";
        "0x1.7cb0cccccccccp+12"; "0x1.7cb0cccccccccp+12"; "0x1.7cac99999999ap+12";
        "0x1.76c6182d82d82p+12"; "0x1.76c6182d82d82p+12"; "0x1.76c6182d82d82p+12";
        "0x1.76c6182d82d82p+12"; "0x1.76c6182d82d82p+12"; "0x1.7689dfa8c536fp+12";
        "0x1.75faa48edab4cp+12"; "0x1.70e3bb1c71c71p+12"; "0x1.70e3bb1c71c71p+12";
        "0x1.70dea4fa4fa5p+12"; "0x1.70dea4fa4fa5p+12"; "0x1.70dd044444444p+12";
        "0x1.6b44ad18a6dfbp+12"; "0x1.6504b680f2b9dp+12"; "0x1.62a720a3d70a4p+12";
        "0x1.62a720a3d70a4p+12"; "0x1.62a720a3d70a4p+12"; "0x1.62a720a3d70a4p+12";
        "0x1.62a3370a3d70ap+12"; "0x1.62a3370a3d70ap+12"; "0x1.629f4d70a3d7p+12";
        "0x1.629f4d70a3d7p+12"; "0x1.608e8740da74p+12"; "0x1.608aa4c3b2a1ap+12";
        "0x1.608aa4c3b2a1ap+12"; "0x1.5a3d4be02468bp+12"; "0x1.5a3d4be02468bp+12";
        "0x1.5a3d4be02468bp+12"; "0x1.591fe16c16c17p+12"; "0x1.5909127d27d28p+12";
        "0x1.5909127d27d28p+12"; "0x1.5909127d27d28p+12"; "0x1.5906ca9876543p+12";
        "0x1.5906ca9876543p+12"; "0x1.5905455555556p+12"; "0x1.5905455555556p+12";
        "0x1.5905455555556p+12"; "0x1.5905455555556p+12"; "0x1.5905455555556p+12";
        "0x1.5757aab3c4d5fp+12"; "0x1.5757aab3c4d5fp+12"; "0x1.5757aab3c4d5fp+12";
        "0x1.562512a1907f7p+12"; "0x1.562512a1907f7p+12"; "0x1.562512a1907f7p+12";
        "0x1.56214da740da8p+12"; "0x1.56214da740da8p+12"; "0x1.56214da740da8p+12"
      ];
  }

let resnet18_ll =
  {
    best = 19680.195480405793;
    evaluations = 17876;
    failed_mutations = 224;
    history =
      [
        "0x1.786aae9781b9cp+16"; "0x1.76dcf715d3bd2p+16"; "0x1.154dfc1388c83p+16";
        "0x1.0978039da8762p+16"; "0x1.fab595f2b2fe8p+15"; "0x1.e60d2973b467bp+15";
        "0x1.d8df0cae4adf6p+15"; "0x1.d3b4bceab41dcp+15"; "0x1.d3b4bceab41dcp+15";
        "0x1.ac4f422b6767ep+15"; "0x1.75192117b479ap+15"; "0x1.75192117b479ap+15";
        "0x1.71da269be96cbp+15"; "0x1.70804b605dde7p+15"; "0x1.6f1264b789d45p+15";
        "0x1.4843b9562c0b7p+15"; "0x1.4843b9562c0b7p+15"; "0x1.45d273c546486p+15";
        "0x1.3f01563e35e93p+15"; "0x1.366bc659cfed4p+15"; "0x1.282c7b92f0b19p+15";
        "0x1.246f5cf1dd521p+15"; "0x1.1b91d3c1db8c8p+15"; "0x1.1758def6ca3aap+15";
        "0x1.174f7b8fe465ep+15"; "0x1.13a738ae8e5ecp+15"; "0x1.132db74e48e39p+15";
        "0x1.0f94796bb0a4bp+15"; "0x1.0f94796bb0a4bp+15"; "0x1.0b018c0b07edcp+15";
        "0x1.01cbd6e0fdb29p+15"; "0x1.fe5d0d26754edp+14"; "0x1.f8e139cf257a5p+14";
        "0x1.f48ec0eb4d9a9p+14"; "0x1.e7a70eca2f525p+14"; "0x1.e24d502de203p+14";
        "0x1.d2fa607650802p+14"; "0x1.d2fa607650802p+14"; "0x1.cd76f56efd7b9p+14";
        "0x1.cd76f56efd7b9p+14"; "0x1.be1985ca2d047p+14"; "0x1.bb9d0743e5de2p+14";
        "0x1.baeda2b69fb46p+14"; "0x1.b9236c8730cdfp+14"; "0x1.b8ccd641129b1p+14";
        "0x1.b8ab29c0f41bcp+14"; "0x1.af83bf5f362f3p+14"; "0x1.ae2d4ea6ab237p+14";
        "0x1.acec8c50bfca1p+14"; "0x1.ac3fd9e149329p+14"; "0x1.a510fbb9550dep+14";
        "0x1.9ff939ef3f61ep+14"; "0x1.9ff939ef3f61ep+14"; "0x1.948aea74bef17p+14";
        "0x1.8ede6d153add2p+14"; "0x1.8b6ac4a097875p+14"; "0x1.8a15d86667474p+14";
        "0x1.8a15d86667474p+14"; "0x1.6e7ce28bfd3e2p+14"; "0x1.6e7ce28bfd3e2p+14";
        "0x1.6bc2ebc986b9fp+14"; "0x1.6bc2ebc986b9fp+14"; "0x1.6658659c5c884p+14";
        "0x1.6500d4b3a856ep+14"; "0x1.5da92b4af338fp+14"; "0x1.5da92b4af338fp+14";
        "0x1.5c25812230866p+14"; "0x1.5b7f3d3d84b86p+14"; "0x1.5886e628fea25p+14";
        "0x1.57dd9e3f98a7ep+14"; "0x1.5531690b4ea63p+14"; "0x1.549391537fcd1p+14";
        "0x1.529f1064c8945p+14"; "0x1.505b61612aac1p+14"; "0x1.505b61612aac1p+14";
        "0x1.505b61612aac1p+14"; "0x1.505b61612aac1p+14"; "0x1.4ef20c0d90d14p+14";
        "0x1.4ead4dc0e0f56p+14"; "0x1.4dff516458c0ap+14"; "0x1.4ba87732afba6p+14";
        "0x1.4a03b0de86f97p+14"; "0x1.491328c579ed1p+14"; "0x1.48dbc0231db5ep+14";
        "0x1.473d7881f3581p+14"; "0x1.4682266f6630ep+14"; "0x1.4682266f6630ep+14";
        "0x1.45f2391286f05p+14"; "0x1.45891c5543567p+14"; "0x1.450c27b487ebfp+14";
        "0x1.450c27b487ebfp+14"; "0x1.448e7e73147dcp+14"; "0x1.4480943f616d1p+14";
        "0x1.443a326310a13p+14"; "0x1.434c6caa12985p+14"; "0x1.434c6caa12985p+14";
        "0x1.434c6caa12985p+14"; "0x1.42ca5958728a7p+14"; "0x1.42b8052775dc5p+14";
        "0x1.42b8052775dc5p+14"; "0x1.42a50f772e96dp+14"; "0x1.40d4b6491c005p+14";
        "0x1.40d4b6491c005p+14"; "0x1.403821920b13p+14"; "0x1.403821920b13p+14";
        "0x1.403821920b13p+14"; "0x1.403821920b13p+14"; "0x1.403821920b13p+14";
        "0x1.403821920b13p+14"; "0x1.403821920b13p+14"; "0x1.403821920b13p+14";
        "0x1.403821920b13p+14"; "0x1.403821920b13p+14"; "0x1.403821920b13p+14";
        "0x1.403821920b13p+14"; "0x1.403821920b13p+14"; "0x1.403821920b13p+14";
        "0x1.403821920b13p+14"; "0x1.403821920b13p+14"; "0x1.3fe43595c4533p+14";
        "0x1.3fe43595c4533p+14"; "0x1.3fe43595c4533p+14"; "0x1.3fe43595c4533p+14";
        "0x1.3fe43595c4533p+14"; "0x1.3fe43595c4533p+14"; "0x1.3f43bfd816f91p+14";
        "0x1.3e9b672064b22p+14"; "0x1.3e9b672064b22p+14"; "0x1.3e9b672064b22p+14";
        "0x1.3db0d62aa28f4p+14"; "0x1.3b764655e3db2p+14"; "0x1.3b764655e3db2p+14";
        "0x1.3b764655e3db2p+14"; "0x1.3b6b49013be6p+14"; "0x1.3aa97ce33af02p+14";
        "0x1.3aa97ce33af02p+14"; "0x1.3aa97ce33af02p+14"; "0x1.3aa97ce33af02p+14";
        "0x1.3aa97ce33af02p+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14"; "0x1.39c2b3ed7860cp+14";
        "0x1.39c2b3ed7860cp+14"; "0x1.39bd2f28aa956p+14"; "0x1.3831ed67a24c7p+14";
        "0x1.3831ed67a24c7p+14"; "0x1.3831ed67a24c7p+14"; "0x1.376c804c3668dp+14";
        "0x1.376c804c3668dp+14"; "0x1.376c804c3668dp+14"; "0x1.3725e96924f41p+14";
        "0x1.3725e96924f41p+14"; "0x1.364817310c387p+14"; "0x1.364817310c387p+14";
        "0x1.364817310c387p+14"; "0x1.364817310c387p+14"; "0x1.35ae3c8fdcd01p+14";
        "0x1.35ae3c8fdcd01p+14"; "0x1.35ae3c8fdcd01p+14"; "0x1.34dda4fb1a3e3p+14";
        "0x1.34dda4fb1a3e3p+14"; "0x1.34dda4fb1a3e3p+14"; "0x1.34dda4fb1a3e3p+14";
        "0x1.34dda4fb1a3e3p+14"; "0x1.34dda4fb1a3e3p+14"; "0x1.34dda4fb1a3e3p+14";
        "0x1.34d179a71d60ap+14"; "0x1.34d179a71d60ap+14"; "0x1.34d179a71d60ap+14";
        "0x1.34d179a71d60ap+14"; "0x1.34d179a71d60ap+14"; "0x1.34d179a71d60ap+14";
        "0x1.349a76970e1b5p+14"; "0x1.349a76970e1b5p+14"; "0x1.349a76970e1b5p+14";
        "0x1.34429c5a95ed7p+14"; "0x1.34429c5a95ed7p+14"; "0x1.34429c5a95ed7p+14";
        "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14";
        "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14";
        "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14"; "0x1.3380c82c03f79p+14"
      ];
  }

let googlenet_ll =
  {
    best = 37397.936686463217;
    evaluations = 1223;
    failed_mutations = 1;
    history =
      [
        "0x1.bc5ef1cf8394bp+16"; "0x1.bc269f5c9fa62p+16"; "0x1.baad003130b52p+16";
        "0x1.baad003130b52p+16"; "0x1.baa7fa3fbad1fp+16"; "0x1.baa7fa3fbad1fp+16";
        "0x1.ba5c492e32e13p+16"; "0x1.ba18d2679855bp+16"; "0x1.ba0fd3e77fd51p+16";
        "0x1.b989863505abep+16"; "0x1.b989863505abep+16"; "0x1.b974a1afe6f39p+16";
        "0x1.b91aa5bdb0aa8p+16"; "0x1.b8e743723f7bbp+16"; "0x1.b8e743723f7bbp+16";
        "0x1.b8e743723f7bbp+16"; "0x1.b8e34a2f65929p+16"; "0x1.b8c251ca0d557p+16";
        "0x1.b8c251ca0d557p+16"; "0x1.b8b62b2bc2d9ap+16"; "0x1.b837ad7f32ac4p+16";
        "0x1.b7f398578b516p+16"; "0x1.b7f0d0b18664p+16"; "0x1.b7f0d0b18664p+16";
        "0x1.b7ca0a9d0460dp+16"; "0x1.b7708f1c9f63cp+16"; "0x1.b7708f1c9f63cp+16";
        "0x1.b7559f8a9072cp+16"; "0x1.b7559f8a9072cp+16"; "0x1.b7559f8a9072cp+16";
        "0x1.e68cc3820da56p+15"; "0x1.e68cc3820da56p+15"; "0x1.e6798f46711edp+15";
        "0x1.e60a44ed8a592p+15"; "0x1.e52088d9c2ca9p+15"; "0x1.e43e9df52ccaep+15";
        "0x1.e435d8eb2c229p+15"; "0x1.e435d8eb2c229p+15"; "0x1.849e44d344199p+15";
        "0x1.82a5b282b64b8p+15"; "0x1.761cdf51db8dbp+15"; "0x1.761cdf51db8dbp+15";
        "0x1.756340bc546b6p+15"; "0x1.748e1753caec2p+15"; "0x1.748e1753caec2p+15";
        "0x1.73b3371c27003p+15"; "0x1.4e9a24ab2c9e4p+15"; "0x1.4e9a24ab2c9e4p+15";
        "0x1.4e2e1f00402cap+15"; "0x1.4c719a18e68d3p+15"; "0x1.4c719a18e68d3p+15";
        "0x1.4c6dd5006a9e4p+15"; "0x1.4bc4579fac407p+15"; "0x1.4a8e90216f15dp+15";
        "0x1.497308fc2eccfp+15"; "0x1.278dea813e007p+15"; "0x1.24ce115a08e29p+15";
        "0x1.24ce115a08e29p+15"; "0x1.24c842a28c9c3p+15"; "0x1.24bc6bda08e29p+15";
        "0x1.242bdf955e3c4p+15"
      ];
  }

let test_pinned name ~params ~mode expected () =
  let table, core_count =
    setup name (Nnir.Zoo.scaled_input_size ~factor:4 name)
  in
  let timing = Pimhw.Timing.create ~parallelism:20 hw in
  let r =
    Pimcomp.Genetic.optimize ~params ~mode ~timing
      ~rng:(Pimcomp.Rng.create ~seed:42)
      table ~core_count ~max_node_num_in_core:16 ()
  in
  let hex = Printf.sprintf "%h" in
  Alcotest.(check string)
    "best fitness" (hex expected.best)
    (hex r.Pimcomp.Genetic.best_fitness);
  Alcotest.(check int)
    "evaluations" expected.evaluations r.Pimcomp.Genetic.evaluations;
  Alcotest.(check int)
    "failed mutations" expected.failed_mutations
    r.Pimcomp.Genetic.failed_mutations;
  Alcotest.(check (list string))
    "history" expected.history
    (List.map hex r.Pimcomp.Genetic.history)

let () =
  Alcotest.run "genetic"
    [
      ( "ga",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "incremental equals full" `Quick
            test_incremental_equals_full;
          Alcotest.test_case "improves over initial" `Quick
            test_improves_over_initial;
          Alcotest.test_case "history monotone" `Quick test_history_monotone;
          Alcotest.test_case "seed never worse" `Quick test_seed_never_worse;
          Alcotest.test_case "invalid seed filtered" `Quick
            test_invalid_seed_filtered;
          Alcotest.test_case "patience" `Quick test_patience_stops_early;
          Alcotest.test_case "beats random search" `Quick
            test_ga_beats_random_search;
          Alcotest.test_case "random-search history curve" `Quick
            test_random_search_history_curve;
          Alcotest.test_case "negative iterations rejected" `Quick
            test_negative_iterations_rejected;
          Alcotest.test_case "progress per generation and batch" `Quick
            test_progress;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "resnet18 HT (bench ga setup)" `Quick
            (test_pinned "resnet18" ~params:Pimcomp.Genetic.default_params
               ~mode:Pimcomp.Mode.High_throughput resnet18_ht);
          Alcotest.test_case "resnet18 LL (bench ga setup)" `Quick
            (test_pinned "resnet18" ~params:Pimcomp.Genetic.default_params
               ~mode:Pimcomp.Mode.Low_latency resnet18_ll);
          Alcotest.test_case "googlenet LL (fast params)" `Quick
            (test_pinned "googlenet" ~params:Pimcomp.Genetic.fast_params
               ~mode:Pimcomp.Mode.Low_latency googlenet_ll);
        ] );
      ( "rng-split",
        [
          Alcotest.test_case "deterministic" `Quick test_split_deterministic;
          Alcotest.test_case "independent streams" `Quick
            test_split_independent;
        ] );
      ("rng", [ QCheck_alcotest.to_alcotest rng_int_matches_reference ]);
      ( "islands",
        [
          Alcotest.test_case "smoke (2 islands)" `Quick test_island_smoke;
          Alcotest.test_case "layout bookkeeping" `Quick test_island_layout;
          Alcotest.test_case "uneven population" `Quick
            test_island_uneven_population;
          QCheck_alcotest.to_alcotest island_domain_independence;
          Alcotest.test_case "competitive with single population" `Quick
            test_island_competitive;
        ] );
    ]
