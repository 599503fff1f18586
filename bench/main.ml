(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V).

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig8 table2  -- run a subset

   Sections:
     table1   hardware configuration (Table I)
     fig8     throughput / latency vs parallelism, normalised to the
              PUMA-like baseline (Fig. 8) + the headline geo-means
     fig9     energy breakdown at parallelism 20 (Fig. 9)
     fig10    memory-reuse optimisation (Fig. 10)
     table2   compile time per stage (Table II)
     ablation GA vs random search vs PUMA-like (DESIGN.md extension)
     batch    single-stream vs steady-state HT throughput
     ga, cache, synth, alloc, stream
              suites that each compare two paths users run, write
              BENCH_<SUITE>.json and then fail on any gate that does not
              hold (PIMCOMP_SIM_TINY=1 runs each at a smoke size)

   The sweep sections (fig8, fig10, ablation) fan their evaluation
   points out across OCaml domains via Pimutil.Domain_pool; every
   point is a pure seeded computation, so the output is identical to a
   sequential run.

   Networks run at 1/4 of their native input resolution (layer structure
   unchanged — see DESIGN.md §1) so the whole suite completes in
   minutes; EXPERIMENTS.md records paper-vs-measured at these scales. *)

let hw = Pimhw.Config.puma_like

let networks =
  List.map
    (fun name -> (name, Nnir.Zoo.scaled_input_size ~factor:4 name))
    Nnir.Zoo.paper_benchmarks

(* GA configuration for the sweep sections: smaller than the paper's
   population 100 x 200 iterations (used in table2, where compile time
   itself is the measurement) but converged enough to show the shape. *)
let ga_params =
  {
    Pimcomp.Genetic.default_params with
    population = 40;
    iterations = 100;
    patience = Some 30;
  }

let graph_of (name, size) = Nnir.Zoo.build ~input_size:size name

let compile_and_sim ?(allocator = Pimcomp.Memalloc.Ag_reuse) ~mode ~strategy
    ~parallelism net =
  let options =
    {
      Pimcomp.Compile.default_options with
      mode;
      parallelism;
      allocator;
      strategy;
    }
  in
  let result = Pimcomp.Compile.compile ~options hw (graph_of net) in
  let metrics =
    Pimsim.Engine.run ~parallelism hw result.Pimcomp.Compile.program
  in
  (result, metrics)

let ga = Pimcomp.Compile.Genetic_algorithm ga_params
let puma = Pimcomp.Compile.Puma_like

let geo_mean values =
  match values with
  | [] -> 1.0
  | _ ->
      exp
        (List.fold_left (fun acc v -> acc +. log v) 0.0 values
        /. float_of_int (List.length values))

module J = Pimutil.Json

(* Every BENCH_*.json is one object, one top-level field per line,
   published with temp-file + rename so that a crashed or interrupted
   bench run never leaves a torn file for the driver to parse. *)
let write_json path fields =
  let line (key, value) =
    Fmt.str "  %s: %s" (J.to_string (J.String key)) (J.to_string value)
  in
  Pimutil.Atomic_io.write_text path
    ("{\n" ^ String.concat ",\n" (List.map line fields) ^ "\n}\n");
  Fmt.pr "wrote %s@." path

(* A suite's pass/fail checks.  [check] records one as a boolean field
   of the suite's file and returns that field; once the file is written,
   every false gate that is enforced at this size fails the run. *)
type gate = { key : string; ok : bool; enforced : bool; message : string }

let check gates ?(enforced = true) key ok message =
  gates := { key; ok; enforced; message } :: !gates;
  (key, J.Bool ok)

let suite path run () =
  let gates = ref [] in
  write_json path (run gates);
  match List.filter (fun g -> g.enforced && not g.ok) (List.rev !gates) with
  | [] -> ()
  | failed ->
      let line g = Fmt.str "%s (%s: false)" g.message g.key in
      failwith (String.concat "\n" (List.map line failed))

let hr = String.make 78 '-'

let section name f =
  Fmt.pr "@.%s@.== %s@.%s@." hr name hr;
  f ()

(* One warm worker pool shared by every sweep section: repeated sweeps
   reuse the same domains instead of spawning and joining a fresh pool
   per map call.  Forced lazily so sections that never sweep don't
   spawn workers; shut down after the last section runs. *)
let sweep_pool = lazy (Pimcomp.Sched_common.warm_pool None)

let pool_map f items =
  Pimutil.Domain_pool.Persistent.run (Lazy.force sweep_pool) f items

let pool_map_list f items = Array.to_list (pool_map f (Array.of_list items))

let shutdown_sweep_pool () =
  if Lazy.is_val sweep_pool then
    Pimutil.Domain_pool.Persistent.shutdown (Lazy.force sweep_pool)

(* [f]'s last result and its best-of-[reps] wall time.  Every timed
   path is deterministic (same inputs, same result every run), so the
   minimum is the cleanest estimate of its cost under scheduler noise. *)
let best_of ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let r, dt = Pimutil.Clock.timed f in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* --- Table I ---------------------------------------------------------------- *)

let table1 () =
  Fmt.pr "%a@.@." Pimhw.Config.pp_table hw;
  Fmt.pr "derived models:@.";
  Fmt.pr "  %a@."
    Pimhw.Cacti_model.pp
    (Pimhw.Cacti_model.evaluate
       ~capacity_bytes:hw.Pimhw.Config.local_memory_bytes);
  Fmt.pr "  %a@."
    Pimhw.Cacti_model.pp
    (Pimhw.Cacti_model.evaluate
       ~capacity_bytes:hw.Pimhw.Config.global_memory_bytes);
  Fmt.pr "  %a@." Pimhw.Orion_model.pp (Pimhw.Orion_model.evaluate ());
  Fmt.pr "  %a@." Pimhw.Energy_model.pp (Pimhw.Energy_model.create hw)

(* --- Fig. 8 ----------------------------------------------------------------- *)

let fig8 () =
  let parallelisms = [ 4; 8; 16; 32 ] in
  Fmt.pr
    "Throughput (HT) and latency (LL) of PIMCOMP normalised to the PUMA-like@.\
     baseline, vs parallelism degree (paper Fig. 8).  > 1.00x means PIMCOMP \
     wins.@.@.";
  Fmt.pr "%-14s %5s | %12s %12s | %12s %12s@." "network" "P" "HT thr (GA)"
    "HT norm" "LL lat (GA)" "LL norm";
  let points =
    Array.of_list
      (List.concat_map
         (fun net -> List.map (fun p -> (net, p)) parallelisms)
         networks)
  in
  let rows =
    pool_map
      (fun (net, parallelism) ->
        let _, ht_ga =
          compile_and_sim ~mode:Pimcomp.Mode.High_throughput ~strategy:ga
            ~parallelism net
        in
        let _, ht_puma =
          compile_and_sim ~mode:Pimcomp.Mode.High_throughput ~strategy:puma
            ~parallelism net
        in
        let _, ll_ga =
          compile_and_sim ~mode:Pimcomp.Mode.Low_latency ~strategy:ga
            ~parallelism net
        in
        let _, ll_puma =
          compile_and_sim ~mode:Pimcomp.Mode.Low_latency ~strategy:puma
            ~parallelism net
        in
        let ht_norm =
          ht_ga.Pimsim.Metrics.throughput_ips
          /. ht_puma.Pimsim.Metrics.throughput_ips
        in
        let ll_norm =
          ll_puma.Pimsim.Metrics.latency_ns /. ll_ga.Pimsim.Metrics.latency_ns
        in
        ( ht_ga.Pimsim.Metrics.throughput_ips,
          ht_norm,
          ll_ga.Pimsim.Metrics.latency_ns,
          ll_norm ))
      points
  in
  let ht_gains = ref [] and ll_gains = ref [] in
  let per_net = List.length parallelisms in
  Array.iteri
    (fun i (ht_thr, ht_norm, ll_lat, ll_norm) ->
      let (name, _), parallelism = points.(i) in
      ht_gains := ht_norm :: !ht_gains;
      ll_gains := ll_norm :: !ll_gains;
      Fmt.pr "%-14s %5d | %9.0f/s %11.2fx | %9.1fus %11.2fx@." name
        parallelism ht_thr ht_norm (ll_lat /. 1e3) ll_norm;
      if (i + 1) mod per_net = 0 then Fmt.pr "@.")
    rows;
  Fmt.pr "geo-mean across networks and parallelism degrees:@.";
  Fmt.pr "  throughput (HT): %.2fx   latency (LL): %.2fx@."
    (geo_mean !ht_gains) (geo_mean !ll_gains);
  Fmt.pr "  (paper reports 1.6x and 2.4x on the authors' testbed)@."

(* --- Fig. 9 ----------------------------------------------------------------- *)

let fig9 () =
  let parallelism = 20 in
  Fmt.pr
    "Energy breakdown at parallelism degree 20, normalised to the PUMA-like@.\
     total (paper Fig. 9).@.@.";
  Fmt.pr "%-14s %-4s | %8s %8s %8s | %8s %8s %8s | %9s@." "network" "mode"
    "GA dyn" "GA stat" "GA tot" "P dyn" "P stat" "P tot" "stat red.";
  let ll_static_reductions = ref [] in
  List.iter
    (fun net ->
      List.iter
        (fun mode ->
          let _, m_ga = compile_and_sim ~mode ~strategy:ga ~parallelism net in
          let _, m_puma =
            compile_and_sim ~mode ~strategy:puma ~parallelism net
          in
          let dyn m = Pimsim.Metrics.dynamic_pj m.Pimsim.Metrics.energy in
          let stat m = Pimsim.Metrics.static_pj m.Pimsim.Metrics.energy in
          let base = dyn m_puma +. stat m_puma in
          let reduction = 1.0 -. (stat m_ga /. stat m_puma) in
          if mode = Pimcomp.Mode.Low_latency then
            ll_static_reductions := reduction :: !ll_static_reductions;
          Fmt.pr
            "%-14s %-4s | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f | %8.1f%%@."
            (fst net)
            (Pimcomp.Mode.to_string mode)
            (dyn m_ga /. base) (stat m_ga /. base)
            ((dyn m_ga +. stat m_ga) /. base)
            (dyn m_puma /. base) (stat m_puma /. base) 1.0
            (reduction *. 100.0))
        Pimcomp.Mode.all)
    networks;
  let avg =
    List.fold_left ( +. ) 0.0 !ll_static_reductions
    /. float_of_int (max 1 (List.length !ll_static_reductions))
  in
  Fmt.pr "@.average LL static-energy reduction: %.1f%% (paper: 58.3%%)@."
    (avg *. 100.0)

(* --- Fig. 10 ---------------------------------------------------------------- *)

let fig10 () =
  let parallelism = 20 in
  let allocators =
    [ Pimcomp.Memalloc.Naive; Pimcomp.Memalloc.Add_reuse;
      Pimcomp.Memalloc.Ag_reuse ]
  in
  Fmt.pr
    "Memory-reuse optimisation (paper Fig. 10).  HT: global-memory access@.\
     normalised to the naive allocator (transfer batch = 2 MVMs, as in the@.\
     paper).  LL: peak on-chip memory vs the 64 kB scratchpad.@.@.";
  let rows =
    pool_map_list
      (fun net ->
        let traffic allocator =
          let r, _ =
            compile_and_sim ~allocator ~mode:Pimcomp.Mode.High_throughput
              ~strategy:puma ~parallelism net
          in
          let m = r.Pimcomp.Compile.program.Pimcomp.Isa.memory in
          float_of_int
            (m.Pimcomp.Isa.global_load_bytes
           + m.Pimcomp.Isa.global_store_bytes + m.Pimcomp.Isa.spill_bytes)
        in
        let peaks allocator =
          let r, _ =
            compile_and_sim ~allocator ~mode:Pimcomp.Mode.Low_latency
              ~strategy:puma ~parallelism net
          in
          let peaks =
            r.Pimcomp.Compile.program.Pimcomp.Isa.memory
              .Pimcomp.Isa.local_peak_bytes
          in
          let active = Array.to_list peaks |> List.filter (fun p -> p > 0) in
          let avg =
            float_of_int (List.fold_left ( + ) 0 active)
            /. float_of_int (max 1 (List.length active))
            /. 1024.0
          in
          (float_of_int (Array.fold_left max 0 peaks) /. 1024.0, avg)
        in
        (net, List.map traffic allocators, List.map peaks allocators))
      networks
  in
  Fmt.pr "HT mode - global memory traffic (normalised to naive):@.";
  Fmt.pr "%-14s | %8s %10s %9s@." "network" "naive" "ADD-reuse" "AG-reuse";
  let reductions = ref [] in
  List.iter
    (fun (net, traffic, _) ->
      match traffic with
      | [ naive; add; ag ] ->
          reductions := (1.0 -. (ag /. naive)) :: !reductions;
          Fmt.pr "%-14s | %8.3f %10.3f %9.3f@." (fst net) 1.0 (add /. naive)
            (ag /. naive)
      | _ -> assert false)
    rows;
  let avg =
    List.fold_left ( +. ) 0.0 !reductions
    /. float_of_int (max 1 (List.length !reductions))
  in
  Fmt.pr "average AG-reuse reduction: %.1f%% (paper: 47.8%%)@.@."
    (avg *. 100.0);
  Fmt.pr "LL mode - peak on-chip memory per core (kB):@.";
  Fmt.pr "%-14s | %8s %8s | %8s %8s | %8s %8s@." "" "naive" "" "ADD" "" "AG"
    "";
  Fmt.pr "%-14s | %8s %8s | %8s %8s | %8s %8s@." "network" "max" "avg" "max"
    "avg" "max" "avg";
  List.iter
    (fun (net, _, peaks) ->
      match peaks with
      | [ (n_max, n_avg); (a_max, a_avg); (g_max, g_avg) ] ->
          Fmt.pr "%-14s | %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f%s@."
            (fst net) n_max n_avg a_max a_avg g_max g_avg
            (if g_avg <= 64.0 then "  (avg fits 64 kB)" else "")
      | _ -> assert false)
    rows;
  Fmt.pr "(paper: LL average within 64 kB under AG-reuse)@."

(* --- Table II --------------------------------------------------------------- *)

let table2 () =
  Fmt.pr
    "Compile time in seconds per stage (paper Table II).  GA with the@.\
     paper's parameters: population 100, 200 iterations.@.@.";
  Fmt.pr "%-22s" "stage";
  List.iter (fun (name, _) -> Fmt.pr " | %12s" name) networks;
  Fmt.pr "@.%-22s" "";
  List.iter (fun _ -> Fmt.pr " | %5s %6s" "HT" "LL") networks;
  Fmt.pr "@.";
  let paper_params =
    { Pimcomp.Genetic.default_params with patience = Some 60 }
  in
  let results =
    List.map
      (fun net ->
        List.map
          (fun mode ->
            let options =
              {
                Pimcomp.Compile.default_options with
                mode;
                parallelism = 20;
                strategy = Pimcomp.Compile.Genetic_algorithm paper_params;
              }
            in
            let r = Pimcomp.Compile.compile ~options hw (graph_of net) in
            r.Pimcomp.Compile.stage_seconds)
          Pimcomp.Mode.all)
      networks
  in
  let row label f =
    Fmt.pr "%-22s" label;
    List.iter
      (fun stages ->
        match stages with
        | [ ht; ll ] -> Fmt.pr " | %5.2f %6.2f" (f ht) (f ll)
        | _ -> assert false)
      results;
    Fmt.pr "@."
  in
  row "Node Partitioning" (fun s -> s.Pimcomp.Compile.partitioning);
  row "Replicating+Mapping" (fun s -> s.Pimcomp.Compile.replicating_mapping);
  row "Dataflow Scheduling" (fun s -> s.Pimcomp.Compile.scheduling);
  row "Total" (fun s -> s.Pimcomp.Compile.total)

(* --- ablation ----------------------------------------------------------------- *)

let ablation () =
  Fmt.pr
    "Mapping-strategy ablation (DESIGN.md extension): the GA against random@.\
     search with the same evaluation budget and the PUMA-like heuristic.@.\
     Values are simulated makespans (us) at parallelism 8.@.@.";
  Fmt.pr "%-14s %-4s | %10s %10s %10s@." "network" "mode" "GA" "random"
    "PUMA-like";
  let strategy_nets = [ ("squeezenet", 56); ("resnet18", 56) ] in
  let objective_nets = [ ("squeezenet", 56); ("googlenet", 56) ] in
  let points =
    List.concat_map
      (fun net -> List.map (fun mode -> (net, mode)) Pimcomp.Mode.all)
      strategy_nets
  in
  pool_map_list
    (fun (net, mode) ->
      let time strategy =
        let _, m = compile_and_sim ~mode ~strategy ~parallelism:8 net in
        m.Pimsim.Metrics.makespan_ns /. 1e3
      in
      let small = { ga_params with population = 16; iterations = 40 } in
      ( net,
        mode,
        time (Pimcomp.Compile.Genetic_algorithm small),
        time (Pimcomp.Compile.Random_search small),
        time puma ))
    points
  |> List.iter (fun (net, mode, t_ga, t_rand, t_puma) ->
         Fmt.pr "%-14s %-4s | %10.1f %10.1f %10.1f@." (fst net)
           (Pimcomp.Mode.to_string mode)
           t_ga t_rand t_puma);
  Fmt.pr
    "@.Objective ablation: time-only vs energy-delay-product GA (LL, P=8).@.@.";
  Fmt.pr "%-14s | %12s %12s | %12s %12s@." "network" "time: us" "uJ"
    "edp: us" "uJ";
  pool_map_list
    (fun net ->
      let run objective =
        let options =
          {
            Pimcomp.Compile.default_options with
            mode = Pimcomp.Mode.Low_latency;
            parallelism = 8;
            objective;
            strategy = Pimcomp.Compile.Genetic_algorithm ga_params;
          }
        in
        let r = Pimcomp.Compile.compile ~options hw (graph_of net) in
        let m = Pimsim.Engine.run ~parallelism:8 hw r.Pimcomp.Compile.program in
        ( m.Pimsim.Metrics.makespan_ns /. 1e3,
          Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy /. 1e6 )
      in
      (net, run Pimcomp.Fitness.Minimize_time,
       run Pimcomp.Fitness.Minimize_energy_delay))
    objective_nets
  |> List.iter (fun (net, (t_us, t_uj), (e_us, e_uj)) ->
         Fmt.pr "%-14s | %12.1f %12.1f | %12.1f %12.1f@." (fst net) t_us t_uj
           e_us e_uj)

(* --- batch validation --------------------------------------------------------- *)

(* Validates the Fig. 8 throughput reading: single-stream HT throughput
   (1/makespan) against the true steady-state interval measured by
   simulating back-to-back inferences sharing the physical crossbars. *)
let batch () =
  Fmt.pr
    "Steady-state validation: single-stream HT throughput vs a batch of 4@.\
     back-to-back inferences (parallelism 20).@.@.";
  Fmt.pr "%-14s | %14s %14s | %8s@." "network" "single inf/s" "steady inf/s"
    "ratio";
  List.iter
    (fun net ->
      let r, single =
        compile_and_sim ~mode:Pimcomp.Mode.High_throughput ~strategy:puma
          ~parallelism:20 net
      in
      let b =
        Pimsim.Batch.run ~parallelism:20 hw r.Pimcomp.Compile.program
          ~batches:4
      in
      let steady = 1e9 /. b.Pimsim.Batch.steady_interval_ns in
      Fmt.pr "%-14s | %14.0f %14.0f | %8.2f@." (fst net)
        single.Pimsim.Metrics.throughput_ips steady
        (steady /. single.Pimsim.Metrics.throughput_ips))
    networks;
  Fmt.pr
    "@.ratios near 1.0 mean the single-stream makespan is a faithful@.\
     steady-state interval, as Fig. 8's throughput numbers assume.@."

(* --- GA throughput ------------------------------------------------------------ *)

(* Measures the replication+mapping stage itself: the same GA run under
   Full (re-evaluate every child from scratch) and Incremental (refresh
   only the terms the mutation touched) evaluation.  Both paths share
   their arithmetic, so the trajectories — and the final best fitness —
   must be bit-identical (the run fails otherwise); only the wall time
   may differ.

   A second section compares the single-population GA against the island
   model at the same evaluation budget: the island run is timed both
   single-threaded (domains = 1) and fanned out over the domain pool,
   and both runs record a best-fitness-vs-wall-clock curve via the
   progress callback.  On a 1-core host the parallel number is honestly
   below 1x (domain spawn/join overhead with nothing to overlap).
   Results land in BENCH_GA.json; the tiny size runs the tiny network
   with the fast GA parameters. *)
let ga_bench ~tiny gates =
  let net =
    if tiny then ("tiny", Nnir.Zoo.min_input_size "tiny")
    else ("resnet18", Nnir.Zoo.scaled_input_size ~factor:4 "resnet18")
  in
  let g = graph_of net in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  let timing = Pimhw.Timing.create ~parallelism:20 hw in
  let params =
    if tiny then Pimcomp.Genetic.fast_params
    else Pimcomp.Genetic.default_params
  in
  let run evaluation mode =
    best_of ~reps:3 (fun () ->
        Pimcomp.Genetic.optimize ~params ~evaluation ~mode ~timing
          ~rng:(Pimcomp.Rng.create ~seed:42) table ~core_count
          ~max_node_num_in_core:16 ())
  in
  Fmt.pr
    "GA mapping-stage throughput on %s@%d, population %d, %d iterations,@.\
     seed 42.  Incremental and Full must agree bit-for-bit.@.@."
    (fst net) (snd net) params.Pimcomp.Genetic.population
    params.Pimcomp.Genetic.iterations;
  Fmt.pr "%-4s %-12s | %9s %12s %12s | %18s@." "mode" "evaluation" "wall s"
    "evals" "evals/s" "best fitness";
  let rate (r : Pimcomp.Genetic.result) s =
    float_of_int r.Pimcomp.Genetic.evaluations /. s
  in
  let modes =
    List.map
      (fun mode ->
        let full, full_s = run Pimcomp.Genetic.Full mode in
        let inc, inc_s = run Pimcomp.Genetic.Incremental mode in
        let line label (r : Pimcomp.Genetic.result) s =
          Fmt.pr "%-4s %-12s | %9.2f %12d %12.0f | %18.6g@."
            (Pimcomp.Mode.to_string mode)
            label s r.Pimcomp.Genetic.evaluations (rate r s)
            r.Pimcomp.Genetic.best_fitness
        in
        line "full" full full_s;
        line "incremental" inc inc_s;
        let identical =
          full.Pimcomp.Genetic.best_fitness = inc.Pimcomp.Genetic.best_fitness
          && full.Pimcomp.Genetic.history = inc.Pimcomp.Genetic.history
        in
        Fmt.pr "%-4s speedup %.2fx, trajectories %s@.@."
          (Pimcomp.Mode.to_string mode)
          (full_s /. inc_s)
          (if identical then "identical" else "DIVERGED");
        J.Obj
          [
            ("mode", J.String (Pimcomp.Mode.to_string mode));
            ("full_seconds", J.Float full_s);
            ("incremental_seconds", J.Float inc_s);
            ("evaluations", J.Int inc.Pimcomp.Genetic.evaluations);
            ("full_evals_per_sec", J.Float (rate full full_s));
            ("incremental_evals_per_sec", J.Float (rate inc inc_s));
            ("speedup", J.Float (full_s /. inc_s));
            ("best_fitness", J.Float inc.Pimcomp.Genetic.best_fitness);
            check gates "bit_identical" identical
              (Fmt.str "ga: %a incremental and full trajectories diverged"
                 Pimcomp.Mode.pp mode);
          ])
      Pimcomp.Mode.all
  in
  (* Island model vs single population at the same budget.  Curves are
     (wall seconds, generations, best fitness) triples sampled at every
     migration batch (and the matching generations of the single run). *)
  let island = Pimcomp.Genetic.default_island_params in
  let domains_par = max 2 (Pimutil.Domain_pool.default_domains ()) in
  let interval = island.Pimcomp.Genetic.migration_interval in
  (* [optimize]'s result, wall time and curve, sampled every [every]
     generations *)
  let with_curve ~every optimize =
    let t0 = Unix.gettimeofday () in
    let curve = ref [] in
    let progress ~generations ~best =
      if generations mod every = 0 then
        curve := (Unix.gettimeofday () -. t0, generations, best) :: !curve
    in
    let r = optimize ~progress ~rng:(Pimcomp.Rng.create ~seed:42) in
    (r, Unix.gettimeofday () -. t0, List.rev !curve)
  in
  let run_single_curve mode =
    with_curve ~every:interval (fun ~progress ~rng ->
        Pimcomp.Genetic.optimize ~params ~progress ~mode ~timing ~rng table
          ~core_count ~max_node_num_in_core:16 ())
  in
  let run_island ~domains mode =
    with_curve ~every:1 (fun ~progress ~rng ->
        Pimcomp.Genetic.optimize_islands ~params
          ~island:{ island with Pimcomp.Genetic.domains = Some domains }
          ~progress ~mode ~timing ~rng table ~core_count
          ~max_node_num_in_core:16 ())
  in
  Fmt.pr
    "Island model: %d islands, migrate top %d over the ring every %d@.\
     generations, same seed and budget as the single population above.@.@."
    island.Pimcomp.Genetic.islands island.Pimcomp.Genetic.migration_size
    interval;
  Fmt.pr "%-4s %-14s | %9s %12s | %18s@." "mode" "variant" "wall s" "evals"
    "best fitness";
  let curve_json curve =
    J.List
      (List.map
         (fun (t, g, best) -> J.List [ J.Float t; J.Int g; J.Float best ])
         curve)
  in
  let island_modes =
    List.map
      (fun mode ->
        let single, single_s, single_curve = run_single_curve mode in
        let seq, seq_s, _ = run_island ~domains:1 mode in
        let par, par_s, par_curve = run_island ~domains:domains_par mode in
        let identical =
          seq.Pimcomp.Genetic.best_fitness = par.Pimcomp.Genetic.best_fitness
          && seq.Pimcomp.Genetic.history = par.Pimcomp.Genetic.history
        in
        let equal_or_better =
          par.Pimcomp.Genetic.best_fitness
          <= single.Pimcomp.Genetic.best_fitness
        in
        let line label (r : Pimcomp.Genetic.result) s =
          Fmt.pr "%-4s %-14s | %9.2f %12d | %18.6g@."
            (Pimcomp.Mode.to_string mode)
            label s r.Pimcomp.Genetic.evaluations
            r.Pimcomp.Genetic.best_fitness
        in
        line "single" single single_s;
        line "islands d=1" seq seq_s;
        line (Fmt.str "islands d=%d" domains_par) par par_s;
        Fmt.pr "%-4s parallel speedup %.2fx, domain counts %s, islands %s@.@."
          (Pimcomp.Mode.to_string mode)
          (seq_s /. par_s)
          (if identical then "bit-identical" else "DIVERGED")
          (if equal_or_better then "equal-or-better" else "worse than single");
        J.Obj
          [
            ("mode", J.String (Pimcomp.Mode.to_string mode));
            ("single_seconds", J.Float single_s);
            ("single_best", J.Float single.Pimcomp.Genetic.best_fitness);
            ("single_evaluations", J.Int single.Pimcomp.Genetic.evaluations);
            ("island_seq_seconds", J.Float seq_s);
            ("island_par_seconds", J.Float par_s);
            ("parallel_speedup", J.Float (seq_s /. par_s));
            ("island_best", J.Float par.Pimcomp.Genetic.best_fitness);
            ("island_evaluations", J.Int par.Pimcomp.Genetic.evaluations);
            check gates "bit_identical_across_domains" identical
              (Fmt.str "ga: %a island runs diverged between 1 and %d domains"
                 Pimcomp.Mode.pp mode domains_par);
            ("island_equal_or_better", J.Bool equal_or_better);
            ("single_curve", curve_json single_curve);
            ("island_curve", curve_json par_curve);
          ])
      Pimcomp.Mode.all
  in
  [
    ("network", J.String (fst net));
    ("input_size", J.Int (snd net));
    ("population", J.Int params.Pimcomp.Genetic.population);
    ("iterations", J.Int params.Pimcomp.Genetic.iterations);
    ("seed", J.Int 42);
    ("modes", J.List modes);
    ( "islands",
      J.Obj
        [
          ("islands", J.Int island.Pimcomp.Genetic.islands);
          ("migration_interval", J.Int interval);
          ("migration_size", J.Int island.Pimcomp.Genetic.migration_size);
          ("domains", J.Int domains_par);
          ("modes", J.List island_modes);
        ] );
  ]

(* --- compile cache -------------------------------------------------------------- *)

(* Measures the content-addressed artifact cache end to end:

     cold     Compile.compile_program on an empty cache (full pipeline,
              then atomic store) with the serving default options — the
              paper-parameter GA
     hit      the same request on a freshly opened handle, whose first
              load of the entry runs every check (container load +
              checksum + unmarshal + full Verify.run); best of 3, a new
              handle each time
     recalled the request again on a handle that has verified the entry,
              answered from its record; best of 3

   Each hit is timed together with the Lazy.force of its program, so
   a recalled hit pays its deferred decode inside the timer.  Every
   loaded program must be bit-identical to the freshly compiled one;
   the bar of a first hit >= 10x faster than cold for every zoo network
   is reported, not enforced, since wall-clock ratios near the bar
   swing with host noise.  A second table checks bit-identity of
   store/load round-trips across zoo x {HT, LL} x all allocators
   (PUMA-like mapping — the identity sweep is about the artifact path,
   not GA time), and an eviction smoke run checks that the LRU budget
   keeps the newest entry servable.  Results
   land in BENCH_CACHE.json; the tiny size runs two small networks with
   a small GA. *)
let cache_bench ~tiny gates =
  let nets =
    if tiny then
      [ ("tiny", Nnir.Zoo.min_input_size "tiny");
        ("mlp", Nnir.Zoo.min_input_size "mlp") ]
    else
      List.map
        (fun name -> (name, Nnir.Zoo.scaled_input_size ~factor:4 name))
        Nnir.Zoo.names
  in
  let options =
    if tiny then
      {
        Pimcomp.Compile.default_options with
        strategy =
          Pimcomp.Compile.Genetic_algorithm
            {
              Pimcomp.Genetic.default_params with
              population = 16;
              iterations = 20;
              patience = Some 5;
            };
      }
    else Pimcomp.Compile.default_options
  in
  (* The cache lives under the system temp dir so `dune runtest`
     sandboxes aren't polluted; everything is removed at the end. *)
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "pimcomp-bench-cache.%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun d ->
          let d = Filename.concat root d in
          if Sys.is_directory d then rm_rf d)
        (Sys.readdir root);
      rm_rf root)
  @@ fun () ->
  let cache = Pimcomp.Cache.open_dir (Filename.concat root "main") in
  Fmt.pr
    "Content-addressed compile cache: cold compile+store vs first (verified) \
     and recalled hits@.\
     (default serving options, best of 3 each, bar: first hit >= 10x per \
     network).@.@.";
  Fmt.pr "%-14s | %10s %10s %10s | %8s | %9s | %s@." "network" "cold s"
    "hit s" "recall s" "speedup" "bytes" "identical";
  let rows =
    List.map
      (fun net ->
        let g = graph_of net in
        let cold =
          Pimcomp.Compile.compile_program ~options ~cache hw g
        in
        let key =
          match cold.Pimcomp.Compile.origin with
          | Cache_miss { key; _ } -> key
          | Cache_off _ | Cache_hit _ -> assert false
        in
        (* What a caller gets: the served program, forced. *)
        let hit cache =
          let served = Pimcomp.Compile.compile_program ~options ~cache hw g in
          assert (
            Pimcomp.Compile.outcome_name served.Pimcomp.Compile.origin = "hit");
          Lazy.force served.Pimcomp.Compile.program
        in
        let first, hit_s =
          best_of ~reps:3 (fun () ->
              hit (Pimcomp.Cache.open_dir (Pimcomp.Cache.dir cache)))
        in
        let recalled () = (Pimcomp.Cache.stats cache).Pimcomp.Cache.recalled in
        let before = recalled () in
        ignore (hit cache);
        let recalled_program, recall_s =
          best_of ~reps:3 (fun () -> hit cache)
        in
        let three_recalled = recalled () - before = 3 in
        (* Bit-identity over the whole Isa.t: instructions, deps, tags,
           memory accounting and mem_trace — structural equality covers
           every field. *)
        let cold_program = Lazy.force cold.Pimcomp.Compile.program in
        let identical =
          first = cold_program && recalled_program = cold_program
        in
        let entry_bytes =
          match
            List.find_opt
              (fun (k, _, _, _) -> k = key)
              (Pimcomp.Cache.list cache)
          with
          | Some (_, _, bytes, _) -> bytes
          | None -> 0
        in
        let cold_s = cold.Pimcomp.Compile.seconds in
        Fmt.pr "%-14s | %10.3f %10.4f %10.4f | %7.1fx | %9d | %b@." (fst net)
          cold_s hit_s recall_s (cold_s /. hit_s) entry_bytes identical;
        ( cold_s /. hit_s >= 10.0,
          identical,
          J.Obj
            [
              ("network", J.String (fst net));
              ("cold_seconds", J.Float cold_s);
              ("hit_seconds", J.Float hit_s);
              ("recalled_seconds", J.Float recall_s);
              ("speedup", J.Float (cold_s /. hit_s));
              ("entry_bytes", J.Int entry_bytes);
              check gates "bit_identical" identical
                (Fmt.str "cache: %s hit differs from the fresh compile"
                   (fst net));
              check gates "three_recalled" three_recalled
                (Fmt.str "cache: %s: expected 3 recalled hits" (fst net));
            ] ))
      nets
  in
  let all_over_10x = List.for_all (fun (over, _, _) -> over) rows in
  let all_identical = List.for_all (fun (_, same, _) -> same) rows in
  Fmt.pr "@.every network >= 10x: %b   every hit bit-identical: %b@."
    all_over_10x all_identical;
  (* Identity sweep: store/load round-trips across zoo x mode x
     allocator with the PUMA-like mapping (the artifact and verify path
     is what's under test; GA time would only slow the sweep down). *)
  let allocators =
    [ Pimcomp.Memalloc.Naive; Pimcomp.Memalloc.Add_reuse;
      Pimcomp.Memalloc.Ag_reuse ]
  in
  let identity_cache =
    Pimcomp.Cache.open_dir (Filename.concat root "identity")
  in
  let identity_points = ref 0 and identity_failures = ref 0 in
  List.iter
    (fun net ->
      let g = graph_of net in
      List.iter
        (fun mode ->
          List.iter
            (fun allocator ->
              let options =
                {
                  Pimcomp.Compile.default_options with
                  mode;
                  allocator;
                  strategy = puma;
                }
              in
              let fresh = Pimcomp.Compile.compile ~options hw g in
              let key = Pimcomp.Compile.cache_key ~options hw g in
              Pimcomp.Cache.store identity_cache ~key
                fresh.Pimcomp.Compile.program;
              incr identity_points;
              match
                Pimcomp.Cache.find identity_cache ~key ~graph:g ~config:hw ()
              with
              | Some loaded
                when loaded = fresh.Pimcomp.Compile.program ->
                  ()
              | Some _ | None ->
                  incr identity_failures;
                  Fmt.epr "identity FAILED: %s %s %s@." (fst net)
                    (Pimcomp.Mode.to_string mode)
                    (Pimcomp.Memalloc.strategy_name allocator))
            allocators)
        Pimcomp.Mode.all)
    nets;
  Fmt.pr
    "identity sweep: %d points (zoo x mode x allocator), %d failures@."
    !identity_points !identity_failures;
  (* Eviction smoke: a 1-byte budget forces every store to evict all
     older entries; the newest must survive and stay servable. *)
  let evict_cache =
    Pimcomp.Cache.open_dir ~max_bytes:1 (Filename.concat root "evict")
  in
  let evict_nets =
    match nets with a :: b :: _ -> [ a; b; a ] | _ -> assert false
  in
  let last_net = List.nth evict_nets (List.length evict_nets - 1) in
  List.iter
    (fun net ->
      let g = graph_of net in
      let options = { options with strategy = puma } in
      let key = Pimcomp.Compile.cache_key ~options hw g in
      let r = Pimcomp.Compile.compile ~options hw g in
      Pimcomp.Cache.store evict_cache ~key r.Pimcomp.Compile.program)
    evict_nets;
  let evict_stats = Pimcomp.Cache.stats evict_cache in
  let survivor_served =
    let g = graph_of last_net in
    let options = { options with strategy = puma } in
    let key = Pimcomp.Compile.cache_key ~options hw g in
    Pimcomp.Cache.find evict_cache ~key ~graph:g ~config:hw () <> None
  in
  Fmt.pr
    "eviction smoke: %d stores under a 1-byte budget -> %d evictions, %d \
     entries, newest servable: %b@."
    (List.length evict_nets) evict_stats.Pimcomp.Cache.evictions
    evict_stats.Pimcomp.Cache.entries survivor_served;
  let stats = Pimcomp.Cache.stats cache in
  [
    ("tiny", J.Bool tiny);
    ("networks", J.List (List.map (fun (_, _, row) -> row) rows));
    ("all_hits_over_10x", J.Bool all_over_10x);
    ("all_hits_bit_identical", J.Bool all_identical);
    ( "identity_sweep",
      J.Obj
        [
          ("points", J.Int !identity_points);
          ("failures", J.Int !identity_failures);
          check gates "bit_identical" (!identity_failures = 0)
            (Fmt.str "cache: %d identity-sweep round trips failed"
               !identity_failures);
        ] );
    ( "eviction",
      J.Obj
        [
          ("stores", J.Int (List.length evict_nets));
          ("evictions", J.Int evict_stats.Pimcomp.Cache.evictions);
          ("entries", J.Int evict_stats.Pimcomp.Cache.entries);
          check gates "newest_servable" survivor_served
            "cache: the newest entry did not survive eviction";
        ] );
    ( "stats",
      J.Obj
        [
          ("hits", J.Int stats.Pimcomp.Cache.hits);
          ("recalled", J.Int stats.Pimcomp.Cache.recalled);
          ("misses", J.Int stats.Pimcomp.Cache.misses);
          ("rejected", J.Int stats.Pimcomp.Cache.rejected);
          ("evictions", J.Int stats.Pimcomp.Cache.evictions);
          ("entries", J.Int stats.Pimcomp.Cache.entries);
          ("bytes", J.Int stats.Pimcomp.Cache.bytes);
        ] );
  ]

(* --- synth ------------------------------------------------------------------- *)

(* Design-space synthesis throughput: candidates/sec with pruning +
   memoisation vs the naive evaluate-everything baseline, frontier
   non-domination, and bit-identity of the frontier across evaluator
   domain counts.  Results land in BENCH_SYNTH.json, whose frontier and
   search stats are `pimcomp synth --json`'s; the tiny size shrinks the
   grid and networks. *)
let synth_bench ~tiny gates =
  let synth_networks =
    if tiny then
      [|
        ("tiny", Nnir.Zoo.build ~input_size:8 "tiny");
        ("mlp", Nnir.Zoo.build "mlp");
      |]
    else
      [|
        ("squeezenet", Nnir.Zoo.build ~input_size:56 "squeezenet");
        ("resnet18", Nnir.Zoo.build ~input_size:56 "resnet18");
      |]
  in
  let axes =
    if tiny then
      {
        Pimhw.Design_space.xbar_size_axis = [ 64; 128 ];
        xbars_per_core_axis = [ 8; 16 ];
        core_count_axis = [ 4; 9 ];
        local_memory_kb_axis = [ 32; 64 ];
        vfus_per_core_axis = [ 12 ];
      }
    else
      {
        Pimhw.Design_space.xbar_size_axis = [ 64; 128; 256 ];
        xbars_per_core_axis = [ 32; 64 ];
        core_count_axis = [ 16; 36 ];
        local_memory_kb_axis = [ 64; 128 ];
        vfus_per_core_axis = [ 12 ];
      }
  in
  let params which =
    {
      Pimcomp.Synth.default_params with
      generations = 4;
      children = 12;
      prune = (which = `Pruned);
      memoise = (which = `Pruned);
    }
  in
  let search ~domains which =
    let pool = Pimcomp.Sched_common.warm_pool (Some domains) in
    Fun.protect
      ~finally:(fun () -> Pimutil.Domain_pool.Persistent.shutdown pool)
      (fun () ->
        (* so that no search pays for the previous one's garbage *)
        Gc.full_major ();
        Pimcomp.Synth.run ~params:(params which) ~axes
          ~networks:synth_networks
          ~eval:
            (Pimsim.Synth_eval.evaluator ~pool ~networks:synth_networks ())
          ())
  in
  Fmt.pr "Grid: %d points over 5 axes; %d + 4x12 candidates; networks: %s@."
    (Pimhw.Design_space.cardinality axes)
    (Pimhw.Design_space.cardinality axes)
    (String.concat ", "
       (Array.to_list (Array.map fst synth_networks)));
  (* Pruned + memoised search against the naive baseline (no
     pre-filters, no memo — every candidate pays a full compile+simulate,
     duplicates included), interleaved and best of 3 each, so transient
     host load hits both sides rather than one. *)
  let runs =
    List.init 3 (fun _ ->
        let pruned = search ~domains:1 `Pruned in
        (pruned, search ~domains:1 `Naive))
  in
  let fastest results =
    List.fold_left
      (fun (a : Pimcomp.Synth.result) (b : Pimcomp.Synth.result) ->
        if
          b.Pimcomp.Synth.stats.Pimcomp.Synth.wall_seconds
          < a.Pimcomp.Synth.stats.Pimcomp.Synth.wall_seconds
        then b
        else a)
      (List.hd results) (List.tl results)
  in
  let pruned = fastest (List.map fst runs) in
  let naive = fastest (List.map snd runs) in
  let repeatable =
    List.for_all
      (fun ((p : Pimcomp.Synth.result), _) ->
        p.Pimcomp.Synth.frontier = pruned.Pimcomp.Synth.frontier)
      runs
  in
  (* Determinism across domain counts. *)
  let many_domains = max 2 (Pimutil.Domain_pool.default_domains ()) in
  let multi = search ~domains:many_domains `Pruned in
  let frontier = pruned.Pimcomp.Synth.frontier in
  Fmt.pr "@.Pareto frontier (%d points):@.%a" (List.length frontier)
    Pimcomp.Synth.pp_frontier frontier;
  let ps = pruned.Pimcomp.Synth.stats and ns = naive.Pimcomp.Synth.stats in
  let pruned_rate = Pimcomp.Synth.candidates_per_sec ps
  and naive_rate = Pimcomp.Synth.candidates_per_sec ns in
  let speedup = pruned_rate /. naive_rate in
  let deterministic = frontier = multi.Pimcomp.Synth.frontier in
  Fmt.pr
    "@.pruned+memoised: %d considered, %d evaluated (%d jobs), %d memo \
     hits, %d pruned, %.2f s -> %.1f candidates/s@."
    ps.Pimcomp.Synth.considered ps.Pimcomp.Synth.evaluated
    ps.Pimcomp.Synth.eval_jobs ps.Pimcomp.Synth.memo_hits
    (ps.Pimcomp.Synth.pruned_capacity + ps.Pimcomp.Synth.pruned_area)
    ps.Pimcomp.Synth.wall_seconds pruned_rate;
  Fmt.pr
    "naive baseline: %d considered, %d evaluated (%d jobs), %d infeasible \
     compiles, %.2f s -> %.1f candidates/s@."
    ns.Pimcomp.Synth.considered ns.Pimcomp.Synth.evaluated
    ns.Pimcomp.Synth.eval_jobs ns.Pimcomp.Synth.infeasible
    ns.Pimcomp.Synth.wall_seconds naive_rate;
  Fmt.pr "search-throughput speedup: %.2fx (gate: >= 2x)@." speedup;
  Fmt.pr
    "frontier identical for 1 vs %d domains: %b  (the CI host is \
     effectively 1-core, so the multi-domain run is about determinism, \
     not speed)@."
    many_domains deterministic;
  (* Frontier sanity: every point pairwise non-dominated. *)
  let non_dominated =
    List.for_all
      (fun (a : Pimcomp.Synth.frontier_point) ->
        List.for_all
          (fun (b : Pimcomp.Synth.frontier_point) ->
            a == b
            || not
                 (Pimcomp.Synth.dominates b.Pimcomp.Synth.objectives
                    a.Pimcomp.Synth.objectives))
          frontier)
      frontier
  in
  let invariant = frontier = naive.Pimcomp.Synth.frontier in
  let ints l = J.List (List.map (fun i -> J.Int i) l) in
  [
    ("tiny", J.Bool tiny);
    ( "networks",
      J.List
        (Array.to_list (Array.map (fun (n, _) -> J.String n) synth_networks))
    );
    ("grid_points", J.Int (Pimhw.Design_space.cardinality axes));
    ( "axes",
      J.Obj
        [
          ("xbar_sizes", ints axes.Pimhw.Design_space.xbar_size_axis);
          ("xbars_per_core", ints axes.Pimhw.Design_space.xbars_per_core_axis);
          ("core_counts", ints axes.Pimhw.Design_space.core_count_axis);
          ( "local_memory_kb",
            ints axes.Pimhw.Design_space.local_memory_kb_axis );
          ("vfus_per_core", ints axes.Pimhw.Design_space.vfus_per_core_axis);
        ] );
    ("frontier", Pimcomp.Synth.frontier_json frontier);
    ("pruned", Pimcomp.Synth.stats_json ps);
    ("naive", Pimcomp.Synth.stats_json ns);
    ("speedup", J.Float speedup);
    check gates "repeat_runs_identical" repeatable
      "synth: same seed produced two different frontiers";
    check gates "frontier_nonempty" (frontier <> []) "synth: empty frontier";
    check gates "frontier_non_dominated" non_dominated
      "synth: frontier contains a dominated point";
    check gates "deterministic_across_domains" deterministic
      (Fmt.str "synth: frontier differs between 1 and %d domains"
         many_domains);
    check gates "prune_memoise_invariant" invariant
      "synth: pruning/memoisation changed the frontier";
    check gates "meets_2x" (speedup >= 2.0)
      (Fmt.str "synth: pruning+memoisation speedup %.2fx below the 2x gate"
         speedup);
    ("domain_counts", ints [ 1; many_domains ]);
    ( "note",
      J.String
        "CI host is effectively 1-core: the multi-domain run asserts \
         determinism, not speed" );
  ]

(* --- lifetime allocator ------------------------------------------------------
   The lifetime buffer-placement optimiser (DESIGN.md §lifetime) against
   the paper's AG-reuse discipline: per-network resident footprints in
   both dataflow modes, bit-identical simulation when no spills are
   planned, and a deliberately undersized scratchpad that the legacy
   disciplines reject outright but lifetime compiles to a valid spilling
   program.  Results land in BENCH_ALLOC.json; the tiny size runs two
   small networks. *)
let alloc_bench ~tiny gates =
  let nets =
    if tiny then
      [ ("tiny", 16); ("lenet", Nnir.Zoo.min_input_size "lenet") ]
    else networks
  in
  let parallelism = Pimsim.Engine.default_parallelism in
  let compile_with allocator mode net =
    let options =
      {
        Pimcomp.Compile.default_options with
        mode;
        parallelism;
        allocator;
        strategy = puma;
      }
    in
    (Pimcomp.Compile.compile ~options hw (graph_of net)).Pimcomp.Compile
      .program
  in
  let resident (p : Pimcomp.Isa.t) =
    let peaks = p.Pimcomp.Isa.memory.Pimcomp.Isa.local_resident_peak_bytes in
    (Array.fold_left max 0 peaks, Array.fold_left ( + ) 0 peaks)
  in
  let rows =
    List.concat_map
      (fun net ->
        List.map
          (fun mode ->
            let ag = compile_with Pimcomp.Memalloc.Ag_reuse mode net in
            let lt = compile_with Pimcomp.Memalloc.Lifetime mode net in
            let ag_max, ag_sum = resident ag in
            let lt_max, lt_sum = resident lt in
            let ag_spill = ag.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes in
            let lt_spill = lt.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes in
            let label =
              Fmt.str "%s %s" (fst net) (Pimcomp.Mode.to_string mode)
            in
            (* with no planned spills the lifetime emission is the same
               instruction stream, so the simulated timing and energy
               must be bit-identical *)
            let sim_identical =
              if ag_spill = 0 && lt_spill = 0 then begin
                let run p = Pimsim.Engine.run ~parallelism hw p in
                let ma = run ag and ml = run lt in
                Some
                  (ma.Pimsim.Metrics.makespan_ns = ml.Pimsim.Metrics.makespan_ns
                  && Pimsim.Metrics.total_pj ma.Pimsim.Metrics.energy
                     = Pimsim.Metrics.total_pj ml.Pimsim.Metrics.energy)
              end
              else None
            in
            let reduced = lt_max < ag_max || lt_sum < ag_sum in
            Fmt.pr
              "%-14s %s  ag(max %6d  sum %8d  spill %8d)  lt(max %6d  sum \
               %8d  spill %8d)%s@."
              (fst net)
              (Pimcomp.Mode.to_string mode)
              ag_max ag_sum ag_spill lt_max lt_sum lt_spill
              (if sim_identical = Some true then "  sim-identical" else "");
            ( reduced,
              J.Obj
                [
                  ("network", J.String (fst net));
                  ("mode", J.String (Pimcomp.Mode.to_string mode));
                  ("ag_resident_max", J.Int ag_max);
                  ("ag_resident_sum", J.Int ag_sum);
                  ("ag_spill", J.Int ag_spill);
                  ("lifetime_resident_max", J.Int lt_max);
                  ("lifetime_resident_sum", J.Int lt_sum);
                  ("lifetime_spill", J.Int lt_spill);
                  ("reduced", J.Bool reduced);
                  check gates "within_ag_reuse"
                    (lt_max <= ag_max && lt_sum <= ag_sum)
                    (Fmt.str
                       "alloc: lifetime footprint above AG-reuse on %s (max \
                        %d vs %d, sum %d vs %d)"
                       label lt_max ag_max lt_sum ag_sum);
                  (match sim_identical with
                  | Some same ->
                      check gates "sim_identical" same
                        (Fmt.str
                           "alloc: spill-free lifetime program simulates \
                            differently on %s"
                           label)
                  | None -> ("sim_identical", J.Null));
                ] ))
          [ Pimcomp.Mode.High_throughput; Pimcomp.Mode.Low_latency ])
      nets
  in
  let reduced = List.length (List.filter fst rows) in
  let total = List.length rows in
  (* An HT scratchpad smaller than the largest single request: the
     legacy disciplines raise Doesnt_fit, the lifetime planner streams
     the oversized buffers through global memory instead. *)
  let tight_bytes = 4096 in
  let tight_hw = { hw with Pimhw.Config.local_memory_bytes = tight_bytes } in
  let tight_name = "squeezenet" in
  let tight_graph =
    Nnir.Zoo.build tight_name
      ~input_size:(Nnir.Zoo.min_input_size tight_name)
  in
  let tight_options allocator =
    {
      Pimcomp.Compile.default_options with
      mode = Pimcomp.Mode.High_throughput;
      parallelism;
      allocator;
      strategy = puma;
    }
  in
  let legacy_rejected =
    match
      Pimcomp.Compile.compile
        ~options:(tight_options Pimcomp.Memalloc.Ag_reuse)
        tight_hw tight_graph
    with
    | _ -> false
    | exception Pimcomp.Memalloc.Doesnt_fit _ -> true
  in
  let tight =
    Pimcomp.Compile.compile
      ~options:(tight_options Pimcomp.Memalloc.Lifetime)
      tight_hw tight_graph
  in
  let tp = tight.Pimcomp.Compile.program in
  let tight_verified =
    Pimcomp.Verify.run ~graph:tight_graph ~config:tight_hw tp = []
  in
  let tight_max, _ = resident tp in
  let tight_spill = tp.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes in
  let tight_metrics = Pimsim.Engine.run ~parallelism tight_hw tp in
  Fmt.pr
    "tight %s @@ %dB: spill %d B, resident max %d B, makespan %.2f us, \
     verified %b@."
    tight_name tight_bytes tight_spill tight_max
    (tight_metrics.Pimsim.Metrics.makespan_ns /. 1e3)
    tight_verified;
  [
    ("tiny", J.Bool tiny);
    ("rows", J.List (List.map snd rows));
    ("rows_reduced", J.Int reduced);
    ("rows_total", J.Int total);
    check gates "reduced_at_least_half" (2 * reduced >= total)
      (Fmt.str "alloc: lifetime reduced the footprint on only %d/%d rows"
         reduced total);
    ( "tight",
      J.Obj
        [
          ("network", J.String tight_name);
          ("local_memory_bytes", J.Int tight_bytes);
          ( "legacy",
            J.String (if legacy_rejected then "doesnt-fit" else "fits") );
          check gates "legacy_rejected" legacy_rejected
            "alloc: expected the tight scratchpad to reject AG-reuse";
          ("lifetime_spill", J.Int tight_spill);
          ("resident_max", J.Int tight_max);
          check gates "verified" tight_verified
            "alloc: tight-memory lifetime program failed verification";
          check gates "resident_fits" (tight_max <= tight_bytes)
            (Fmt.str "alloc: tight resident peak %d exceeds the %dB scratchpad"
               tight_max tight_bytes);
          check gates "spilled" (tight_spill > 0)
            "alloc: tight-memory program planned no spills";
          check gates "deadlock_free"
            (not tight_metrics.Pimsim.Metrics.deadlocked)
            "alloc: tight-memory program deadlocked in simulation";
          ( "makespan_us",
            J.Float (tight_metrics.Pimsim.Metrics.makespan_ns /. 1e3) );
        ] );
  ]

(* --- streaming batch ----------------------------------------------------------
   The constant-memory streaming engine (Pimsim.Batch.run_stream) against
   materialised replication at a large batch count: wall clock, resident
   state, and exactness.  Materialised replication pays O(batches x n)
   for the replicated program, its arena and its run's state; the stream
   pays O(window x n) and the period detector closes the tail
   analytically once the retirement cadence locks (DESIGN.md §3.9).
   Gates at full size: bit-identity against the materialised oracle at
   N <= 8, the detector fired at N = 256 with the steady interval
   matching the materialised baseline bit-for-bit, and >= 10x on both
   wall clock and resident state.  Results land in BENCH_STREAM.json;
   the tiny size runs the tiny network — whose bursty HT cadence the
   detector correctly refuses to extrapolate, so the detector and speed
   gates are recorded but only the identity and boundedness gates are
   enforced there. *)
let stream_bench ~tiny gates =
  let net =
    if tiny then ("tiny", Nnir.Zoo.min_input_size "tiny")
    else ("resnet18", Nnir.Zoo.min_input_size "resnet18")
  in
  (* Dyadic global-memory bandwidth keeps every per-instruction latency
     a dyadic rational, so the steady-interval comparison is exact
     rather than within float noise (same device as test_stream).
     resnet18 runs at its minimum input size, where the HT retirement
     cadence locks bitwise; at the 1/4-resolution size the cadence
     never repeats exactly and the detector (correctly) refuses. *)
  let hw_s = { hw with Pimhw.Config.global_memory_gbps = 64.0 } in
  let parallelism = Pimsim.Engine.default_parallelism in
  let options =
    {
      Pimcomp.Compile.default_options with
      mode = Pimcomp.Mode.High_throughput;
      parallelism;
      strategy = puma;
    }
  in
  let program =
    (Pimcomp.Compile.compile ~options hw_s (graph_of net)).Pimcomp.Compile
      .program
  in
  let window = Pimsim.Batch.default_window program in
  let big_n = if tiny then 64 else 256 in
  let reps = if tiny then 2 else 3 in
  Fmt.pr
    "Streaming batched simulation on %s@%d HT (PUMA-like mapping, \
     parallelism %d,@.window %d, dyadic memory bandwidth).@.@."
    (fst net) (snd net) parallelism window;
  Fmt.pr "identity vs materialised replication (window 0, detector off):@.";
  let identity =
    List.map
      (fun n ->
        let mat = Pimsim.Batch.run ~parallelism hw_s program ~batches:n in
        let st, _ =
          Pimsim.Batch.run_stream ~parallelism ~window:0 ~detect:false hw_s
            program ~batches:n
        in
        let identical = st = mat in
        Fmt.pr "  N=%-3d %s@." n
          (if identical then "bit-identical" else "DIVERGED");
        ( identical,
          J.Obj [ ("batches", J.Int n); ("bit_identical", J.Bool identical) ]
        ))
      [ 1; 2; 4; 8 ]
  in
  let mat_big, mat_s =
    best_of ~reps (fun () ->
        Pimsim.Batch.run ~parallelism hw_s program ~batches:big_n)
  in
  let (stream_big, stats), stream_s =
    best_of ~reps (fun () ->
        Pimsim.Batch.run_stream ~parallelism hw_s program ~batches:big_n)
  in
  (* Resident state: what each path must hold live to simulate N
     instances — the replicated program, its arena and the run state of
     its one simulation on one side, the single-instance arena plus the
     O(window x n) streaming run state on the other. *)
  let mat_words =
    let rep = Pimsim.Batch.replicate program ~batches:big_n in
    let arena = Pimsim.Engine.arena ~parallelism hw_s rep in
    let _, run = Pimsim.Engine.stream ~window:0 ~batches:1 arena in
    Obj.reachable_words (Obj.repr (rep, arena)) + run.Pimsim.Engine.state_words
  in
  let stream_words =
    Obj.reachable_words
      (Obj.repr (Pimsim.Engine.arena ~parallelism hw_s program))
    + stats.Pimsim.Engine.state_words
  in
  let wall_speedup = mat_s /. stream_s in
  let mem_ratio = float_of_int mat_words /. float_of_int stream_words in
  let fired = stats.Pimsim.Engine.fired_at <> None in
  let full = not tiny in
  let steady_match =
    stream_big.Pimsim.Batch.steady_interval_ns
    = mat_big.Pimsim.Batch.steady_interval_ns
  in
  Fmt.pr
    "@.N=%d: materialised %.3f s, streamed %.3f s (%.1fx, bar: >= 10x)@."
    big_n mat_s stream_s wall_speedup;
  Fmt.pr
    "resident state: materialised %d words, streamed %d words (%.1fx, bar: \
     >= 10x)@."
    mat_words stream_words mem_ratio;
  Fmt.pr
    "detector: fired %b (at instance %s), %d simulated + %d extrapolated, \
     peak %d/%d slots@."
    fired
    (match stats.Pimsim.Engine.fired_at with
    | Some k -> string_of_int k
    | None -> "-")
    stats.Pimsim.Engine.simulated_instances
    stats.Pimsim.Engine.extrapolated_instances stats.Pimsim.Engine.peak_slots
    window;
  Fmt.pr
    "steady interval: streamed %.6f ns vs materialised %.6f ns (%s)@."
    stream_big.Pimsim.Batch.steady_interval_ns
    mat_big.Pimsim.Batch.steady_interval_ns
    (if steady_match then "exact" else "DIVERGED");
  let opt_int = function Some k -> J.Int k | None -> J.Null in
  [
    ("tiny", J.Bool tiny);
    ("network", J.String (fst net));
    ("input_size", J.Int (snd net));
    ("parallelism", J.Int parallelism);
    ("window", J.Int window);
    ("batches", J.Int big_n);
    ("identity", J.List (List.map snd identity));
    check gates "all_identical"
      (List.for_all fst identity)
      "stream: streamed result diverged from materialised replication at \
       small N";
    ("materialised_seconds", J.Float mat_s);
    ("stream_seconds", J.Float stream_s);
    ("wall_speedup", J.Float wall_speedup);
    ("materialised_words", J.Int mat_words);
    ("stream_words", J.Int stream_words);
    ("memory_ratio", J.Float mem_ratio);
    check gates ~enforced:full "fired" fired
      (Fmt.str "stream: period detector did not fire at N=%d" big_n);
    ("fired_at", opt_int stats.Pimsim.Engine.fired_at);
    ("simulated_instances", J.Int stats.Pimsim.Engine.simulated_instances);
    ( "extrapolated_instances",
      J.Int stats.Pimsim.Engine.extrapolated_instances );
    ("peak_slots", J.Int stats.Pimsim.Engine.peak_slots);
    check gates "window_bounded"
      (window = 0 || stats.Pimsim.Engine.peak_slots <= window)
      (Fmt.str "stream: %d slots resident exceeds the %d-instance window"
         stats.Pimsim.Engine.peak_slots window);
    ( "steady_interval_ns",
      J.Obj
        [
          ("stream", J.Float stream_big.Pimsim.Batch.steady_interval_ns);
          ("materialised", J.Float mat_big.Pimsim.Batch.steady_interval_ns);
          check gates ~enforced:full "exact_match" steady_match
            "stream: steady interval diverged from the materialised run";
        ] );
    check gates ~enforced:full "meets_10x_wall" (wall_speedup >= 10.0)
      (Fmt.str "stream: wall-clock speedup %.1fx below the 10x gate"
         wall_speedup);
    check gates ~enforced:full "meets_10x_memory" (mem_ratio >= 10.0)
      (Fmt.str "stream: resident-state ratio %.1fx below the 10x gate"
         mem_ratio);
  ]

(* --- driver ------------------------------------------------------------------- *)

let () =
  let tiny = Sys.getenv_opt "PIMCOMP_SIM_TINY" <> None in
  let sections =
    [
      ("table1", table1);
      ("fig8", fig8);
      ("fig9", fig9);
      ("fig10", fig10);
      ("table2", table2);
      ("ablation", ablation);
      ("ga", suite "BENCH_GA.json" (ga_bench ~tiny));
      ("cache", suite "BENCH_CACHE.json" (cache_bench ~tiny));
      ("batch", batch);
      ("synth", suite "BENCH_SYNTH.json" (synth_bench ~tiny));
      ("alloc", suite "BENCH_ALLOC.json" (alloc_bench ~tiny));
      ("stream", suite "BENCH_STREAM.json" (stream_bench ~tiny));
    ]
  in
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  Fun.protect ~finally:shutdown_sweep_pool @@ fun () ->
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> section name f
      | None ->
          Fmt.epr "unknown section %S (available: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
