(* End-to-end compilation driver (Fig. 3): parse -> node partitioning ->
   weight replicating + core mapping -> dataflow scheduling, with
   per-stage wall-time accounting (the paper's Table II). *)

type mapping_strategy =
  | Genetic_algorithm of Genetic.params
  | Puma_like
  | Random_search of Genetic.params

let mapping_strategy_name = function
  | Genetic_algorithm _ -> "pimcomp-ga"
  | Puma_like -> "puma-like"
  | Random_search _ -> "random-search"

type options = {
  mode : Mode.t;
  parallelism : int;
  core_count : int option;       (* None: fit the network (see Partition) *)
  max_node_num_in_core : int;
  allocator : Memalloc.strategy;
  spill_budget : int option;
      (* cap, in bytes, on deliberate spill traffic the lifetime
         allocator may plan per program; None = unlimited.  Ignored by
         the legacy disciplines, which never plan spills *)
  mvms_per_transfer : int;
  seed : int;
  strategy : mapping_strategy;
  objective : Fitness.objective;
  ga_islands : Genetic.island_params option;
      (* Some -> run the GA as a domain-parallel island model; the
         result only depends on (seed, islands, migration), never on
         the domain count *)
  verify : bool;
      (* statically verify the compiled program (Verify.run) before
         returning it; on by default — the pass costs a small fraction
         of a compile and turns backend bugs into diagnostics instead
         of simulator crashes or silently wrong metrics *)
}

let default_options =
  {
    mode = Mode.High_throughput;
    parallelism = Pimhw.Timing.default_parallelism;
    core_count = None;
    max_node_num_in_core = 16;
    allocator = Memalloc.Ag_reuse;
    spill_budget = None;
    mvms_per_transfer = 2;
    seed = 42;
    strategy = Genetic_algorithm Genetic.default_params;
    objective = Fitness.Minimize_time;
    ga_islands = None;
    verify = true;
  }

type stage_seconds = {
  partitioning : float;
  replicating_mapping : float;
  scheduling : float;
  verification : float;  (* 0 when verification is disabled *)
  total : float;
  total_cpu : float;
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

(* The compiler's own output failed its checks: a bug, never a property
   of the input or of the design point. *)
exception Self_check_failed of string

let () =
  Printexc.register_printer (function
    | Self_check_failed msg -> Some ("Compile.Self_check_failed: " ^ msg)
    | _ -> None)

let compile ?(options = default_options) (config : Pimhw.Config.t)
    (graph : Nnir.Graph.t) =
  Pimhw.Config.validate config;
  let cpu0 = Sys.time () in
  let timing = Pimhw.Timing.create ~parallelism:options.parallelism config in
  (* stage 1: node partitioning *)
  let table, partitioning =
    Pimutil.Clock.timed (fun () -> Partition.of_graph config graph)
  in
  let core_count =
    match options.core_count with
    | Some n -> n
    | None -> max config.Pimhw.Config.core_count (Partition.fit_core_count table)
  in
  (* stage 2: weight replicating + core mapping *)
  let (chromosome, ga), replicating_mapping =
    Pimutil.Clock.timed (fun () ->
        match options.strategy with
        | Genetic_algorithm params ->
            let rng = Rng.create ~seed:options.seed in
            let seeds =
              match
                Puma_baseline.build table ~core_count
                  ~max_node_num_in_core:options.max_node_num_in_core
              with
              | c -> [ c ]
              | exception Chromosome.Infeasible _ -> []
            in
            let result =
              match options.ga_islands with
              | Some island ->
                  Genetic.optimize_islands ~params ~island ~seeds
                    ~objective:options.objective ~mode:options.mode ~timing
                    ~rng table ~core_count
                    ~max_node_num_in_core:options.max_node_num_in_core ()
              | None ->
                  Genetic.optimize ~params ~seeds ~objective:options.objective
                    ~mode:options.mode ~timing ~rng table ~core_count
                    ~max_node_num_in_core:options.max_node_num_in_core ()
            in
            (result.Genetic.best, Some result)
        | Random_search params ->
            let rng = Rng.create ~seed:options.seed in
            let result =
              Genetic.random_search ~params ~objective:options.objective
                ~mode:options.mode ~timing ~rng table ~core_count
                ~max_node_num_in_core:options.max_node_num_in_core ()
            in
            (result.Genetic.best, Some result)
        | Puma_like ->
            ( Puma_baseline.build table ~core_count
                ~max_node_num_in_core:options.max_node_num_in_core,
              None ))
  in
  (match Chromosome.violations chromosome with
  | [] -> ()
  | v :: _ ->
      raise
        (Self_check_failed
           (Fmt.str "mapping violates constraints: %a"
              Chromosome.pp_violation v)));
  let fitness = Fitness.evaluate options.mode timing chromosome in
  (* stage 3: dataflow scheduling *)
  let (layout, program), scheduling =
    Pimutil.Clock.timed (fun () ->
        let layout = Layout.of_chromosome chromosome in
        let program =
          match options.mode with
          | Mode.High_throughput ->
              Schedule_ht.schedule
                ~options:
                  {
                    Schedule_ht.mvms_per_transfer = options.mvms_per_transfer;
                    strategy = options.allocator;
                    spill_budget = options.spill_budget;
                  }
                layout
          | Mode.Low_latency ->
              Schedule_ll.schedule
                ~options:
                  {
                    Schedule_ll.default_options with
                    strategy = options.allocator;
                    spill_budget = options.spill_budget;
                  }
                layout
        in
        (layout, program))
  in
  (* stage 4: static verification of the compiled stream *)
  let (), verification =
    Pimutil.Clock.timed (fun () ->
        if options.verify then
          match Verify.run ~graph ~config program with
          | [] -> ()
          | vs ->
              raise
                (Self_check_failed
                   (Fmt.str "%s: %a" (Nnir.Graph.name graph) Verify.report
                      vs)))
  in
  {
    graph;
    config;
    options;
    core_count;
    table;
    chromosome;
    layout;
    program;
    fitness;
    ga;
    stage_seconds =
      {
        partitioning;
        replicating_mapping;
        scheduling;
        verification;
        total = partitioning +. replicating_mapping +. scheduling
                +. verification;
        total_cpu = Sys.time () -. cpu0;
      };
  }

(* --- cache keys ------------------------------------------------------------ *)

(* Canonical digest of everything that determines the compiled program.
   The graph contributes the MD5 of its .nnt text (Text_format
   round-trips exactly, so the text is a faithful canonical form);
   options and hardware config contribute every semantically relevant
   field, floats rendered with %h (exact hex).
   Deliberately excluded, with the reasoning on record:

   - options.verify — verification never changes the emitted program,
     and every cache handle verifies an entry on its first load
     regardless;
   - ga_islands.domains — the island GA is bit-identical for any domain
     count (PR 3 contract), so the worker count is not content.

   The rendering itself is made order-independent and injective by
   Cache.digest_fields. *)
let cache_key ?(options = default_options) (config : Pimhw.Config.t) graph =
  let strategy_fields =
    let params_fields prefix (p : Genetic.params) =
      [
        (prefix ^ ".population", string_of_int p.Genetic.population);
        (prefix ^ ".iterations", string_of_int p.Genetic.iterations);
        (prefix ^ ".elite", string_of_int p.Genetic.elite);
        ( prefix ^ ".extra_replica_attempts",
          string_of_int p.Genetic.extra_replica_attempts );
        ( prefix ^ ".patience",
          match p.Genetic.patience with
          | None -> "none"
          | Some n -> string_of_int n );
      ]
    in
    match options.strategy with
    | Genetic_algorithm p -> ("strategy", "ga") :: params_fields "ga" p
    | Random_search p -> ("strategy", "random") :: params_fields "random" p
    | Puma_like -> [ ("strategy", "puma") ]
  in
  let island_fields =
    match options.ga_islands with
    | None -> [ ("islands", "none") ]
    | Some i ->
        [
          ("islands", string_of_int i.Genetic.islands);
          ( "islands.migration_interval",
            string_of_int i.Genetic.migration_interval );
          ("islands.migration_size", string_of_int i.Genetic.migration_size);
        ]
  in
  let f = Fmt.str "%h" in
  let c = config in
  let config_fields =
    [
      ("hw.xbar_rows", string_of_int c.Pimhw.Config.xbar_rows);
      ("hw.xbar_cols", string_of_int c.Pimhw.Config.xbar_cols);
      ("hw.xbars_per_core", string_of_int c.Pimhw.Config.xbars_per_core);
      ("hw.vfus_per_core", string_of_int c.Pimhw.Config.vfus_per_core);
      ("hw.vfu_lanes", string_of_int c.Pimhw.Config.vfu_lanes);
      ("hw.local_memory_bytes", string_of_int c.Pimhw.Config.local_memory_bytes);
      ( "hw.global_memory_bytes",
        string_of_int c.Pimhw.Config.global_memory_bytes );
      ("hw.core_count", string_of_int c.Pimhw.Config.core_count);
      ("hw.flit_bytes", string_of_int c.Pimhw.Config.flit_bytes);
      ( "hw.global_memory_banks",
        string_of_int c.Pimhw.Config.global_memory_banks );
      ("hw.t_mvm_ns", f c.Pimhw.Config.t_mvm_ns);
      ("hw.t_core_cycle_ns", f c.Pimhw.Config.t_core_cycle_ns);
      ("hw.t_hop_ns", f c.Pimhw.Config.t_hop_ns);
      ("hw.t_dram_latency_ns", f c.Pimhw.Config.t_dram_latency_ns);
      ("hw.global_memory_gbps", f c.Pimhw.Config.global_memory_gbps);
      ("hw.pimmu_power_mw", f c.Pimhw.Config.pimmu_power_mw);
      ("hw.vfu_power_mw", f c.Pimhw.Config.vfu_power_mw);
      ("hw.local_memory_power_mw", f c.Pimhw.Config.local_memory_power_mw);
      ("hw.control_power_mw", f c.Pimhw.Config.control_power_mw);
      ("hw.router_power_mw", f c.Pimhw.Config.router_power_mw);
      ("hw.global_memory_power_mw", f c.Pimhw.Config.global_memory_power_mw);
      ( "hw.hyper_transport_power_mw",
        f c.Pimhw.Config.hyper_transport_power_mw );
      ("hw.pimmu_area_mm2", f c.Pimhw.Config.pimmu_area_mm2);
      ("hw.vfu_area_mm2", f c.Pimhw.Config.vfu_area_mm2);
      ("hw.local_memory_area_mm2", f c.Pimhw.Config.local_memory_area_mm2);
      ("hw.control_area_mm2", f c.Pimhw.Config.control_area_mm2);
      ("hw.router_area_mm2", f c.Pimhw.Config.router_area_mm2);
      ("hw.global_memory_area_mm2", f c.Pimhw.Config.global_memory_area_mm2);
      ( "hw.hyper_transport_area_mm2",
        f c.Pimhw.Config.hyper_transport_area_mm2 );
      ("hw.static_fraction", f c.Pimhw.Config.static_fraction);
    ]
  in
  Cache.digest_fields
    ([
       ("format", "pimcomp-cache-key-v4");
       ( "graph.md5",
         Digest.to_hex (Digest.string (Nnir.Text_format.to_string graph)) );
       ("mode", Mode.to_string options.mode);
       ("parallelism", string_of_int options.parallelism);
       ( "core_count",
         match options.core_count with
         | None -> "fit"
         | Some n -> string_of_int n );
       ( "max_node_num_in_core",
         string_of_int options.max_node_num_in_core );
       ("allocator", Memalloc.strategy_name options.allocator);
       ( "spill_budget",
         match options.spill_budget with
         | None -> "unlimited"
         | Some n -> string_of_int n );
       ("mvms_per_transfer", string_of_int options.mvms_per_transfer);
       ("seed", string_of_int options.seed);
       ("objective", Fitness.objective_name options.objective);
     ]
    @ strategy_fields @ island_fields @ config_fields)

(* --- cached program service ------------------------------------------------- *)

type origin =
  | Cache_off of t
  | Cache_miss of { key : string; result : t }
  | Cache_hit of { key : string; mac : Digest.t }

let outcome_name = function
  | Cache_off _ -> "off"
  | Cache_miss _ -> "miss"
  | Cache_hit _ -> "hit"

type served = {
  summary : Cache.summary;
  program : Isa.t Lazy.t;
  origin : origin;
  seconds : float;
}

let compile_program ?(options = default_options) ?cache
    (config : Pimhw.Config.t) graph =
  let compiled (r : t) = (Cache.summary r.program, Lazy.from_val r.program) in
  let ((summary, program), origin), seconds =
    Pimutil.Clock.timed (fun () ->
        match cache with
        | None ->
            let r = compile ~options config graph in
            (compiled r, Cache_off r)
        | Some cache -> (
            let key = cache_key ~options config graph in
            match Cache.lookup cache ~key ~graph ~config () with
            | Some (s, p, mac) -> ((s, p), Cache_hit { key; mac })
            | None ->
                let r = compile ~options config graph in
                Cache.store cache ~key r.program;
                (compiled r, Cache_miss { key; result = r })))
  in
  { summary; program; origin; seconds }

(* --- batch ------------------------------------------------------------------- *)

exception Job_error of { index : int; graph : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Job_error { index; graph; exn } ->
        Some
          (Fmt.str "Compile.batch: job %d (%s) failed: %s" index graph
             (Printexc.to_string exn))
    | _ -> None)

(* Fan independent compiles across OCaml domains.  Every job is pure
   and seeded (the GA RNG comes from options.seed; nothing reads the
   wall clock except the stage timers), so the returned programs,
   chromosomes, and fitness values are bit-identical to a sequential
   run whatever the domain count — only [stage_seconds] varies.  Jobs
   running an island GA ([ga_islands = Some _]) spawn their own inner
   domains; keep [jobs] low in that case to avoid oversubscription.

   A failing job re-raises in the caller wrapped in [Job_error] so a
   whole-zoo sweep names the (index, graph) that broke instead of
   surfacing a bare exception; the original backtrace is preserved on
   the wrapper. *)
let batch ?jobs (config : Pimhw.Config.t) work =
  Pimhw.Config.validate config;
  Pimutil.Domain_pool.map ?domains:jobs
    (fun (index, (graph, options)) ->
      try compile ~options config graph
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Printexc.raise_with_backtrace
          (Job_error { index; graph = Nnir.Graph.name graph; exn = e })
          bt)
    (Array.of_list (List.mapi (fun i job -> (i, job)) work))
  |> Array.to_list
