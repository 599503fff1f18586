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
   options and hardware config contribute every field, floats rendered
   with %h (exact hex).  Each record is taken apart by an exhaustive
   pattern, so a field added to [options], [Genetic.params],
   [Genetic.island_params] or [Pimhw.Config.t] stops this function
   compiling until the key reads it or names it below as excluded.
   Deliberately excluded, with the reasoning on record:

   - options.verify — verification never changes the emitted program,
     and every cache handle verifies an entry on its first load
     regardless;
   - ga_islands.domains — the island GA is bit-identical for any domain
     count (PR 3 contract), so the worker count is not content.

   The rendering itself is made order-independent and injective by
   Cache.digest_fields. *)
let cache_key ?(options = default_options) (config : Pimhw.Config.t) graph =
  let i = string_of_int and f = Fmt.str "%h" in
  let opt none = function None -> none | Some n -> i n in
  let {
    mode; parallelism; core_count; max_node_num_in_core; allocator;
    spill_budget; mvms_per_transfer; seed; strategy; objective; ga_islands;
    verify = _;
  } =
    options
  in
  let params prefix
      { Genetic.population; iterations; elite; extra_replica_attempts; patience }
      =
    [
      (prefix ^ ".population", i population);
      (prefix ^ ".iterations", i iterations);
      (prefix ^ ".elite", i elite);
      (prefix ^ ".extra_replica_attempts", i extra_replica_attempts);
      (prefix ^ ".patience", opt "none" patience);
    ]
  in
  let strategy_fields =
    match strategy with
    | Genetic_algorithm p -> ("strategy", "ga") :: params "ga" p
    | Random_search p -> ("strategy", "random") :: params "random" p
    | Puma_like -> [ ("strategy", "puma") ]
  in
  let island_fields =
    match ga_islands with
    | None -> [ ("islands", "none") ]
    | Some { Genetic.islands; migration_interval; migration_size; domains = _ }
      ->
        [
          ("islands", i islands);
          ("islands.migration_interval", i migration_interval);
          ("islands.migration_size", i migration_size);
        ]
  in
  let option_fields =
    [
      ("format", "pimcomp-cache-key-v4");
      ( "graph.md5",
        Digest.to_hex (Digest.string (Nnir.Text_format.to_string graph)) );
      ("mode", Mode.to_string mode);
      ("parallelism", i parallelism);
      ("core_count", opt "fit" core_count);
      ("max_node_num_in_core", i max_node_num_in_core);
      ("allocator", Memalloc.strategy_name allocator);
      ("spill_budget", opt "unlimited" spill_budget);
      ("mvms_per_transfer", i mvms_per_transfer);
      ("seed", i seed);
      ("objective", Fitness.objective_name objective);
    ]
  in
  let {
    Pimhw.Config.xbar_rows; xbar_cols; xbars_per_core; vfus_per_core;
    vfu_lanes; local_memory_bytes; global_memory_bytes; core_count;
    flit_bytes; global_memory_banks; t_mvm_ns; t_core_cycle_ns; t_hop_ns;
    t_dram_latency_ns; global_memory_gbps; pimmu_power_mw; vfu_power_mw;
    local_memory_power_mw; control_power_mw; router_power_mw;
    global_memory_power_mw; hyper_transport_power_mw; pimmu_area_mm2;
    vfu_area_mm2; local_memory_area_mm2; control_area_mm2; router_area_mm2;
    global_memory_area_mm2; hyper_transport_area_mm2; static_fraction;
  } =
    config
  in
  Cache.digest_fields
    (option_fields @ strategy_fields @ island_fields
    @ [
        ("hw.xbar_rows", i xbar_rows);
        ("hw.xbar_cols", i xbar_cols);
        ("hw.xbars_per_core", i xbars_per_core);
        ("hw.vfus_per_core", i vfus_per_core);
        ("hw.vfu_lanes", i vfu_lanes);
        ("hw.local_memory_bytes", i local_memory_bytes);
        ("hw.global_memory_bytes", i global_memory_bytes);
        ("hw.core_count", i core_count);
        ("hw.flit_bytes", i flit_bytes);
        ("hw.global_memory_banks", i global_memory_banks);
        ("hw.t_mvm_ns", f t_mvm_ns);
        ("hw.t_core_cycle_ns", f t_core_cycle_ns);
        ("hw.t_hop_ns", f t_hop_ns);
        ("hw.t_dram_latency_ns", f t_dram_latency_ns);
        ("hw.global_memory_gbps", f global_memory_gbps);
        ("hw.pimmu_power_mw", f pimmu_power_mw);
        ("hw.vfu_power_mw", f vfu_power_mw);
        ("hw.local_memory_power_mw", f local_memory_power_mw);
        ("hw.control_power_mw", f control_power_mw);
        ("hw.router_power_mw", f router_power_mw);
        ("hw.global_memory_power_mw", f global_memory_power_mw);
        ("hw.hyper_transport_power_mw", f hyper_transport_power_mw);
        ("hw.pimmu_area_mm2", f pimmu_area_mm2);
        ("hw.vfu_area_mm2", f vfu_area_mm2);
        ("hw.local_memory_area_mm2", f local_memory_area_mm2);
        ("hw.control_area_mm2", f control_area_mm2);
        ("hw.router_area_mm2", f router_area_mm2);
        ("hw.global_memory_area_mm2", f global_memory_area_mm2);
        ("hw.hyper_transport_area_mm2", f hyper_transport_area_mm2);
        ("hw.static_fraction", f static_fraction);
      ])

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

(* --- job errors ------------------------------------------------------------ *)

exception Job_error of { index : int; graph : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Job_error { index; graph; exn } ->
        Some
          (Fmt.str "job %d (%s) failed: %s" index graph
             (Printexc.to_string exn))
    | _ -> None)
