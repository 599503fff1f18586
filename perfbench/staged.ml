(* Spanned calls into the layers for the traced runs: Compile.compile
   recomposed from its public stages, verification and simulation.  The
   recomposition must stay step for step the same as Compile.compile:
   every traced run checks that it yields bit-identical programs. *)

module C = Pimcomp.Compile

let verify ?graph config program =
  let vs =
    Spans.span "verify.run" (fun () -> Pimcomp.Verify.run ?graph ~config program)
  in
  Spans.count "verify.instrs" (Pimcomp.Isa.num_instrs program);
  vs

let engine_run ~parallelism config program =
  let m =
    Spans.span "engine.run" (fun () ->
        Pimsim.Engine.run ~parallelism config program)
  in
  Spans.count "engine.instrs" m.Pimsim.Metrics.instrs_executed;
  m

(* Counts simulated instructions only: extrapolated instances are closed
   analytically, not executed. *)
let engine_stream ~parallelism config program ~batches =
  let ((_, stats) as r) =
    Spans.span "engine.stream" (fun () ->
        Pimsim.Batch.run_stream ~parallelism config program ~batches)
  in
  Spans.count "engine.instrs"
    (stats.Pimsim.Engine.simulated_instances * Pimcomp.Isa.num_instrs program);
  Spans.count "engine.extrapolated" stats.Pimsim.Engine.extrapolated_instances;
  Spans.count "engine.streamed" stats.Pimsim.Engine.batches;
  r

let compile ~(options : C.options) (config : Pimhw.Config.t) graph =
  Pimhw.Config.validate config;
  let timing = Pimhw.Timing.create ~parallelism:options.C.parallelism config in
  let table =
    Spans.span "partition.of_graph" (fun () ->
        Pimcomp.Partition.of_graph config graph)
  in
  let core_count =
    match options.C.core_count with
    | Some n -> n
    | None ->
        max config.Pimhw.Config.core_count
          (Pimcomp.Partition.fit_core_count table)
  in
  let max_node_num_in_core = options.C.max_node_num_in_core in
  let baseline () =
    Spans.span "genetic.puma_baseline" (fun () ->
        Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core)
  in
  let objective = options.C.objective and mode = options.C.mode in
  let chromosome, ga =
    match options.C.strategy with
    | C.Genetic_algorithm params ->
        let rng = Pimcomp.Rng.create ~seed:options.C.seed in
        let seeds =
          match baseline () with
          | c -> [ c ]
          | exception Pimcomp.Chromosome.Infeasible _ -> []
        in
        let result =
          Spans.span "genetic.optimize" (fun () ->
              match options.C.ga_islands with
              | Some island ->
                  Pimcomp.Genetic.optimize_islands ~params ~island ~seeds
                    ~objective ~mode ~timing ~rng table ~core_count
                    ~max_node_num_in_core ()
              | None ->
                  Pimcomp.Genetic.optimize ~params ~seeds ~objective ~mode
                    ~timing ~rng table ~core_count ~max_node_num_in_core ())
        in
        Spans.count "genetic.evals" result.Pimcomp.Genetic.evaluations;
        Spans.count "genetic.failed" result.Pimcomp.Genetic.failed_mutations;
        (result.Pimcomp.Genetic.best, Some result)
    | C.Puma_like -> (baseline (), None)
    | C.Random_search _ ->
        invalid_arg "Staged.compile: random search is not recomposed"
  in
  Spans.span "genetic.check" (fun () ->
      (match Pimcomp.Chromosome.violations chromosome with
      | [] -> ()
      | v :: _ ->
          invalid_arg
            (Format.asprintf "Compile: mapping violates constraints: %a"
               Pimcomp.Chromosome.pp_violation v));
      ignore (Pimcomp.Fitness.evaluate mode timing chromosome));
  let layout =
    Spans.span "schedule.layout" (fun () ->
        Pimcomp.Layout.of_chromosome chromosome)
  in
  let program =
    Spans.span "schedule.emit" (fun () ->
        match mode with
        | Pimcomp.Mode.High_throughput ->
            Pimcomp.Schedule_ht.schedule
              ~options:
                {
                  Pimcomp.Schedule_ht.mvms_per_transfer =
                    options.C.mvms_per_transfer;
                  strategy = options.C.allocator;
                  spill_budget = options.C.spill_budget;
                }
              layout
        | Pimcomp.Mode.Low_latency ->
            Pimcomp.Schedule_ll.schedule
              ~options:
                {
                  Pimcomp.Schedule_ll.default_options with
                  strategy = options.C.allocator;
                  spill_budget = options.C.spill_budget;
                }
              layout)
  in
  Spans.count "schedule.instrs" (Pimcomp.Isa.num_instrs program);
  (if options.C.verify then
     match verify ~graph config program with
     | [] -> ()
     | vs ->
         invalid_arg
           (Format.asprintf "Compile: %s: %a" (Nnir.Graph.name graph)
              Pimcomp.Verify.report vs));
  (program, ga)
