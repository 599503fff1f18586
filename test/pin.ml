(* Pins the outputs that no oracle checks, as exact text for a dune
   [diff] rule against pin.expected:

   - bounded-window streams, where the window binds (test_stream holds
     only unbounded windows and windows >= N to the materialised
     program): tiny, lenet, squeezenet and resnet18 at their minimum
     input sizes with the PUMA-like mapping, HT and LL, windows
     {1, 2, 5, Batch.default_window}, N in {8, 64}, detector off and on.
     Every metric and every stream statistic but [state_words] (a heap
     measurement, not a result) is printed.
   - a two-network design-space search at seed 42 with the compile and
     simulate evaluator and an area budget, in all four prune/memoise
     combinations: the frontier, every count, and the infeasible and
     pruned points.
   - the lifetime planner's memory report (per-core demand and resident
     peaks, spill bytes) for every zoo network at its minimum input size
     with the PUMA-like mapping, HT and LL, on the Table I scratchpad,
     plus squeezenet HT on a 4 kB scratchpad, where the plan spills.
   - the MD5 of each compile's AG layout: every zoo network at its
     minimum input size with the PUMA-like mapping, and the five paper
     networks at the CLI's default size with the fast GA at seed 42,
     HT and LL.  The rendering holds the AG-to-core and AG-to-crossbar
     tables and, per weighted node, its replication and, per replica,
     the window range, the head core and the AG ids grouped by core.

   - the GA under the energy-delay objective, which no other pin
     reaches: [Genetic.optimize] and [optimize_islands] (default island
     parameters) on squeezenet and resnet18 at 56 px, HT and LL, with
     [Genetic.fast_params] at seed 42: the best fitness, the evaluation
     count and the history length.

   - [Compile.cache_key] for tiny, lenet and squeezenet at their
     minimum input sizes, on the Table I machine and on one design
     point that differs from it on every axis, under nine option
     records that between them move every option the key reads and
     the two it leaves out ([verify], the island GA's [domains]).
     A key that loses or renames a field moves here.

   Floats print as %h (exact hex).  After an intended change to one of
   these results, regenerate with [dune build @runtest] then
   [dune promote]. *)

let hw = Pimhw.Config.puma_like
let hex = Printf.sprintf "%h"

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))
let floats a = String.concat " " (Array.to_list (Array.map hex a))

let print_metrics (m : Pimsim.Metrics.t) =
  let e = m.Pimsim.Metrics.energy in
  Printf.printf "  time makespan=%s throughput=%s latency=%s\n"
    (hex m.Pimsim.Metrics.makespan_ns)
    (hex m.Pimsim.Metrics.throughput_ips)
    (hex m.Pimsim.Metrics.latency_ns);
  Printf.printf
    "  energy mvm=%s vec=%s local=%s global=%s noc=%s core_static=%s \
     router_static=%s global_static=%s ht_static=%s\n"
    (hex e.Pimsim.Metrics.mvm_pj) (hex e.Pimsim.Metrics.vec_pj)
    (hex e.Pimsim.Metrics.local_mem_pj)
    (hex e.Pimsim.Metrics.global_mem_pj)
    (hex e.Pimsim.Metrics.noc_pj)
    (hex e.Pimsim.Metrics.core_static_pj)
    (hex e.Pimsim.Metrics.router_static_pj)
    (hex e.Pimsim.Metrics.global_static_pj)
    (hex e.Pimsim.Metrics.hyper_transport_static_pj);
  Printf.printf
    "  counts executed=%d total=%d mvm_windows=%d messages=%d flit_hops=%d \
     load=%d store=%d deadlocked=%b simulated=%d extrapolated=%d\n"
    m.Pimsim.Metrics.instrs_executed m.Pimsim.Metrics.instrs_total
    m.Pimsim.Metrics.mvm_windows m.Pimsim.Metrics.messages
    m.Pimsim.Metrics.flit_hops m.Pimsim.Metrics.global_load_bytes
    m.Pimsim.Metrics.global_store_bytes m.Pimsim.Metrics.deadlocked
    m.Pimsim.Metrics.simulated_instances
    m.Pimsim.Metrics.extrapolated_instances;
  Printf.printf "  core_busy %s\n" (floats m.Pimsim.Metrics.core_busy_ns);
  Printf.printf "  local_peak %s\n" (ints m.Pimsim.Metrics.local_peak_bytes);
  Printf.printf "  resident_peak %s\n"
    (ints m.Pimsim.Metrics.local_resident_peak_bytes)

let print_stats (s : Pimsim.Engine.stream_stats) =
  Printf.printf
    "  stats batches=%d simulated=%d extrapolated=%d fired_at=%s \
     steady_interval=%s peak_slots=%d\n"
    s.Pimsim.Engine.batches s.Pimsim.Engine.simulated_instances
    s.Pimsim.Engine.extrapolated_instances
    (match s.Pimsim.Engine.fired_at with
    | Some k -> string_of_int k
    | None -> "none")
    (match s.Pimsim.Engine.steady_interval_ns with
    | Some t -> hex t
    | None -> "none")
    s.Pimsim.Engine.peak_slots

let streams () =
  List.iter
    (fun name ->
      let graph =
        Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name
      in
      List.iter
        (fun mode ->
          let options =
            {
              Pimcomp.Compile.default_options with
              strategy = Pimcomp.Compile.Puma_like;
              mode;
            }
          in
          let program =
            (Pimcomp.Compile.compile ~options hw graph).Pimcomp.Compile.program
          in
          let arena = Pimsim.Engine.arena hw program in
          List.iter
            (fun window ->
              List.iter
                (fun batches ->
                  List.iter
                    (fun detect ->
                      let m, s =
                        Pimsim.Engine.stream ~window ~detect arena ~batches
                      in
                      Printf.printf "stream %s %s window=%d N=%d detect=%b\n"
                        name
                        (Pimcomp.Mode.to_string mode)
                        window batches detect;
                      print_metrics m;
                      print_stats s)
                    [ false; true ])
                [ 8; 64 ])
            [ 1; 2; 5; Pimsim.Batch.default_window program ])
        Pimcomp.Mode.all)
    [ "tiny"; "lenet"; "squeezenet"; "resnet18" ]

let synth_axes =
  {
    Pimhw.Design_space.xbar_size_axis = [ 64; 128 ];
    xbars_per_core_axis = [ 2; 8; 16 ];
    core_count_axis = [ 1; 4; 9 ];
    local_memory_kb_axis = [ 32; 64 ];
    vfus_per_core_axis = [ 12 ];
  }

let point_list label points =
  List.iter
    (fun (p, reason) ->
      Printf.printf "  %s %s: %s\n" label (Pimhw.Design_space.point_name p)
        reason)
    points

let synths () =
  let networks =
    [| ("tiny", Nnir.Zoo.tiny ()); ("lenet", Nnir.Zoo.build "lenet") |]
  in
  List.iter
    (fun (prune, memoise) ->
      let params =
        {
          Pimcomp.Synth.default_params with
          generations = 3;
          children = 8;
          seed = 42;
          area_budget_mm2 = Some 27.0;
          prune;
          memoise;
        }
      in
      let r =
        Pimcomp.Synth.run ~params ~axes:synth_axes ~networks
          ~eval:(Pimsim.Synth_eval.evaluator ~networks ())
          ()
      in
      let s = r.Pimcomp.Synth.stats in
      Printf.printf "synth tiny+lenet seed=42 prune=%b memoise=%b\n" prune
        memoise;
      Printf.printf
        "  counts considered=%d evaluated=%d eval_jobs=%d memo_hits=%d \
         pruned_capacity=%d pruned_area=%d infeasible=%d dominated=%d \
         generations=%d\n"
        s.Pimcomp.Synth.considered s.Pimcomp.Synth.evaluated
        s.Pimcomp.Synth.eval_jobs s.Pimcomp.Synth.memo_hits
        s.Pimcomp.Synth.pruned_capacity s.Pimcomp.Synth.pruned_area
        s.Pimcomp.Synth.infeasible s.Pimcomp.Synth.dominated
        s.Pimcomp.Synth.generations;
      List.iter
        (fun (fp : Pimcomp.Synth.frontier_point) ->
          let o = fp.Pimcomp.Synth.objectives in
          Printf.printf "  frontier %s time=%s energy=%s area=%s\n"
            (Pimhw.Design_space.point_name fp.Pimcomp.Synth.point)
            (hex o.Pimcomp.Synth.time_ns)
            (hex o.Pimcomp.Synth.energy_pj)
            (hex o.Pimcomp.Synth.area_mm2);
          Array.iter
            (fun (net, t, e) ->
              Printf.printf "    %s time=%s energy=%s\n" net (hex t) (hex e))
            fp.Pimcomp.Synth.per_network)
        r.Pimcomp.Synth.frontier;
      point_list "infeasible" r.Pimcomp.Synth.infeasible_points;
      point_list "pruned" r.Pimcomp.Synth.pruned_points)
    [ (true, true); (true, false); (false, true); (false, false) ]

let lifetime_row ?(local_memory_bytes = hw.Pimhw.Config.local_memory_bytes)
    name mode =
  let config = { hw with Pimhw.Config.local_memory_bytes } in
  let options =
    {
      Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      allocator = Pimcomp.Memalloc.Lifetime;
      mode;
    }
  in
  let graph = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
  let m =
    (Pimcomp.Compile.compile ~options config graph).Pimcomp.Compile.program
      .Pimcomp.Isa.memory
  in
  Printf.printf "lifetime %s %s local_memory=%d\n" name
    (Pimcomp.Mode.to_string mode)
    local_memory_bytes;
  Printf.printf "  demand %s\n" (ints m.Pimcomp.Isa.local_peak_bytes);
  Printf.printf "  resident %s\n"
    (ints m.Pimcomp.Isa.local_resident_peak_bytes);
  Printf.printf "  spill %d\n" m.Pimcomp.Isa.spill_bytes

let lifetimes () =
  List.iter
    (fun name -> List.iter (lifetime_row name) Pimcomp.Mode.all)
    Nnir.Zoo.names;
  lifetime_row ~local_memory_bytes:4096 "squeezenet"
    Pimcomp.Mode.High_throughput

(* Groups are derived here from [ag_ids] and [ag_cores], so the
   rendering reads only fields every version of [Layout] has had. *)
let layout_text (l : Pimcomp.Layout.t) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "ag_core %s" (ints l.Pimcomp.Layout.ag_core);
  line "ag_xbars %s" (ints l.Pimcomp.Layout.ag_xbars);
  Array.iteri
    (fun i (nl : Pimcomp.Layout.node_layout) ->
      line "node %d replication %d" i nl.Pimcomp.Layout.replication;
      Array.iter
        (fun (r : Pimcomp.Layout.replica) ->
          let ids = Array.to_list r.Pimcomp.Layout.ag_ids in
          let cores = r.Pimcomp.Layout.ag_cores in
          let groups =
            List.sort_uniq compare (Array.to_list cores)
            |> List.map (fun core ->
                   Printf.sprintf "%d:%s" core
                     (String.concat ","
                        (List.map string_of_int
                           (List.filteri (fun i _ -> cores.(i) = core) ids))))
          in
          line "  windows %d %d head %d groups %s" r.Pimcomp.Layout.window_lo
            r.Pimcomp.Layout.window_hi r.Pimcomp.Layout.head_core
            (String.concat " " groups))
        nl.Pimcomp.Layout.replicas)
    l.Pimcomp.Layout.by_node_index;
  Buffer.contents b

let layout_row name ~input_size strategy mode =
  let options = { Pimcomp.Compile.default_options with strategy; mode } in
  let graph = Nnir.Zoo.build ~input_size name in
  let layout =
    (Pimcomp.Compile.compile ~options hw graph).Pimcomp.Compile.layout
  in
  Printf.printf "layout %s %s %s %s\n" name
    (Pimcomp.Mode.to_string mode)
    (Pimcomp.Compile.mapping_strategy_name strategy)
    (Digest.to_hex (Digest.string (layout_text layout)))

let layouts () =
  List.iter
    (fun name ->
      List.iter
        (layout_row name ~input_size:(Nnir.Zoo.min_input_size name)
           Pimcomp.Compile.Puma_like)
        Pimcomp.Mode.all)
    Nnir.Zoo.names;
  List.iter
    (fun name ->
      List.iter
        (layout_row name
           ~input_size:(Nnir.Zoo.scaled_input_size ~factor:4 name)
           (Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params))
        Pimcomp.Mode.all)
    [ "vgg16"; "resnet18"; "squeezenet"; "googlenet"; "inception_v3" ]

let edp_row name mode =
  let graph = Nnir.Zoo.build ~input_size:56 name in
  let table = Pimcomp.Partition.of_graph hw graph in
  let core_count = Pimcomp.Partition.fit_core_count table in
  let timing = Pimhw.Timing.create hw in
  let params = Pimcomp.Genetic.fast_params in
  let objective = Pimcomp.Fitness.Minimize_energy_delay in
  let max_node_num_in_core =
    Pimcomp.Compile.default_options.Pimcomp.Compile.max_node_num_in_core
  in
  let row search (r : Pimcomp.Genetic.result) =
    Printf.printf "edp %s %s %s best=%s evaluations=%d history=%d\n" search
      name
      (Pimcomp.Mode.to_string mode)
      (hex r.Pimcomp.Genetic.best_fitness)
      r.Pimcomp.Genetic.evaluations
      (List.length r.Pimcomp.Genetic.history)
  in
  row "optimize"
    (Pimcomp.Genetic.optimize ~params ~objective ~mode ~timing
       ~rng:(Pimcomp.Rng.create ~seed:42)
       table ~core_count ~max_node_num_in_core ());
  row "islands"
    (Pimcomp.Genetic.optimize_islands ~params ~objective ~mode ~timing
       ~rng:(Pimcomp.Rng.create ~seed:42)
       table ~core_count ~max_node_num_in_core ())

let edps () =
  List.iter
    (fun name -> List.iter (edp_row name) Pimcomp.Mode.all)
    [ "squeezenet"; "resnet18" ]

let key_options =
  let d = Pimcomp.Compile.default_options in
  let fast = Pimcomp.Genetic.fast_params in
  let islands = Pimcomp.Genetic.default_island_params in
  [
    ("default", d);
    ( "ll-lifetime",
      {
        d with
        mode = Pimcomp.Mode.Low_latency;
        allocator = Pimcomp.Memalloc.Lifetime;
        spill_budget = Some 4096;
      } );
    ( "puma",
      {
        d with
        strategy = Pimcomp.Compile.Puma_like;
        core_count = Some 40;
        max_node_num_in_core = 8;
      } );
    ( "random",
      {
        d with
        strategy = Pimcomp.Compile.Random_search fast;
        seed = 7;
        parallelism = 8;
      } );
    ( "ga-edp",
      {
        d with
        strategy = Pimcomp.Compile.Genetic_algorithm fast;
        objective = Pimcomp.Fitness.Minimize_energy_delay;
        mvms_per_transfer = 4;
      } );
    ("islands", { d with ga_islands = Some islands });
    ( "islands-wide",
      {
        d with
        ga_islands =
          Some
            { islands with islands = 4; migration_interval = 5; migration_size = 2 };
      } );
    ( "islands-domains",
      { d with ga_islands = Some { islands with domains = Some 3 } } );
    ("no-verify", { d with verify = false });
  ]

let keys () =
  let point =
    {
      Pimhw.Design_space.xbar_size = 64;
      xbars_per_core = 16;
      core_count = 16;
      local_memory_kb = 32;
      vfus_per_core = 8;
    }
  in
  List.iter
    (fun name ->
      let graph = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
      List.iter
        (fun (machine, config) ->
          List.iter
            (fun (label, options) ->
              Printf.printf "key %s %s %s %s\n" name machine label
                (Pimcomp.Compile.cache_key ~options config graph))
            key_options)
        [ ("puma", hw); ("x64-b16-c16-m32k-v8", Pimhw.Design_space.to_config point) ])
    [ "tiny"; "lenet"; "squeezenet" ]

let () =
  streams ();
  synths ();
  lifetimes ();
  layouts ();
  edps ();
  keys ()
