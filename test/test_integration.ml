(* End-to-end integration tests: compile + simulate real networks in
   both modes with both mapping strategies, and check the paper's
   headline relationships hold on the small configurations the test
   suite can afford. *)

let hw = Pimhw.Config.puma_like

let compile_and_run ?(parallelism = 8) ~mode ~strategy name size =
  let g = Nnir.Zoo.build ~input_size:size name in
  let options =
    { Pimcomp.Compile.default_options with mode; parallelism; strategy }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let m = Pimsim.Engine.run ~parallelism hw r.Pimcomp.Compile.program in
  (r, m)

let ga = Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params

let test_all_modes_run name size =
  List.iter
    (fun mode ->
      List.iter
        (fun strategy ->
          let r, m = compile_and_run ~mode ~strategy name size in
          Alcotest.(check bool)
            (Fmt.str "%s %a %s completes" name Pimcomp.Mode.pp mode
               (Pimcomp.Compile.mapping_strategy_name strategy))
            false m.Pimsim.Metrics.deadlocked;
          Alcotest.(check int) "all instructions executed"
            m.Pimsim.Metrics.instrs_total m.Pimsim.Metrics.instrs_executed;
          Alcotest.(check bool) "positive makespan" true
            (m.Pimsim.Metrics.makespan_ns > 0.0);
          Alcotest.(check bool) "fitness positive" true
            (r.Pimcomp.Compile.fitness > 0.0))
        [ ga; Pimcomp.Compile.Puma_like ])
    Pimcomp.Mode.all

let test_tiny () = test_all_modes_run "tiny" 16
let test_lenet () = test_all_modes_run "lenet" 16
let test_squeezenet () = test_all_modes_run "squeezenet" 48
let test_resnet18 () = test_all_modes_run "resnet18" 40
let test_mobilenet () = test_all_modes_run "mobilenet" 32
let test_densenet () = test_all_modes_run "densenet121" 33

let test_isaac_preset () =
  (* the same compiler retargets an ISAAC-flavoured machine unchanged:
     fewer, smaller tiles, more of them *)
  let hw =
    Pimhw.Design_space.to_config
      {
        Pimhw.Design_space.xbar_size = 128;
        xbars_per_core = 32;
        core_count = 48;
        local_memory_kb = 64;
        vfus_per_core = 8;
      }
  in
  let g = Nnir.Zoo.build ~input_size:48 "squeezenet" in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      parallelism = 8 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let m = Pimsim.Engine.run ~parallelism:8 hw r.Pimcomp.Compile.program in
  Alcotest.(check bool) "completes" false m.Pimsim.Metrics.deadlocked

let test_energy_objective_end_to_end () =
  let g = Nnir.Zoo.build ~input_size:48 "squeezenet" in
  let run objective =
    let options =
      { Pimcomp.Compile.default_options with
        mode = Pimcomp.Mode.Low_latency;
        parallelism = 8;
        objective;
        strategy = Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params }
    in
    let r = Pimcomp.Compile.compile ~options hw g in
    let m = Pimsim.Engine.run ~parallelism:8 hw r.Pimcomp.Compile.program in
    Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy
  in
  let e_time = run Pimcomp.Fitness.Minimize_time in
  let e_edp = run Pimcomp.Fitness.Minimize_energy_delay in
  (* the energy-aware objective should not cost substantially more
     energy; typically it saves some *)
  Alcotest.(check bool) "EDP objective energy sane" true
    (e_edp <= e_time *. 1.15)

let test_ga_not_worse_than_puma () =
  (* with the PUMA individual in the seed population, the GA's fitness
     estimate can never be worse *)
  List.iter
    (fun mode ->
      let r_ga, _ = compile_and_run ~mode ~strategy:ga "squeezenet" 48 in
      let r_puma, _ =
        compile_and_run ~mode ~strategy:Pimcomp.Compile.Puma_like "squeezenet"
          48
      in
      Alcotest.(check bool)
        (Fmt.str "GA fitness <= PUMA fitness (%a)" Pimcomp.Mode.pp mode)
        true
        (r_ga.Pimcomp.Compile.fitness
        <= r_puma.Pimcomp.Compile.fitness +. 1e-6))
    Pimcomp.Mode.all

let test_ll_latency_below_ht_makespan () =
  (* the whole point of LL mode: a single inference finishes sooner than
     under the inference-granular HT pipeline *)
  let _, ht = compile_and_run ~mode:Pimcomp.Mode.High_throughput ~strategy:ga
      "squeezenet" 48
  in
  let _, ll = compile_and_run ~mode:Pimcomp.Mode.Low_latency ~strategy:ga
      "squeezenet" 48
  in
  Alcotest.(check bool) "LL latency < HT latency" true
    (ll.Pimsim.Metrics.latency_ns < ht.Pimsim.Metrics.latency_ns)

let test_memory_reuse_hierarchy_end_to_end () =
  let g = Nnir.Zoo.build ~input_size:48 "squeezenet" in
  let run allocator mode =
    let options =
      { Pimcomp.Compile.default_options with
        mode; parallelism = 8; allocator; strategy = Pimcomp.Compile.Puma_like }
    in
    let r = Pimcomp.Compile.compile ~options hw g in
    r.Pimcomp.Compile.program.Pimcomp.Isa.memory
  in
  List.iter
    (fun mode ->
      let peak m = Array.fold_left max 0 m.Pimcomp.Isa.local_peak_bytes in
      let naive = run Pimcomp.Memalloc.Naive mode in
      let add = run Pimcomp.Memalloc.Add_reuse mode in
      let ag = run Pimcomp.Memalloc.Ag_reuse mode in
      Alcotest.(check bool)
        (Fmt.str "peak hierarchy (%a)" Pimcomp.Mode.pp mode)
        true
        (peak ag <= peak add && peak add <= peak naive);
      (* in HT mode the naive discipline must pay more global traffic *)
      if mode = Pimcomp.Mode.High_throughput then
        Alcotest.(check bool) "naive spills more" true
          (naive.Pimcomp.Isa.spill_bytes >= ag.Pimcomp.Isa.spill_bytes))
    Pimcomp.Mode.all

let test_parallelism_speeds_up_ht () =
  let _, m4 = compile_and_run ~parallelism:4 ~mode:Pimcomp.Mode.High_throughput
      ~strategy:Pimcomp.Compile.Puma_like "squeezenet" 48
  in
  let _, m32 =
    compile_and_run ~parallelism:32 ~mode:Pimcomp.Mode.High_throughput
      ~strategy:Pimcomp.Compile.Puma_like "squeezenet" 48
  in
  Alcotest.(check bool) "P=32 faster than P=4" true
    (m32.Pimsim.Metrics.makespan_ns < m4.Pimsim.Metrics.makespan_ns)

let test_stage_times_recorded () =
  let r, _ = compile_and_run ~mode:Pimcomp.Mode.High_throughput ~strategy:ga
      "tiny" 16
  in
  let s = r.Pimcomp.Compile.stage_seconds in
  Alcotest.(check bool) "total = sum of stages" true
    (abs_float
       (s.Pimcomp.Compile.total
       -. (s.Pimcomp.Compile.partitioning
          +. s.Pimcomp.Compile.replicating_mapping
          +. s.Pimcomp.Compile.scheduling
          +. s.Pimcomp.Compile.verification))
    < 1e-9);
  Alcotest.(check bool) "stages non-negative" true
    (s.Pimcomp.Compile.partitioning >= 0.0
    && s.Pimcomp.Compile.replicating_mapping >= 0.0
    && s.Pimcomp.Compile.scheduling >= 0.0
    && s.Pimcomp.Compile.verification >= 0.0)

let test_report_renders () =
  let r, m = compile_and_run ~mode:Pimcomp.Mode.Low_latency ~strategy:ga
      "tiny" 16
  in
  let text = Fmt.str "%a@.%a" Pimcomp.Report.pp_summary r Pimsim.Metrics.pp m in
  Alcotest.(check bool) "report mentions network" true
    (String.length text > 100)

let test_energy_breakdown_consistent () =
  let _, m = compile_and_run ~mode:Pimcomp.Mode.High_throughput ~strategy:ga
      "lenet" 16
  in
  let e = m.Pimsim.Metrics.energy in
  let total = Pimsim.Metrics.total_pj e in
  Alcotest.(check bool) "total = dynamic + static" true
    (abs_float
       (total -. (Pimsim.Metrics.dynamic_pj e +. Pimsim.Metrics.static_pj e))
    < 1e-6);
  Alcotest.(check bool) "every component non-negative" true
    (e.Pimsim.Metrics.mvm_pj >= 0.0
    && e.Pimsim.Metrics.vec_pj >= 0.0
    && e.Pimsim.Metrics.local_mem_pj >= 0.0
    && e.Pimsim.Metrics.global_mem_pj >= 0.0
    && e.Pimsim.Metrics.noc_pj >= 0.0)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "tiny" `Quick test_tiny;
          Alcotest.test_case "lenet" `Quick test_lenet;
          Alcotest.test_case "squeezenet" `Slow test_squeezenet;
          Alcotest.test_case "resnet18" `Slow test_resnet18;
          Alcotest.test_case "mobilenet" `Slow test_mobilenet;
          Alcotest.test_case "densenet121" `Slow test_densenet;
          Alcotest.test_case "isaac preset" `Slow test_isaac_preset;
          Alcotest.test_case "energy objective" `Slow
            test_energy_objective_end_to_end;
        ] );
      ( "paper-relationships",
        [
          Alcotest.test_case "GA never worse" `Slow test_ga_not_worse_than_puma;
          Alcotest.test_case "LL beats HT latency" `Slow
            test_ll_latency_below_ht_makespan;
          Alcotest.test_case "memory reuse hierarchy" `Slow
            test_memory_reuse_hierarchy_end_to_end;
          Alcotest.test_case "parallelism helps" `Slow
            test_parallelism_speeds_up_ht;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "stage times" `Quick test_stage_times_recorded;
          Alcotest.test_case "report renders" `Quick test_report_renders;
          Alcotest.test_case "energy consistent" `Quick
            test_energy_breakdown_consistent;
        ] );
    ]
