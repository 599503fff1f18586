(* Tests for the fitness functions (Section IV-C2): the segment
   computation of Fig. 5, the f(n) saturation behaviour, the LL chain,
   and monotonicity properties the GA relies on. *)

let hw = Pimhw.Config.puma_like
let timing p = Pimhw.Timing.create ~parallelism:p hw

(* --- Fig. 5 segment computation ------------------------------------------ *)

let test_core_time_figure5 () =
  (* The paper's example: nodes with (ags, cycles) =
     (3, 300), (2, 3000), (2, 1000), (1, 500) -> segments
     300*f(8) + 200*f(5) + 500*f(4) + 2000*f(2).
     With parallelism 20, f(n)=T_MVM=100ns for all n <= 20, so the total
     is 3000 * 100 ns. *)
  let t = timing 20 in
  let pairs = [ (3, 300); (2, 3000); (2, 1000); (1, 500) ] in
  Alcotest.(check (float 1.0)) "P=20: all segments at T_MVM" 300_000.0
    (Pimcomp.Fitness.core_time t pairs);
  (* with parallelism 2, f(n) = n * 50ns for n >= 2:
     300*8*50 + 200*5*50 + 500*4*50 + 2000*2*50 = 470_000 ns *)
  let t2 = timing 2 in
  Alcotest.(check (float 1.0)) "P=2: issue-bound segments" 470_000.0
    (Pimcomp.Fitness.core_time t2 pairs)

let test_core_time_edge_cases () =
  let t = timing 4 in
  Alcotest.(check (float 1e-9)) "empty core" 0.0 (Pimcomp.Fitness.core_time t []);
  Alcotest.(check (float 1e-9)) "zero cycles filtered" 0.0
    (Pimcomp.Fitness.core_time t [ (3, 0) ]);
  (* single AG: cycles * T_MVM *)
  Alcotest.(check (float 1e-6)) "single AG" 10_000.0
    (Pimcomp.Fitness.core_time t [ (1, 100) ])

let core_time_monotone =
  QCheck.Test.make ~name:"core_time monotone in load" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 6)
           (pair (int_range 1 8) (int_range 1 500)))
        (int_range 1 32))
    (fun (pairs, p) ->
      QCheck.assume (pairs <> []);
      let t = timing p in
      let base = Pimcomp.Fitness.core_time t pairs in
      let more = Pimcomp.Fitness.core_time t ((2, 600) :: pairs) in
      more >= base)

(* --- whole-chromosome fitness --------------------------------------------- *)

let compile_pair name size =
  let g = Nnir.Zoo.build ~input_size:size name in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  let chrom =
    Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core:16
  in
  (table, chrom)

let test_fitness_positive_and_finite () =
  let _, chrom = compile_pair "tiny" 16 in
  List.iter
    (fun p ->
      let t = timing p in
      let ht = Pimcomp.Fitness.ht t chrom in
      let ll = Pimcomp.Fitness.ll t chrom in
      Alcotest.(check bool) "ht positive" true (ht > 0.0 && Float.is_finite ht);
      Alcotest.(check bool) "ll positive" true (ll > 0.0 && Float.is_finite ll))
    [ 1; 4; 20; 64 ]

let test_ht_decreases_with_parallelism () =
  let _, chrom = compile_pair "vgg16" 56 in
  let f p = Pimcomp.Fitness.ht (timing p) chrom in
  Alcotest.(check bool) "P=8 <= P=4" true (f 8 <= f 4 +. 1e-6);
  Alcotest.(check bool) "P=32 <= P=8" true (f 32 <= f 8 +. 1e-6)

let test_replication_reduces_ht () =
  (* starting from replication 1 everywhere, adding replicas of the
     bottleneck layer must eventually reduce F_HT *)
  let g = Nnir.Zoo.build ~input_size:16 "tiny" in
  let table = Pimcomp.Partition.of_graph hw g in
  let rng = Pimcomp.Rng.create ~seed:42 in
  let chrom =
    Pimcomp.Chromosome.compact_initial rng table ~core_count:8
      ~max_node_num_in_core:8 ~extra_replica_attempts:0 ()
  in
  let t = timing 4 in
  let before = Pimcomp.Fitness.ht t chrom in
  (* single additions may not move the bottleneck (sibling layers share
     the core), so replicate cumulatively and keep improvements *)
  let best = ref before in
  let current = ref chrom in
  for _ = 1 to 60 do
    let c = Pimcomp.Chromosome.copy !current in
    if Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Add_replica then begin
      let f = Pimcomp.Fitness.ht t c in
      if f < !best then begin
        best := f;
        current := c
      end
    end
  done;
  Alcotest.(check bool) "cumulative replication helps" true (!best < before)

let test_energy_estimate () =
  let _, chrom = compile_pair "squeezenet" 56 in
  let t = timing 20 in
  let em = Pimhw.Energy_model.create hw in
  List.iter
    (fun mode ->
      let e = Pimcomp.Fitness.estimate_energy_pj em mode t chrom in
      Alcotest.(check bool) "positive and finite" true
        (e > 0.0 && Float.is_finite e))
    Pimcomp.Mode.all;
  (* the dynamic part is mapping-invariant; adding replicas must not
     decrease the estimate *)
  let rng = Pimcomp.Rng.create ~seed:3 in
  let bigger = Pimcomp.Chromosome.copy chrom in
  if Pimcomp.Chromosome.mutate rng bigger Pimcomp.Chromosome.Add_replica then begin
    let base =
      Pimcomp.Fitness.estimate_energy_pj em Pimcomp.Mode.Low_latency t chrom
    in
    let more =
      Pimcomp.Fitness.estimate_energy_pj em Pimcomp.Mode.Low_latency t bigger
    in
    (* LL static grows with active cores unless the makespan shrinks more *)
    Alcotest.(check bool) "estimate reacts to mapping" true (more <> base)
  end

let test_objective_evaluate () =
  let _, chrom = compile_pair "tiny" 16 in
  let t = timing 8 in
  let time_f =
    Pimcomp.Fitness.evaluate ~objective:Pimcomp.Fitness.Minimize_time
      Pimcomp.Mode.High_throughput t chrom
  in
  let edp_f =
    Pimcomp.Fitness.evaluate ~objective:Pimcomp.Fitness.Minimize_energy_delay
      Pimcomp.Mode.High_throughput t chrom
  in
  Alcotest.(check bool) "both positive" true (time_f > 0.0 && edp_f > 0.0);
  Alcotest.(check bool) "objectives differ" true (time_f <> edp_f);
  Alcotest.(check string) "names" "energy-delay"
    (Pimcomp.Fitness.objective_name Pimcomp.Fitness.Minimize_energy_delay)

let test_ll_ge_simple_chain_bound () =
  (* F_LL is at least the largest standalone node time *)
  let table, chrom = compile_pair "squeezenet" 56 in
  let t = timing 20 in
  let g = Pimcomp.Partition.table_graph table in
  let worst_standalone =
    List.fold_left
      (fun acc id ->
        let r =
          Pimcomp.Chromosome.replication chrom
            (Pimcomp.Partition.index_of_node table id)
        in
        Float.max acc
          (Pimcomp.Fitness.standalone_ns t table g id ~replication:r))
      0.0
      (Nnir.Graph.weighted_nodes g)
  in
  Alcotest.(check bool) "LL >= worst stage" true
    (Pimcomp.Fitness.ll t chrom >= worst_standalone -. 1e-6)

(* --- incremental evaluator ------------------------------------------------- *)

(* The incremental evaluator must match the full recomputation
   bit-for-bit after arbitrary mutation sequences: its caches are
   refreshed by the same functions the full path runs, so any divergence
   is a dirty-set bug.  Exercises both modes, several seeds, and the
   parent-to-child copy path the GA uses. *)
let incremental_matches_full mode () =
  let g = Nnir.Zoo.build ~input_size:56 "squeezenet" in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  let t = timing 8 in
  let ctx = Pimcomp.Fitness.context mode t table ~core_count in
  List.iter
    (fun seed ->
      let rng = Pimcomp.Rng.create ~seed in
      let chrom =
        ref
          (Pimcomp.Chromosome.random_initial rng table ~core_count
             ~max_node_num_in_core:16 ~extra_replica_attempts:2 ())
      in
      let inc = ref (Pimcomp.Fitness.Inc.create ctx !chrom) in
      let check_match step =
        let cached = Pimcomp.Fitness.Inc.fitness !inc in
        let full = Pimcomp.Fitness.evaluate mode t !chrom in
        if cached <> full then
          Alcotest.failf "seed %d step %d: incremental %.17g <> full %.17g"
            seed step cached full
      in
      check_match 0;
      for step = 1 to 100 do
        (* periodically branch a child, as the GA does every generation *)
        if step mod 10 = 0 then begin
          let child = Pimcomp.Chromosome.copy !chrom in
          inc := Pimcomp.Fitness.Inc.copy !inc child;
          chrom := child
        end;
        match Pimcomp.Chromosome.mutate_random_touched rng !chrom with
        | Some touched ->
            Pimcomp.Fitness.Inc.update !inc touched;
            check_match step
        | None -> ()
      done)
    [ 1; 7; 42 ]

let () =
  Alcotest.run "fitness"
    [
      ( "core-time",
        [
          Alcotest.test_case "Fig. 5 example" `Quick test_core_time_figure5;
          Alcotest.test_case "edge cases" `Quick test_core_time_edge_cases;
          QCheck_alcotest.to_alcotest core_time_monotone;
        ] );
      ( "chromosome-fitness",
        [
          Alcotest.test_case "positive and finite" `Quick
            test_fitness_positive_and_finite;
          Alcotest.test_case "HT vs parallelism" `Quick
            test_ht_decreases_with_parallelism;
          Alcotest.test_case "replication helps HT" `Quick
            test_replication_reduces_ht;
          Alcotest.test_case "LL lower bound" `Quick
            test_ll_ge_simple_chain_bound;
          Alcotest.test_case "energy estimate" `Quick test_energy_estimate;
          Alcotest.test_case "objectives" `Quick test_objective_evaluate;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches full (HT)" `Quick
            (incremental_matches_full Pimcomp.Mode.High_throughput);
          Alcotest.test_case "matches full (LL)" `Quick
            (incremental_matches_full Pimcomp.Mode.Low_latency);
        ] );
    ]
