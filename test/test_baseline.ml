(* Tests for the PUMA-like baseline (Section V-A2): front-to-back
   rate-matching replication and sequential first-fit mapping. *)

let hw = Pimhw.Config.puma_like

let setup name size =
  let g = Nnir.Zoo.build ~input_size:size name in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  (table, core_count)

let test_valid_chromosome () =
  List.iter
    (fun (name, size) ->
      let table, core_count = setup name size in
      let c =
        Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core:16
      in
      match Pimcomp.Chromosome.violations c with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: invalid baseline: %a" name
            Pimcomp.Chromosome.pp_violation v)
    [ ("tiny", 16); ("vgg16", 56); ("squeezenet", 56); ("resnet18", 56) ]

(* The mapping [build] emits keeps PUMA's replication rules: total
   crossbars stay within 85% of the machine (or the replication-1 floor
   when that is larger), and single-window nodes (FC layers) are never
   replicated. *)
let test_build_budget_and_fc () =
  List.iter
    (fun (name, size) ->
      let table, core_count = setup name size in
      let c =
        Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core:16
      in
      let used =
        List.fold_left ( + ) 0
          (List.init core_count (Pimcomp.Chromosome.core_xbars c))
      in
      let budget =
        max
          (Pimcomp.Partition.min_xbars table)
          (int_of_float
             (0.85
             *. float_of_int (core_count * hw.Pimhw.Config.xbars_per_core)))
      in
      if used > budget then
        Alcotest.failf "%s: %d crossbars used, budget %d" name used budget;
      Array.iteri
        (fun i (info : Pimcomp.Partition.info) ->
          if info.Pimcomp.Partition.windows = 1 then
            Alcotest.(check int)
              (Fmt.str "%s %s keeps one replica" name
                 info.Pimcomp.Partition.name)
              1
              (Pimcomp.Chromosome.replication c i))
        (Pimcomp.Partition.entries table))
    [ ("tiny", 16); ("vgg16", 56); ("squeezenet", 56); ("resnet18", 56) ]

let test_sequential_mapping_is_compact () =
  (* first-fit packing leaves no gaps: any core with free space must be
     followed only by emptier cores *)
  let table, core_count = setup "squeezenet" 56 in
  let c =
    Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core:16
  in
  let usages =
    List.init core_count (fun core -> Pimcomp.Chromosome.core_xbars c core)
  in
  let first_empty =
    match List.find_index (fun u -> u = 0) usages with
    | Some i -> i
    | None -> core_count
  in
  List.iteri
    (fun i u ->
      if i > first_empty then
        Alcotest.(check int) "nothing after first empty core" 0 u)
    usages

let test_infeasible_raises () =
  let table, _ = setup "vgg16" 56 in
  match
    Pimcomp.Puma_baseline.build table ~core_count:2 ~max_node_num_in_core:4
  with
  | exception Pimcomp.Chromosome.Infeasible _ -> ()
  | _ -> Alcotest.fail "vgg16 on 2 cores accepted"

let () =
  Alcotest.run "puma-baseline"
    [
      ( "baseline",
        [
          Alcotest.test_case "valid chromosome" `Quick test_valid_chromosome;
          Alcotest.test_case "budget and single-window nodes" `Quick
            test_build_budget_and_fc;
          Alcotest.test_case "compact mapping" `Quick
            test_sequential_mapping_is_compact;
          Alcotest.test_case "infeasible raises" `Quick test_infeasible_raises;
        ] );
    ]
