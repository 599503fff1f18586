(* Tests for the GA encoding (Section IV-C1): the paper's integer gene
   encoding, chromosome invariants, the four mutation operations, and
   the deterministic placement [Layout] derives from the genes. *)

let hw = Pimhw.Config.puma_like

let table_of name size =
  Pimcomp.Partition.of_graph hw (Nnir.Zoo.build ~input_size:size name)

let tiny_table () = table_of "tiny" 16

let test_encoding () =
  (* the paper's example: 1030025 = 25 AGs of node 103 *)
  let g = { Pimcomp.Chromosome.node_index = 103; ag_count = 25 } in
  Alcotest.(check int) "encode" 1030025 (Pimcomp.Chromosome.encode g);
  let d = Pimcomp.Chromosome.decode 1030025 in
  Alcotest.(check int) "node" 103 d.Pimcomp.Chromosome.node_index;
  Alcotest.(check int) "ags" 25 d.Pimcomp.Chromosome.ag_count;
  (match Pimcomp.Chromosome.encode { node_index = 1; ag_count = 10000 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ag_count 10000 accepted");
  match Pimcomp.Chromosome.decode (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative code accepted"

let encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:1000
    QCheck.(pair (int_range 0 9999) (int_range 0 9999))
    (fun (node_index, ag_count) ->
      let g = { Pimcomp.Chromosome.node_index; ag_count } in
      Pimcomp.Chromosome.decode (Pimcomp.Chromosome.encode g) = g)

let test_random_initial_valid () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:1 in
  for _ = 1 to 20 do
    let c =
      Pimcomp.Chromosome.random_initial rng table ~core_count:8
        ~max_node_num_in_core:8 ~extra_replica_attempts:3 ()
    in
    match Pimcomp.Chromosome.violations c with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "invalid initial: %a" Pimcomp.Chromosome.pp_violation v
  done

let test_compact_initial_valid () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:2 in
  for _ = 1 to 20 do
    let c =
      Pimcomp.Chromosome.compact_initial rng table ~core_count:8
        ~max_node_num_in_core:8 ~extra_replica_attempts:3 ()
    in
    Alcotest.(check bool) "valid" true (Pimcomp.Chromosome.is_valid c)
  done

let test_infeasible () =
  let table = table_of "vgg16" 56 in
  let rng = Pimcomp.Rng.create ~seed:3 in
  match
    Pimcomp.Chromosome.random_initial rng table ~core_count:2
      ~max_node_num_in_core:4 ()
  with
  | exception Pimcomp.Chromosome.Infeasible _ -> ()
  | _ -> Alcotest.fail "vgg16 on 2 cores accepted"

(* Every mutation preserves all invariants. *)
let mutations_preserve_invariants =
  QCheck.Test.make ~name:"mutations preserve invariants" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 1 60))
    (fun (seed, steps) ->
      let table = tiny_table () in
      let rng = Pimcomp.Rng.create ~seed in
      let c =
        Pimcomp.Chromosome.random_initial rng table ~core_count:6
          ~max_node_num_in_core:6 ~extra_replica_attempts:2 ()
      in
      let ok = ref (Pimcomp.Chromosome.is_valid c) in
      for _ = 1 to steps do
        ignore (Pimcomp.Chromosome.mutate_random rng c);
        if not (Pimcomp.Chromosome.is_valid c) then ok := false
      done;
      !ok)

let test_mutation_add_remove_inverse () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:5 in
  let c =
    Pimcomp.Chromosome.random_initial rng table ~core_count:6
      ~max_node_num_in_core:6 ()
  in
  let n = Pimcomp.Partition.num_weighted table in
  let total () =
    List.init n (fun i -> Pimcomp.Chromosome.total_ags c i)
    |> List.fold_left ( + ) 0
  in
  let total_before = total () in
  let added = Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Add_replica in
  Alcotest.(check bool) "add works" true added;
  let removed =
    Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Remove_replica
  in
  Alcotest.(check bool) "remove works" true removed;
  Alcotest.(check int) "totals match" total_before (total ())

let test_remove_needs_replicas () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:7 in
  let c =
    Pimcomp.Chromosome.random_initial rng table ~core_count:6
      ~max_node_num_in_core:6 ~extra_replica_attempts:0 ()
  in
  Alcotest.(check bool) "remove refused" false
    (Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Remove_replica)

let test_spread_and_merge_counts () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:11 in
  let c =
    Pimcomp.Chromosome.compact_initial rng table ~core_count:6
      ~max_node_num_in_core:6 ~extra_replica_attempts:4 ()
  in
  let n = Pimcomp.Partition.num_weighted table in
  let totals () = List.init n (fun i -> Pimcomp.Chromosome.total_ags c i) in
  let before = totals () in
  for _ = 1 to 30 do
    ignore (Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Spread_gene);
    ignore (Pimcomp.Chromosome.mutate rng c Pimcomp.Chromosome.Merge_gene)
  done;
  Alcotest.(check (list int)) "totals invariant" before (totals ());
  Alcotest.(check bool) "still valid" true (Pimcomp.Chromosome.is_valid c)

(* [Layout.of_chromosome] places exactly the AGs the genes count: global
   ids are dense, every replica is whole, and each core holds as many of
   a node's AGs as its gene says. *)
let test_placements_dense_and_consistent () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:13 in
  let c =
    Pimcomp.Chromosome.random_initial rng table ~core_count:6
      ~max_node_num_in_core:6 ~extra_replica_attempts:4 ()
  in
  let layout = Pimcomp.Layout.of_chromosome c in
  let num_ags = layout.Pimcomp.Layout.num_ags in
  let seen = Array.make num_ags 0 in
  Array.iteri
    (fun node_index (nl : Pimcomp.Layout.node_layout) ->
      let info = Pimcomp.Partition.entry table node_index in
      Alcotest.(check int) "replica count"
        (Pimcomp.Chromosome.replication c node_index)
        (Array.length nl.Pimcomp.Layout.replicas);
      let on_core = Array.make 6 0 in
      Array.iter
        (fun (r : Pimcomp.Layout.replica) ->
          Alcotest.(check int) "whole replica"
            info.Pimcomp.Partition.ags_per_replica
            (Array.length r.Pimcomp.Layout.ag_ids);
          Array.iteri
            (fun i ag ->
              seen.(ag) <- seen.(ag) + 1;
              let core = r.Pimcomp.Layout.ag_cores.(i) in
              on_core.(core) <- on_core.(core) + 1)
            r.Pimcomp.Layout.ag_ids)
        nl.Pimcomp.Layout.replicas;
      Array.iteri
        (fun core n ->
          Alcotest.(check int) "AGs on core match its gene"
            (Pimcomp.Chromosome.gene_ags
               (Pimcomp.Chromosome.genes c core)
               node_index)
            n)
        on_core)
    layout.Pimcomp.Layout.by_node_index;
  Alcotest.(check (array int)) "dense global ids, each placed once"
    (Array.make num_ags 1) seen

(* Each replica's groups list its AGs by core, ascending, in replica
   order, and a node's replicas together use exactly the cores holding
   a gene of it. *)
let test_replica_groups () =
  let table = tiny_table () in
  let rng = Pimcomp.Rng.create ~seed:17 in
  let c =
    Pimcomp.Chromosome.random_initial rng table ~core_count:6
      ~max_node_num_in_core:6 ~extra_replica_attempts:4 ()
  in
  let layout = Pimcomp.Layout.of_chromosome c in
  Array.iteri
    (fun node_index (nl : Pimcomp.Layout.node_layout) ->
      let used = ref [] in
      Array.iter
        (fun (r : Pimcomp.Layout.replica) ->
          let cores = List.map fst r.Pimcomp.Layout.groups in
          Alcotest.(check (list int)) "cores ascending and distinct"
            (List.sort_uniq compare
               (Array.to_list r.Pimcomp.Layout.ag_cores))
            cores;
          List.iter
            (fun (core, ags) ->
              Alcotest.(check (list int)) "the core's AGs in replica order"
                (List.filteri
                   (fun i _ -> r.Pimcomp.Layout.ag_cores.(i) = core)
                   (Array.to_list r.Pimcomp.Layout.ag_ids))
                ags)
            r.Pimcomp.Layout.groups;
          used := cores @ !used)
        nl.Pimcomp.Layout.replicas;
      let holders =
        List.filter
          (fun core ->
            Pimcomp.Chromosome.gene_ags (Pimcomp.Chromosome.genes c core)
              node_index
            > 0)
          (List.init 6 Fun.id)
      in
      Alcotest.(check (list int)) "replica cores are the gene holders"
        holders
        (List.sort_uniq compare !used))
    layout.Pimcomp.Layout.by_node_index

let () =
  Alcotest.run "chromosome"
    [
      ( "encoding",
        [
          Alcotest.test_case "paper example" `Quick test_encoding;
          QCheck_alcotest.to_alcotest encode_decode_roundtrip;
        ] );
      ( "construction",
        [
          Alcotest.test_case "random initial valid" `Quick
            test_random_initial_valid;
          Alcotest.test_case "compact initial valid" `Quick
            test_compact_initial_valid;
          Alcotest.test_case "infeasible detected" `Quick test_infeasible;
        ] );
      ( "mutations",
        [
          QCheck_alcotest.to_alcotest mutations_preserve_invariants;
          Alcotest.test_case "add/remove inverse" `Quick
            test_mutation_add_remove_inverse;
          Alcotest.test_case "remove needs replicas" `Quick
            test_remove_needs_replicas;
          Alcotest.test_case "spread/merge totals" `Quick
            test_spread_and_merge_counts;
        ] );
      ( "placement",
        [
          Alcotest.test_case "dense and consistent" `Quick
            test_placements_dense_and_consistent;
          Alcotest.test_case "replica groups" `Quick test_replica_groups;
        ] );
    ]
