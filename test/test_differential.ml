(* Differential tests: the flat-arena schedulers must emit programs
   bit-identical to the reference hashtable formulations
   ({!Pimcomp.Schedule_ll_ref} / {!Pimcomp.Schedule_ht_ref}) — same
   instructions, same deps, same rendezvous tags, same mem_trace.  Any
   divergence means the dense index spaces renumbered something the
   reference keyed differently. *)

let hw = Pimhw.Config.puma_like

let table_of name size =
  let table =
    Pimcomp.Partition.of_graph hw (Nnir.Zoo.build ~input_size:size name)
  in
  (table, Pimcomp.Partition.fit_core_count table)

let layout_of ?(seed = 1) name size =
  let table, core_count = table_of name size in
  let rng = Pimcomp.Rng.create ~seed in
  let chrom =
    Pimcomp.Chromosome.random_initial rng table ~core_count
      ~max_node_num_in_core:16 ~extra_replica_attempts:4 ()
  in
  Pimcomp.Layout.of_chromosome chrom

(* The PUMA-like baseline's replication and first-fit mapping. *)
let puma_layout_of name size =
  let table, core_count = table_of name size in
  Pimcomp.Layout.of_chromosome
    (Pimcomp.Puma_baseline.build table ~core_count ~max_node_num_in_core:16)

let strategies =
  [ Pimcomp.Memalloc.Naive; Pimcomp.Memalloc.Add_reuse;
    Pimcomp.Memalloc.Ag_reuse ]

let strategy_name s = Pimcomp.Memalloc.strategy_name s

(* Pinpoint the first divergence instead of just failing [a = b], so a
   regression names the core and instruction that moved. *)
let check_identical label (a : Pimcomp.Isa.t) (b : Pimcomp.Isa.t) =
  Alcotest.(check int) (label ^ " core count") a.core_count b.core_count;
  Alcotest.(check int) (label ^ " tags") a.num_tags b.num_tags;
  Array.iteri
    (fun core (ia : Pimcomp.Isa.instr array) ->
      let ib = b.cores.(core) in
      Alcotest.(check int)
        (Fmt.str "%s core %d length" label core)
        (Array.length ia) (Array.length ib);
      Array.iteri
        (fun i x ->
          if x <> ib.(i) then
            Alcotest.failf "%s: core %d instr %d differs: %a vs %a" label core
              i Pimcomp.Isa.pp_instr x Pimcomp.Isa.pp_instr ib.(i))
        ia)
    a.cores;
  if a.mem_trace <> b.mem_trace then
    Alcotest.failf "%s: mem_trace differs" label;
  if a <> b then Alcotest.failf "%s: programs differ" label

let ll_pair ~strategy layout =
  let options = { Pimcomp.Schedule_ll.default_options with strategy } in
  let ref_options = { Pimcomp.Schedule_ll_ref.default_options with strategy } in
  ( Pimcomp.Schedule_ll.schedule ~options layout,
    Pimcomp.Schedule_ll_ref.schedule ~options:ref_options layout )

let ht_pair ~strategy layout =
  let options = { Pimcomp.Schedule_ht.mvms_per_transfer = 2; strategy; spill_budget = None } in
  let ref_options =
    { Pimcomp.Schedule_ht_ref.mvms_per_transfer = 2; strategy; spill_budget = None }
  in
  ( Pimcomp.Schedule_ht.schedule ~options layout,
    Pimcomp.Schedule_ht_ref.schedule ~options:ref_options layout )

let test_network name =
  let size = Nnir.Zoo.min_input_size name in
  List.iter
    (fun (mapping, layout) ->
      List.iter
        (fun strategy ->
          let tag mode =
            Fmt.str "%s %s %s %s" name mapping mode (strategy_name strategy)
          in
          let ll, ll_ref = ll_pair ~strategy layout in
          check_identical (tag "LL") ll ll_ref;
          let ht, ht_ref = ht_pair ~strategy layout in
          check_identical (tag "HT") ht ht_ref)
        strategies)
    [ ("random", layout_of name size); ("puma", puma_layout_of name size) ]

let zoo_cases =
  List.map
    (fun name ->
      Alcotest.test_case name `Quick (fun () -> test_network name))
    Nnir.Zoo.names

(* Random layouts: many seeds over a graph with branching (squeezenet)
   and one with plain chains (tiny), AG-reuse only — the strategy sweep
   above already covers the allocator axis. *)
let qcheck_random_layouts =
  let test =
    QCheck.Test.make ~count:12 ~name:"random layouts bit-identical"
      QCheck.(pair (int_range 0 1000) (int_range 0 1))
      (fun (seed, which) ->
        let name, size =
          if which = 0 then ("tiny", 16) else ("squeezenet", 56)
        in
        let layout = layout_of ~seed name size in
        let ll, ll_ref = ll_pair ~strategy:Pimcomp.Memalloc.Ag_reuse layout in
        let ht, ht_ref = ht_pair ~strategy:Pimcomp.Memalloc.Ag_reuse layout in
        ll = ll_ref && ht = ht_ref)
  in
  QCheck_alcotest.to_alcotest test

(* A node consuming the same provider twice (residual add of a tensor
   with itself) must share a delivery mark across both input positions,
   exactly like the (consumer, provider) hash key did. *)
let test_duplicate_provider_edges () =
  let g = Nnir.Zoo.build ~input_size:56 "resnet18" in
  let slots, _total = Pimcomp.Sched_common.input_edge_slots g in
  Nnir.Graph.iter
    (fun node ->
      let inputs = Array.of_list (Nnir.Node.inputs node) in
      let arr = slots.(Nnir.Node.id node) in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              Alcotest.(check bool)
                "slots coincide iff providers coincide" (inputs.(i) = inputs.(j))
                (a = b))
            arr)
        arr)
    g

let () =
  Alcotest.run "differential"
    [
      ("zoo", zoo_cases);
      ( "random",
        [ qcheck_random_layouts;
          Alcotest.test_case "duplicate provider edges" `Quick
            test_duplicate_provider_edges ] );
    ]
