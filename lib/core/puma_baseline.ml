(* The PUMA-like baseline (Section V-A2): the paper compares against a
   faithful reimplementation of PUMA's dataflow decisions inside the same
   framework.  Per [10], [18]:

   - replication balances the inter-layer pipeline by rate matching:
     each convolution wants windows_i / min_conv_windows replicas so all
     stages produce at the same rate.  Crucially, PUMA allocates these
     "intuitively", front to back ("replicating weight data in early
     layers"), so when the crossbar budget runs out the later layers are
     left unreplicated — the resource-inefficiency the paper critiques;
   - core mapping is a sequential heuristic: nodes are walked in
     topological order and their AGs packed first-fit into cores, filling
     one core before opening the next.

   Both produce a {!Chromosome.t}, so the identical scheduler, memory
   allocator and simulator run downstream — only the replication/mapping
   policy differs, exactly as in the paper's comparison. *)

(* PUMA's rate-matching replication, allocated greedily in topological
   order.  FC layers (1 window) are never replicated. *)
let puma_replication table ~core_count ~budget_fraction =
  let config = Partition.table_config table in
  let entries = Partition.entries table in
  let n = Array.length entries in
  let replication = Array.make n 1 in
  let budget =
    int_of_float
      (float_of_int (core_count * config.Pimhw.Config.xbars_per_core)
      *. budget_fraction)
  in
  let spare = ref (budget - Partition.min_xbars table) in
  if !spare > 0 then begin
    let min_conv_windows =
      Array.fold_left
        (fun acc (info : Partition.info) ->
          if info.Partition.windows > 1 then min acc info.Partition.windows
          else acc)
        max_int entries
    in
    if min_conv_windows < max_int then
      (* node ids ascend in construction order, which the builders keep
         topological: front-to-back allocation *)
      Array.iteri
        (fun i (info : Partition.info) ->
          if info.Partition.windows > 1 then begin
            let desired =
              Partition.ceil_div info.Partition.windows min_conv_windows
            in
            let cost = Partition.xbars_per_replica info in
            let affordable = if cost = 0 then 0 else !spare / cost in
            let extra = min (desired - 1) affordable in
            if extra > 0 then begin
              replication.(i) <- 1 + extra;
              spare := !spare - (extra * cost)
            end
          end)
        entries
  end;
  replication

(* Sequential first-fit mapping of the chosen replication. *)
let sequential_mapping table replication ~core_count ~max_node_num_in_core =
  let chrom =
    Chromosome.create_empty table ~core_count ~max_node_num_in_core
  in
  let core = ref 0 in
  let place node_index (info : Partition.info) =
    let remaining =
      ref (replication.(node_index) * info.Partition.ags_per_replica)
    in
    while !remaining > 0 do
      if !core >= core_count then
        raise
          (Chromosome.Infeasible
             (Fmt.str "PUMA-like mapping ran out of cores for node %s"
                info.Partition.name));
      let free = Chromosome.free_xbars chrom !core in
      let slot_ok =
        List.exists
          (fun (g : Chromosome.gene) -> g.node_index = node_index)
          (Chromosome.genes chrom !core)
        || List.length (Chromosome.genes chrom !core) < max_node_num_in_core
      in
      let cap = if slot_ok then free / info.Partition.xbars_per_ag else 0 in
      let take = min cap !remaining in
      if take > 0 then begin
        Chromosome.add_ags chrom ~core:!core ~node_index ~count:take;
        remaining := !remaining - take
      end
      else incr core
    done
  in
  (* Topological order over weighted nodes = ascending node index (node
     ids are assigned in construction order, which the builders keep
     topological). *)
  Array.iteri place (Partition.entries table);
  chrom

let build table ~core_count ~max_node_num_in_core =
  let replication =
    puma_replication table ~core_count ~budget_fraction:0.85
  in
  sequential_mapping table replication ~core_count ~max_node_num_in_core
