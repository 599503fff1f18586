(* Concrete mapping layout derived from a chromosome: the per-replica
   view both schedulers consume.

   A replica ("replicated weight block" in the paper) is one full copy of
   a node's weight matrix: [ags_per_replica] AGs, possibly spread over
   several cores.  Partial results of a replica's AGs are accumulated at
   the replica's head core — the core of its first AG (Section IV-D1).

   Work split across replicas:
   - HT mode: contiguous window ranges (replica r owns windows
     [lo, hi) of the node's H_out * W_out sliding windows);
   - LL mode: output rows round-robin (row 1-based r belongs to replica
     (r - 1) mod R), which staggers replicas across the row pipeline. *)

type replica = {
  node_index : int;
  node_id : Nnir.Node.id;
  replica_index : int;
  ag_ids : int array;          (* global AG ids, by ag_in_replica *)
  ag_cores : int array;        (* core of each AG *)
  head_core : int;
  distinct_cores : int list;   (* cores hosting this replica, ascending *)
  window_lo : int;             (* HT share: [window_lo, window_hi) *)
  window_hi : int;
}

type node_layout = {
  info : Partition.info;
  replication : int;
  replicas : replica array;
}

type t = {
  chromosome : Chromosome.t;
  table : Partition.table;
  graph : Nnir.Graph.t;
  core_count : int;
  num_ags : int;
  ag_core : int array;           (* global AG id -> core *)
  ag_xbars : int array;          (* global AG id -> crossbars driven *)
  by_node_index : node_layout array;
}

let of_chromosome chrom =
  let table = Chromosome.table chrom in
  let graph = Partition.table_graph table in
  let placements = Chromosome.placements chrom in
  let num_ags = Array.length placements in
  let ag_core = Array.make num_ags 0 in
  let ag_xbars = Array.make num_ags 0 in
  Array.iter
    (fun (p : Chromosome.placement) ->
      ag_core.(p.p_global_ag) <- p.p_core;
      let info = Partition.entry table p.p_node_index in
      (* The last AG of a replica may drive fewer rows, but it still
         occupies whole crossbars; every AG drives xbars_per_ag arrays. *)
      ag_xbars.(p.p_global_ag) <- info.Partition.xbars_per_ag)
    placements;
  let n = Partition.num_weighted table in
  let by_node_index =
    Array.init n (fun node_index ->
        let info = Partition.entry table node_index in
        let replication = Chromosome.replication chrom node_index in
        let node_placements =
          Array.to_list placements
          |> List.filter (fun (p : Chromosome.placement) ->
                 p.p_node_index = node_index)
        in
        let replicas =
          Array.init replication (fun replica_index ->
              let ags =
                List.filter
                  (fun (p : Chromosome.placement) ->
                    p.p_replica = replica_index)
                  node_placements
                |> List.sort (fun (a : Chromosome.placement) b ->
                       compare a.p_ag_in_replica b.p_ag_in_replica)
              in
              let ag_ids =
                Array.of_list
                  (List.map (fun (p : Chromosome.placement) -> p.p_global_ag) ags)
              in
              let ag_cores =
                Array.of_list
                  (List.map (fun (p : Chromosome.placement) -> p.p_core) ags)
              in
              let windows = info.Partition.windows in
              let window_lo = replica_index * windows / replication in
              let window_hi = (replica_index + 1) * windows / replication in
              {
                node_index;
                node_id = info.Partition.node_id;
                replica_index;
                ag_ids;
                ag_cores;
                head_core = ag_cores.(0);
                distinct_cores =
                  Array.to_list ag_cores |> List.sort_uniq compare;
                window_lo;
                window_hi;
              })
        in
        { info; replication; replicas })
  in
  {
    chromosome = chrom;
    table;
    graph;
    core_count = Chromosome.core_count chrom;
    num_ags;
    ag_core;
    ag_xbars;
    by_node_index;
  }

let node_layout t node_index = t.by_node_index.(node_index)

let node_layout_by_id t node_id =
  match Partition.index_of_node t.table node_id with
  | -1 -> None
  | i -> Some t.by_node_index.(i)

let replication_by_id t node_id =
  match node_layout_by_id t node_id with
  | Some l -> l.replication
  | None -> 1

(* AGs of a replica grouped by hosting core: (core, ag ids) ascending. *)
let ags_by_core (r : replica) =
  let tbl = Hashtbl.create 4 in
  Array.iteri
    (fun i core ->
      let cur = try Hashtbl.find tbl core with Not_found -> [] in
      Hashtbl.replace tbl core (r.ag_ids.(i) :: cur))
    r.ag_cores;
  Hashtbl.fold (fun core ags acc -> (core, List.rev ags) :: acc) tbl []
  |> List.sort compare
