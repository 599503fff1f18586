(* Concrete mapping layout derived from a chromosome: the per-replica
   view both schedulers consume.  This is the one place that turns the
   genes' AG counts into concrete AG placements.

   A replica ("replicated weight block" in the paper) is one full copy of
   a node's weight matrix: [ags_per_replica] AGs, possibly spread over
   several cores.  Partial results of a replica's AGs are accumulated at
   the replica's head core — the core of its first AG (Section IV-D1).

   Work split across replicas:
   - HT mode: contiguous window ranges (replica r owns windows
     [lo, hi) of the node's H_out * W_out sliding windows);
   - LL mode: the output columns of every row — {!Schedule_ll} cuts each
     row into C column chunks and gives chunk j to replica j * R / C, a
     contiguous block of chunks per replica, so all R replicas cooperate
     on every row (DESIGN.md §3.3).  The LL schedulers do not read the
     window range. *)

type replica = {
  ag_ids : int array;          (* global AG ids, by AG index in the replica *)
  ag_cores : int array;        (* core of each AG *)
  head_core : int;
  groups : (int * int list) list;
      (* (core, its AG ids in replica order), ascending core *)
  window_lo : int;             (* HT share: [window_lo, window_hi) *)
  window_hi : int;
}

type node_layout = {
  info : Partition.info;
  replication : int;
  replicas : replica array;
}

type t = {
  table : Partition.table;
  graph : Nnir.Graph.t;
  core_count : int;
  num_ags : int;
  ag_core : int array;           (* global AG id -> core *)
  ag_xbars : int array;          (* global AG id -> crossbars driven *)
  by_node_index : node_layout array;
}

let core_groups ag_ids ag_cores =
  List.sort_uniq compare (Array.to_list ag_cores)
  |> List.map (fun core ->
         ( core,
           List.filteri (fun i _ -> ag_cores.(i) = core) (Array.to_list ag_ids)
         ))

(* Deterministic placement: each node's holders (the cores with a gene
   of it) are visited by descending gene size, so large genes receive
   whole replicas and splitting is rare; ties go to the lower core.
   Slot s of the visit is AG (s mod ags_per_replica) of replica
   (s / ags_per_replica), and global AG ids are dense in node-then-slot
   order. *)
let of_chromosome chrom =
  let table = Chromosome.table chrom in
  let core_count = Chromosome.core_count chrom in
  let n = Partition.num_weighted table in
  let num_ags = ref 0 in
  for node_index = 0 to n - 1 do
    num_ags := !num_ags + Chromosome.total_ags chrom node_index
  done;
  let ag_core = Array.make !num_ags 0 in
  (* The last AG of a replica may drive fewer rows, but it still
     occupies whole crossbars; every AG drives xbars_per_ag arrays. *)
  let ag_xbars = Array.make !num_ags 0 in
  let next_ag = ref 0 in
  let by_node_index =
    Array.init n (fun node_index ->
        let info = Partition.entry table node_index in
        let per_replica = info.Partition.ags_per_replica in
        let replication = Chromosome.replication chrom node_index in
        let ag_ids = Array.init replication (fun _ -> Array.make per_replica 0)
        and ag_cores =
          Array.init replication (fun _ -> Array.make per_replica 0)
        in
        (* [List.init] lists the cores ascending, and the stable sort
           keeps that order among equal counts *)
        let holders =
          List.init core_count (fun core ->
              let genes = Chromosome.genes chrom core in
              (core, Chromosome.gene_ags genes node_index))
          |> List.filter (fun (_, ags) -> ags > 0)
          |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
        in
        let slot = ref 0 in
        List.iter
          (fun (core, ags) ->
            for _ = 1 to ags do
              let r = !slot / per_replica and a = !slot mod per_replica in
              ag_ids.(r).(a) <- !next_ag;
              ag_cores.(r).(a) <- core;
              ag_core.(!next_ag) <- core;
              ag_xbars.(!next_ag) <- info.Partition.xbars_per_ag;
              incr next_ag;
              incr slot
            done)
          holders;
        let windows = info.Partition.windows in
        let replicas =
          Array.init replication (fun r ->
              {
                ag_ids = ag_ids.(r);
                ag_cores = ag_cores.(r);
                head_core = ag_cores.(r).(0);
                groups = core_groups ag_ids.(r) ag_cores.(r);
                window_lo = r * windows / replication;
                window_hi = (r + 1) * windows / replication;
              })
        in
        { info; replication; replicas })
  in
  {
    table;
    graph = Partition.table_graph table;
    core_count;
    num_ags = !num_ags;
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
