(* GA encoding for weight replicating + core mapping (paper Section IV-C1).

   A gene is "several AGs of a node" carried by one core, encoded as the
   integer [node_index * 10000 + ag_count] (the paper's encoding; e.g.
   1030025 = 25 AGs of node 103).  A chromosome holds up to
   [max_node_num_in_core] genes per core for [core_count] cores.

   Invariants (checked by [validate]):
   - every weighted node appears with a total AG count that is a positive
     multiple of its [ags_per_replica] (whole replicas exist globally,
     though a replica's AGs may be split across cores);
   - per-core crossbar capacity is respected;
   - per-core gene count is at most [max_node_num_in_core]. *)

type gene = { node_index : int; ag_count : int }

let encode g =
  if g.ag_count < 0 || g.ag_count >= 10000 then
    invalid_arg "Chromosome.encode: ag_count outside [0, 10000)";
  if g.node_index < 0 then invalid_arg "Chromosome.encode: negative node_index";
  (g.node_index * 10000) + g.ag_count

let decode code =
  if code < 0 then invalid_arg "Chromosome.decode: negative code";
  { node_index = code / 10000; ag_count = code mod 10000 }

type t = {
  table : Partition.table;
  (* copied out of [table] at construction: the mutations read them per
     candidate, and a field read is cheaper than a call into [Partition] *)
  entries : Partition.info array;
  xbars_per_core : int;
  core_count : int;
  max_node_num_in_core : int;
  (* cores.(c) is the gene list of core c, kept sorted by node_index with
     at most one gene per node per core and strictly positive counts. *)
  mutable cores : gene list array;
  (* caches kept in sync by [add_ags]/[remove_ags] (the only two places
     that modify gene lists): node_ags.(n) is the total AG count of
     weighted node n across all cores, used_xbars.(c) the crossbars
     occupied on core c.  They make replication / capacity queries O(1)
     during mutation instead of rescanning every gene list. *)
  node_ags : int array;
  used_xbars : int array;
  (* scratch for the mutation core-visit order; carries nothing between
     calls, so parent and children share one array *)
  scratch_order : int array;
}

let copy t =
  {
    t with
    cores = Array.copy t.cores;
    node_ags = Array.copy t.node_ags;
    used_xbars = Array.copy t.used_xbars;
  }

(* [copy] deliberately shares [scratch_order] between parent and child —
   it carries nothing between calls, and within one domain the sharing
   is free.  Across domains it is a data race: two chromosomes mutating
   concurrently would shuffle the same array.  [unshare] is the copy to
   use when a chromosome crosses a domain boundary (island migration,
   seeding another island's population). *)
let unshare t = { (copy t) with scratch_order = Array.make t.core_count 0 }

let core_count t = t.core_count
let table t = t.table
let genes t core = t.cores.(core)

(* --- derived quantities ------------------------------------------------- *)

let core_xbars t core = t.used_xbars.(core)
let total_ags t node_index = t.node_ags.(node_index)

let replication t node_index =
  total_ags t node_index / t.entries.(node_index).Partition.ags_per_replica

(* --- validation --------------------------------------------------------- *)

type violation =
  | Core_over_capacity of { core : int; used : int; capacity : int }
  | Too_many_nodes_in_core of { core : int; count : int; limit : int }
  | Missing_node of { node_index : int }
  | Partial_replica of { node_index : int; total_ags : int; per_replica : int }
  | Non_positive_gene of { core : int; node_index : int; ag_count : int }
  | Stale_cache of { node_index : int; cached : int; actual : int }

let pp_violation ppf = function
  | Core_over_capacity { core; used; capacity } ->
      Fmt.pf ppf "core %d uses %d crossbars (capacity %d)" core used capacity
  | Too_many_nodes_in_core { core; count; limit } ->
      Fmt.pf ppf "core %d holds %d nodes (limit %d)" core count limit
  | Missing_node { node_index } ->
      Fmt.pf ppf "weighted node %d has no AGs mapped" node_index
  | Partial_replica { node_index; total_ags; per_replica } ->
      Fmt.pf ppf "node %d has %d AGs, not a multiple of %d" node_index
        total_ags per_replica
  | Non_positive_gene { core; node_index; ag_count } ->
      Fmt.pf ppf "core %d gene for node %d has count %d" core node_index
        ag_count
  | Stale_cache { node_index; cached; actual } ->
      Fmt.pf ppf "node %d AG-count cache says %d but gene lists hold %d"
        node_index cached actual

(* Validation recomputes everything from the raw gene lists rather than
   reading the node_ags/used_xbars caches, so a cache-maintenance bug is
   caught instead of certified. *)
let raw_core_xbars t core =
  List.fold_left
    (fun acc g ->
      acc + (g.ag_count * (Partition.entry t.table g.node_index).xbars_per_ag))
    0 t.cores.(core)

let raw_total_ags t node_index =
  Array.fold_left
    (fun acc gene_list ->
      List.fold_left
        (fun acc g ->
          if g.node_index = node_index then acc + g.ag_count else acc)
        acc gene_list)
    0 t.cores

let violations t =
  let config = Partition.table_config t.table in
  let acc = ref [] in
  Array.iteri
    (fun core gene_list ->
      let used = raw_core_xbars t core in
      if used > config.Pimhw.Config.xbars_per_core then
        acc :=
          Core_over_capacity
            { core; used; capacity = config.Pimhw.Config.xbars_per_core }
          :: !acc;
      let count = List.length gene_list in
      if count > t.max_node_num_in_core then
        acc :=
          Too_many_nodes_in_core { core; count; limit = t.max_node_num_in_core }
          :: !acc;
      List.iter
        (fun g ->
          if g.ag_count <= 0 then
            acc :=
              Non_positive_gene
                { core; node_index = g.node_index; ag_count = g.ag_count }
              :: !acc)
        gene_list)
    t.cores;
  Array.iteri
    (fun node_index info ->
      let total = raw_total_ags t node_index in
      if total <> t.node_ags.(node_index) then
        acc :=
          Stale_cache
            { node_index; cached = t.node_ags.(node_index); actual = total }
          :: !acc;
      if total = 0 then acc := Missing_node { node_index } :: !acc
      else if total mod info.Partition.ags_per_replica <> 0 then
        acc :=
          Partial_replica
            {
              node_index;
              total_ags = total;
              per_replica = info.Partition.ags_per_replica;
            }
          :: !acc)
    (Partition.entries t.table);
  List.rev !acc

let is_valid t = violations t = []

(* --- gene-list surgery --------------------------------------------------- *)

(* AG count of [node_index] in a gene list, 0 when the node has no gene
   there (stored counts are strictly positive).  Lists are sorted by
   node_index, so the scan stops at the first gene past it. *)
let rec gene_ags gene_list node_index =
  match gene_list with
  | [] -> 0
  | g :: rest ->
      if g.node_index < node_index then gene_ags rest node_index
      else if g.node_index = node_index then g.ag_count
      else 0

(* Insert / replace / drop (ag_count = 0) in a single pass, preserving
   the sorted-by-node_index invariant and sharing the untouched tail. *)
let rec set_gene gene_list node_index ag_count =
  match gene_list with
  | [] -> if ag_count = 0 then [] else [ { node_index; ag_count } ]
  | g :: rest ->
      if g.node_index < node_index then
        g :: set_gene rest node_index ag_count
      else if g.node_index = node_index then
        if ag_count = 0 then rest else { node_index; ag_count } :: rest
      else if ag_count = 0 then gene_list
      else { node_index; ag_count } :: gene_list

let add_ags t ~core ~node_index ~count =
  let current = gene_ags t.cores.(core) node_index in
  t.cores.(core) <- set_gene t.cores.(core) node_index (current + count);
  t.node_ags.(node_index) <- t.node_ags.(node_index) + count;
  t.used_xbars.(core) <-
    t.used_xbars.(core) + (count * t.entries.(node_index).xbars_per_ag)

let remove_ags t ~core ~node_index ~count =
  let current = gene_ags t.cores.(core) node_index in
  if current <> 0 && current >= count then begin
    t.cores.(core) <- set_gene t.cores.(core) node_index (current - count);
    t.node_ags.(node_index) <- t.node_ags.(node_index) - count;
    t.used_xbars.(core) <-
      t.used_xbars.(core) - (count * t.entries.(node_index).xbars_per_ag);
    true
  end
  else false

(* Crossbars still free on a core. *)
let free_xbars t core = t.xbars_per_core - core_xbars t core

(* Scatter [count] AGs of a node over cores with space, visiting cores
   in random order (the fitness function judges whether co-locating with
   existing genes or opening fresh cores was the better move).  Returns
   the cores that received AGs, or [None] (and rolls back) if they don't
   all fit. *)
let scatter_ags_cores rng t ~node_index ~count =
  let info = t.entries.(node_index) in
  let order = t.scratch_order in
  for i = 0 to t.core_count - 1 do
    order.(i) <- i
  done;
  Rng.shuffle rng order;
  (* the receiving cores, latest first, and what each took *)
  let cores = ref [] and takes = ref [] in
  let remaining = ref count in
  let i = ref 0 in
  while !remaining > 0 && !i < t.core_count do
    let core = order.(!i) in
    incr i;
    let cap = free_xbars t core / info.Partition.xbars_per_ag in
    let cap =
      if gene_ags t.cores.(core) node_index <> 0 then cap
      else if List.length t.cores.(core) < t.max_node_num_in_core then cap
      else 0
    in
    let take = Int.min cap !remaining in
    if take > 0 then begin
      add_ags t ~core ~node_index ~count:take;
      cores := core :: !cores;
      takes := take :: !takes;
      remaining := !remaining - take
    end
  done;
  if !remaining = 0 then Some !cores
  else begin
    List.iter2
      (fun core take -> ignore (remove_ags t ~core ~node_index ~count:take))
      !cores !takes;
    None
  end

let scatter_ags rng t ~node_index ~count =
  scatter_ags_cores rng t ~node_index ~count <> None

(* --- construction ------------------------------------------------------- *)

exception Infeasible of string

let create_empty table ~core_count ~max_node_num_in_core =
  if core_count <= 0 then invalid_arg "Chromosome: core_count <= 0";
  if max_node_num_in_core <= 0 then
    invalid_arg "Chromosome: max_node_num_in_core <= 0";
  {
    table;
    entries = Partition.entries table;
    xbars_per_core = (Partition.table_config table).Pimhw.Config.xbars_per_core;
    core_count;
    max_node_num_in_core;
    cores = Array.make core_count [];
    node_ags = Array.make (Partition.num_weighted table) 0;
    used_xbars = Array.make core_count 0;
    scratch_order = Array.make core_count 0;
  }

(* Random initial individual: one replica per node, AGs scattered.  The
   paper also randomises the initial replication number; we optionally add
   a few extra replicas where capacity allows. *)
let random_initial rng table ~core_count ~max_node_num_in_core
    ?(extra_replica_attempts = 0) () =
  let t = create_empty table ~core_count ~max_node_num_in_core in
  let entries = Partition.entries table in
  let order = Array.init (Array.length entries) (fun i -> i) in
  Rng.shuffle rng order;
  Array.iter
    (fun node_index ->
      let info = entries.(node_index) in
      if
        not
          (scatter_ags rng t ~node_index ~count:info.Partition.ags_per_replica)
      then
        raise
          (Infeasible
             (Fmt.str
                "network does not fit: node %s needs %d AGs but capacity is \
                 exhausted (%d cores x %d crossbars)"
                info.Partition.name info.Partition.ags_per_replica core_count
                (Partition.table_config table).Pimhw.Config.xbars_per_core)))
    order;
  for _ = 1 to extra_replica_attempts do
    let node_index = Rng.int rng (Array.length entries) in
    let info = entries.(node_index) in
    ignore
      (scatter_ags rng t ~node_index ~count:info.Partition.ags_per_replica)
  done;
  t

(* Compact random individual: nodes in random order, AGs packed
   sequentially into cores starting at a random offset.  Keeps replicas
   whole (low inter-core accumulation) while still sampling diverse
   mappings — the useful region of the search space the pure scatter
   rarely hits. *)
let compact_initial rng table ~core_count ~max_node_num_in_core
    ?(extra_replica_attempts = 0) () =
  let t = create_empty table ~core_count ~max_node_num_in_core in
  let entries = Partition.entries table in
  let order = Array.init (Array.length entries) (fun i -> i) in
  Rng.shuffle rng order;
  let core = ref (Rng.int rng core_count) in
  let advance () = core := (!core + 1) mod core_count in
  let place node_index count =
    let info = entries.(node_index) in
    let remaining = ref count in
    let tried = ref 0 in
    while !remaining > 0 do
      if !tried > core_count then
        raise
          (Infeasible
             (Fmt.str "network does not fit: node %s needs %d more AGs"
                info.Partition.name !remaining));
      let c = !core in
      let slot_ok =
        gene_ags t.cores.(c) node_index <> 0
        || List.length t.cores.(c) < max_node_num_in_core
      in
      let cap =
        if slot_ok then free_xbars t c / info.Partition.xbars_per_ag else 0
      in
      let take = Int.min cap !remaining in
      if take > 0 then begin
        add_ags t ~core:c ~node_index ~count:take;
        remaining := !remaining - take;
        tried := 0
      end
      else begin
        advance ();
        incr tried
      end
    done
  in
  Array.iter
    (fun node_index ->
      place node_index entries.(node_index).Partition.ags_per_replica)
    order;
  for _ = 1 to extra_replica_attempts do
    let node_index = Rng.int rng (Array.length entries) in
    (try place node_index entries.(node_index).Partition.ags_per_replica
     with Infeasible _ -> ())
  done;
  t

(* --- mutations (paper Section IV-C1, operations I-IV) ------------------- *)

type mutation = Add_replica | Remove_replica | Spread_gene | Merge_gene

let all_mutations = [| Add_replica; Remove_replica; Spread_gene; Merge_gene |]

(* Each mutation reports what it moved: the nodes whose replication or
   placement changed and the cores whose gene lists changed.  [None]
   means the mutation was inapplicable and the chromosome is unchanged —
   the incremental fitness evaluator refreshes exactly the reported
   set. *)
type touched = { t_nodes : int list; t_cores : int list }

(* Mutation I: pick a node, add one replica, scatter its AGs. *)
let mutate_add_replica rng t =
  let node_index = Rng.int rng (Array.length t.entries) in
  let info = t.entries.(node_index) in
  match
    scatter_ags_cores rng t ~node_index ~count:info.Partition.ags_per_replica
  with
  | Some cores -> Some { t_nodes = [ node_index ]; t_cores = cores }
  | None -> None

(* Selecting from the nodes/cores satisfying a predicate used to build
   the candidate list and [Rng.pick_list] it; counting then indexing
   selects the same element with the same single draw, allocation-free
   (candidates were listed ascending, so the nth match is the pick). *)
let nth_matching ~n ~p nth =
  let seen = ref 0 in
  let found = ref (-1) in
  (try
     for i = 0 to n - 1 do
       if p i then
         if !seen = nth then begin
           found := i;
           raise Exit
         end
         else incr seen
     done
   with Exit -> ());
  assert (!found >= 0);
  !found

let count_matching ~n ~p =
  let total = ref 0 in
  for i = 0 to n - 1 do
    if p i then incr total
  done;
  !total

(* Mutation II: pick a node with R > 1, remove one replica, recovering
   crossbars from random genes. *)
let mutate_remove_replica rng t =
  let n = Array.length t.entries in
  let p i = replication t i > 1 in
  match count_matching ~n ~p with
  | 0 -> None
  | total ->
      let node_index = nth_matching ~n ~p (Rng.int rng total) in
      let info = t.entries.(node_index) in
      let remaining = ref info.Partition.ags_per_replica in
      let order = t.scratch_order in
      for i = 0 to t.core_count - 1 do
        order.(i) <- i
      done;
      Rng.shuffle rng order;
      let cores = ref [] in
      let i = ref 0 in
      while !remaining > 0 && !i < t.core_count do
        let core = order.(!i) in
        incr i;
        let ags = gene_ags t.cores.(core) node_index in
        if ags <> 0 then begin
          let take = Int.min ags !remaining in
          ignore (remove_ags t ~core ~node_index ~count:take);
          cores := core :: !cores;
          remaining := !remaining - take
        end
      done;
      assert (!remaining = 0);
      Some { t_nodes = [ node_index ]; t_cores = !cores }

(* Selecting a random gene used to build the full (core, gene) candidate
   list and [Rng.pick_list] it; these count-then-index scans select the
   same element with the same single [Rng.int] draw (pick_list indexes
   from the head of the consed — i.e. reversed — list, hence the
   [total - 1 - draw]) without allocating per candidate.  Candidates are
   the genes with at least [min_ags] AGs; every stored gene has one. *)
let rec count_in ~min_ags acc = function
  | [] -> acc
  | g :: rest ->
      count_in ~min_ags (if g.ag_count >= min_ags then acc + 1 else acc) rest

let rec nth_in ~min_ags nth = function
  | [] -> assert false
  | g :: rest ->
      if g.ag_count < min_ags then nth_in ~min_ags nth rest
      else if nth = 0 then g
      else nth_in ~min_ags (nth - 1) rest

let count_genes t ~min_ags =
  let total = ref 0 in
  for core = 0 to t.core_count - 1 do
    total := count_in ~min_ags !total t.cores.(core)
  done;
  !total

(* The [nth] candidate in core order, then gene-list order. *)
let nth_gene t ~min_ags nth =
  let core = ref 0 and nth = ref nth in
  let here = ref (count_in ~min_ags 0 t.cores.(0)) in
  while !nth >= !here do
    nth := !nth - !here;
    incr core;
    here := count_in ~min_ags 0 t.cores.(!core)
  done;
  (!core, nth_in ~min_ags !nth t.cores.(!core))

let random_gene rng t ~min_ags =
  match count_genes t ~min_ags with
  | 0 -> None
  | total -> Some (nth_gene t ~min_ags (total - 1 - Rng.int rng total))

(* Mutation III: pick a gene with >= 2 AGs and spread part of it to
   other cores. *)
let mutate_spread rng t =
  match random_gene rng t ~min_ags:2 with
  | None -> None
  | Some (core, g) -> (
      let move = Rng.range rng 1 (g.ag_count - 1) in
      ignore (remove_ags t ~core ~node_index:g.node_index ~count:move);
      match scatter_ags_cores rng t ~node_index:g.node_index ~count:move with
      | Some cores ->
          Some { t_nodes = [ g.node_index ]; t_cores = core :: cores }
      | None ->
          add_ags t ~core ~node_index:g.node_index ~count:move;
          None)

(* Mutation IV: pick a gene and merge all of it into the same node's gene
   on another core. *)
let mutate_merge rng t =
  match random_gene rng t ~min_ags:1 with
  | None -> None
  | Some (src_core, g) -> (
      let xbars_per_ag = t.entries.(g.node_index).Partition.xbars_per_ag in
      let p c =
        c <> src_core
        && gene_ags t.cores.(c) g.node_index <> 0
        && free_xbars t c >= g.ag_count * xbars_per_ag
      in
      match count_matching ~n:t.core_count ~p with
      | 0 -> None
      | total ->
          let dst = nth_matching ~n:t.core_count ~p (Rng.int rng total) in
          ignore (remove_ags t ~core:src_core ~node_index:g.node_index
                    ~count:g.ag_count);
          add_ags t ~core:dst ~node_index:g.node_index ~count:g.ag_count;
          Some { t_nodes = [ g.node_index ]; t_cores = [ src_core; dst ] })

let mutate_touched rng t kind =
  match kind with
  | Add_replica -> mutate_add_replica rng t
  | Remove_replica -> mutate_remove_replica rng t
  | Spread_gene -> mutate_spread rng t
  | Merge_gene -> mutate_merge rng t

let mutate rng t kind = mutate_touched rng t kind <> None

let mutate_random_touched rng t =
  mutate_touched rng t (Rng.pick rng all_mutations)

let mutate_random rng t = mutate_random_touched rng t <> None

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun core gene_list ->
      if gene_list <> [] then
        Fmt.pf ppf "core %2d: %a (%d/%d xbars)@," core
          Fmt.(
            list ~sep:sp (fun ppf g ->
                Fmt.pf ppf "%d" (encode g)))
          gene_list (core_xbars t core)
          (Partition.table_config t.table).Pimhw.Config.xbars_per_core)
    t.cores;
  Fmt.pf ppf "@]"
