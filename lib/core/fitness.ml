(* GA fitness functions (Section IV-C2).  Both estimate an inference time
   in nanoseconds; the GA minimises them.

   HT: each core's estimated time accumulates segments of its AG-count
   timeline (Fig. 5).  The AGs mapped to a core fire in turn at interval
   T_interval; a node replicated R times gives each of its AGs
   ceil(windows / R) operation cycles.  Sorting per-node cycle counts
   ascending yields segments (c_k - c_{k-1}) during which n_k AGs remain,
   each segment costing (c_k - c_{k-1}) * f(n_k) with
   f(n) = max(n * T_interval, T_MVM).  F_HT = max over cores.

   LL: nodes chain through waiting fractions W (Fig. 6).  A node starts
   after its provider has produced the first W of its output and then
   cannot run faster than the provider delivers the remaining (1 - W) —
   the paper's f_x = min(R_p / R_x, 1) rate cap, realised here as
   eff_x = max(S_x, eff_p * (1 - W_x)).  F_LL = max finish time.

   Both objectives decompose into per-weighted-node terms (replication,
   split count, communication penalty) and per-core terms (segment time,
   traffic) glued together by cheap order-insensitive reductions (maxima,
   bank sums).  The evaluator below exploits that: a [ctx] holds every
   chromosome-independent constant, a [state] caches the per-node and
   per-core terms, and a mutation only re-derives the terms of the nodes
   and cores it touched.  The full path ([evaluate], [ht], [ll]) runs the
   very same refresh functions over the all-dirty set, so incremental and
   full evaluation are bit-identical by construction. *)

(* --- objectives ---------------------------------------------------------- *)

type objective = Minimize_time | Minimize_energy_delay

let objective_name = function
  | Minimize_time -> "time"
  | Minimize_energy_delay -> "energy-delay"

(* --- per-core segment time (Fig. 5) -------------------------------------- *)

(* The segment model over caller-owned arrays, allocation-free: genes
   are insertion-sorted by cycle count as they stream past
   ([seg_insert], which bumps the segment count [len] and the AG total)
   and the segments accumulate over the sorted prefix ([seg_time]).
   Equal cycle counts give zero-width segments, so the order of ties
   cannot change the sum. *)
let seg_insert (ags : int array) (cyc : int array) len total cycles count =
  let i = ref !len in
  while !i > 0 && cyc.(!i - 1) > cycles do
    cyc.(!i) <- cyc.(!i - 1);
    ags.(!i) <- ags.(!i - 1);
    decr i
  done;
  cyc.(!i) <- cycles;
  ags.(!i) <- count;
  incr len;
  total := !total + count

let seg_time timing (ags : int array) (cyc : int array) len total =
  let time = ref 0.0 in
  let remaining = ref total in
  let prev = ref 0 in
  for i = 0 to len - 1 do
    let span = cyc.(i) - !prev in
    if span > 0 then begin
      time :=
        !time
        +. float_of_int span
           *. Pimhw.Timing.operation_cycle_ns timing ~ags_in_core:!remaining;
      prev := cyc.(i)
    end;
    remaining := !remaining - ags.(i)
  done;
  !time

(* Estimated busy time of one core given (ag_count, cycles) pairs. *)
let core_time timing pairs =
  let n = List.length pairs in
  let ags = Array.make n 0 and cyc = Array.make n 0 in
  let len = ref 0 and total = ref 0 in
  List.iter
    (fun (count, cycles) ->
      if count > 0 && cycles > 0 then seg_insert ags cyc len total cycles count)
    pairs;
  seg_time timing ags cyc !len !total

(* --- standalone node time (exposed for tests) ----------------------------- *)

(* Standalone uninterrupted execution time of a node given replication. *)
let standalone_ns timing table (g : Nnir.Graph.t) node_id ~replication =
  let node = Nnir.Graph.node g node_id in
  match Partition.info_of_node table node_id with
  | Some info ->
      let cycles =
        Partition.ceil_div info.Partition.windows (max 1 replication)
      in
      let per_cycle =
        Pimhw.Timing.operation_cycle_ns timing
          ~ags_in_core:info.Partition.ags_per_replica
      in
      float_of_int cycles *. per_cycle
  | None ->
      (* VFU / data-movement work, spread over the predecessor replicas. *)
      let elements =
        Nnir.Tensor.num_elements (Nnir.Node.output_shape node)
      in
      Pimhw.Timing.vec_ns timing ~elements
      /. float_of_int (max 1 replication)

(* --- evaluation context --------------------------------------------------- *)

(* Chromosome-independent constants of the LL chain, one per graph node. *)
type ll_node = {
  n_widx : int;              (* dense weighted index, or -1 *)
  n_inputs : Nnir.Node.id array;
  n_anc_widx : int array;    (* weighted ancestors, for VFU replication *)
  n_wait : float;            (* waiting fraction W *)
  n_fill_k : int;            (* input rows needed before the first output *)
  n_noc_row : float;         (* mesh hop cost of one output row *)
  n_vec_row : float;         (* VFU cost of one output row *)
  n_vec_total : float;       (* whole-output VFU cost (non-weighted S_x) *)
  n_vec_fill : float;        (* fill cost when this node is a VFU provider *)
  mutable n_frontier : int list;
  (* weighted indices whose holder sets union to this node's core set:
     the node's own index for weighted nodes, otherwise the frontier of
     its inputs (nearest weighted ancestors along every path). *)
}

type ll_ctx = {
  topo : Nnir.Node.id array;
  nodes : ll_node array;
  holder_deps : int list array;
  (* holder_deps.(w): graph nodes whose core set contains node w's
     holders — the nodes whose cached LL terms go stale when w moves. *)
  succs : int list array;    (* consumers of each graph node *)
}

(* Everything the fitness functions need that does not depend on the
   chromosome: per-node timing constants and machine parameters.  Built
   once per GA run and shared by every evaluation. *)
type ctx = {
  mode : Mode.t;
  objective : objective;
  timing : Pimhw.Timing.t;
  core_count : int;
  infos : Partition.info array;
  per_window_bytes : int array;  (* fresh input + output bytes per window *)
  transfer_ns : float array;     (* split-replica accumulation transfer *)
  op_cycle : float array;        (* operation cycle at ags_per_replica *)
  c_vec_row : float array;       (* VFU cost of one full output row *)
  local_bytes : float;
  banks : int;
  gmem_gbps : float;
  xbar_capacity : int;
  ll : ll_ctx option;            (* Some iff mode = Low_latency *)
}

let make_ll_ctx timing table =
  let g = Partition.table_graph table in
  let n = Nnir.Graph.num_nodes g in
  let nodes =
    Array.init n (fun id ->
        let node = Nnir.Graph.node g id in
        let op = Nnir.Node.op node in
        let inputs = Nnir.Node.inputs node in
        let widx = Partition.index_of_node table id in
        let anc_widx =
          if widx >= 0 then [||]
          else
            Array.of_list
              (List.map
                 (Partition.index_of_node table)
                 (Nnir.Graph.weighted_ancestors g id))
        in
        let _, row_bytes = Sched_common.row_geometry node in
        let row_elements = row_bytes / Nnir.Tensor.bytes_per_element in
        let n_wait, n_fill_k, n_noc_row, n_vec_row =
          match inputs with
          | [] -> (0.0, 1, 0.0, 0.0)
          | src :: _ ->
              let sh = Nnir.Node.output_shape (Nnir.Graph.node g src) in
              let in_rows =
                if Nnir.Tensor.is_chw sh then Nnir.Tensor.height sh else 1
              in
              ( Receptive.waiting_fraction op ~in_rows,
                max 1
                  (min (Receptive.rows_needed op ~out_row:1 ~in_rows) in_rows),
                Pimhw.Timing.noc_ns timing ~hops:3 ~bytes:row_bytes,
                Pimhw.Timing.vec_ns timing ~elements:row_elements )
        in
        {
          n_widx = widx;
          n_inputs = Array.of_list inputs;
          n_anc_widx = anc_widx;
          n_wait;
          n_fill_k;
          n_noc_row;
          n_vec_row;
          n_vec_total =
            Pimhw.Timing.vec_ns timing
              ~elements:
                (Nnir.Tensor.num_elements (Nnir.Node.output_shape node));
          n_vec_fill = Pimhw.Timing.vec_ns timing ~elements:row_elements;
          n_frontier = [];
        })
  in
  let topo = Nnir.Graph.topo_order g in
  (* Frontier propagation needs inputs resolved first, hence topo order. *)
  Array.iter
    (fun id ->
      let nd = nodes.(id) in
      nd.n_frontier <-
        (if nd.n_widx >= 0 then [ nd.n_widx ]
         else
           List.sort_uniq Int.compare
             (List.concat_map
                (fun src -> nodes.(src).n_frontier)
                (Array.to_list nd.n_inputs))))
    topo;
  let holder_deps = Array.make (Partition.num_weighted table) [] in
  let succs = Array.make n [] in
  Array.iter
    (fun id ->
      let nd = nodes.(id) in
      List.iter
        (fun w -> holder_deps.(w) <- id :: holder_deps.(w))
        nd.n_frontier;
      Array.iter (fun src -> succs.(src) <- id :: succs.(src)) nd.n_inputs)
    topo;
  { topo; nodes; holder_deps; succs }

let context ?(objective = Minimize_time) (mode : Mode.t)
    (timing : Pimhw.Timing.t) (table : Partition.table) ~core_count =
  let config = Partition.table_config table in
  let graph = Partition.table_graph table in
  let infos = Partition.entries table in
  let n = Array.length infos in
  let per_window_bytes = Array.make n 0 in
  let transfer_ns = Array.make n 0.0 in
  let op_cycle = Array.make n 0.0 in
  let c_vec_row = Array.make n 0.0 in
  for w = 0 to n - 1 do
    let info = infos.(w) in
    per_window_bytes.(w) <-
      Sched_common.fresh_input_bytes_per_window graph info
      + info.Partition.output_bytes_per_window;
    (* a replica whose AGs span several cores pays one inter-core
       accumulation per window (Section IV-B): a partial-result transfer
       plus the receiving add *)
    let bytes = info.Partition.out_channels * Nnir.Tensor.bytes_per_element in
    transfer_ns.(w) <-
      Pimhw.Timing.noc_ns timing ~hops:3 ~bytes
      +. Pimhw.Timing.vec_ns timing ~elements:info.Partition.out_channels;
    op_cycle.(w) <-
      Pimhw.Timing.operation_cycle_ns timing
        ~ags_in_core:info.Partition.ags_per_replica;
    c_vec_row.(w) <-
      Pimhw.Timing.vec_ns timing
        ~elements:(info.Partition.out_channels * info.Partition.out_width)
  done;
  {
    mode;
    objective;
    timing;
    core_count;
    infos;
    per_window_bytes;
    transfer_ns;
    op_cycle;
    c_vec_row;
    local_bytes = float_of_int config.Pimhw.Config.local_memory_bytes;
    (* Conservative queueing model: transfer batches from different cores
       arrive in bursts, so a bank sustains roughly half its nominal rate.
       Optimising against the pessimistic figure keeps the GA away from
       mappings whose mean-rate traffic only just fits. *)
    banks = max 1 (config.Pimhw.Config.global_memory_banks * 3 / 4);
    gmem_gbps = config.Pimhw.Config.global_memory_gbps;
    xbar_capacity = core_count * config.Pimhw.Config.xbars_per_core;
    ll =
      (match mode with
      | Mode.Low_latency -> Some (make_ll_ctx timing table)
      | Mode.High_throughput -> None);
  }

(* --- cached evaluation state ---------------------------------------------- *)

(* Per-node and per-core terms of the current chromosome.  Every field is
   a pure function of the chromosome computed by [refresh_node] /
   [refresh_core]; the assembly steps below combine them with
   order-insensitive reductions only, so refreshing just the dirty
   entries reproduces the full recomputation exactly. *)
type state = {
  ctx : ctx;
  chrom : Chromosome.t;
  (* per weighted node *)
  repl : int array;
  cycles : int array;
  penalty : float array;
  holders : int list array;      (* cores holding the node, ascending *)
  vec_share : float array;       (* LL congestion VFU share *)
  (* per core *)
  core_seg : float array;        (* Fig. 5 segment time *)
  core_busy : float array;       (* segment time + accumulation extras *)
  core_traffic : float array;    (* HT global-memory bytes *)
  (* per graph node, LL mode only ([||] under HT): the holder-set
     propagation and mesh-overlap terms of the chain, which depend only
     on the holder sets of each node's weighted frontier — not on the
     chain recurrence — and so can be refreshed per dirty node. *)
  ll_cores : int list array;
  ll_remote : float array;
  ll_start : float array;        (* chain scratch, overwritten per eval *)
  ll_eff : float array;
  core_mark : bool array;        (* LL core-set scratch, all-false between uses *)
  bank_scratch : float array;    (* HT bank-sum scratch, zeroed per eval *)
  (* dirty-set scratch for [Inc.update], all-false between updates *)
  core_dirty : bool array;
  scan_dirty : bool array;
  ll_dirty : bool array;
  ll_dirty2 : bool array;
  (* [refresh_core] segment scratch; a core holds at most one gene per
     node, so num_weighted entries always suffice *)
  seg_ags : int array;
  seg_cyc : int array;
  mutable time : float;
  mutable fit : float;
}

(* The refresh functions below are the GA's inner loop, so they follow
   three rules: no closure captures a float accumulator (a captured ref
   is boxed, and so is every partial sum stored in it), ints are
   compared with int comparisons ([Int.max], not the polymorphic [max]),
   and every id list the chain walks is an array. *)

let rec set_flags (arr : bool array) = function
  | [] -> ()
  | c :: rest ->
      arr.(c) <- true;
      set_flags arr rest

let rec clear_flags (arr : bool array) = function
  | [] -> ()
  | c :: rest ->
      arr.(c) <- false;
      clear_flags arr rest

(* One pass over the cores re-derives everything the fitness needs about
   a weighted node: replication, split replicas, operation cycles, the
   per-window accumulation penalty and the holder set.  The deterministic
   placement seats whole multiples of [ags_per_replica] within one gene
   as unsplit replicas, so R minus those whole replicas are split, and
   the penalty is their accumulation transfer amortised over R. *)
let refresh_node ?(only_dirty = false) st w =
  let ctx = st.ctx in
  let info = ctx.infos.(w) in
  let apr = info.Partition.ags_per_replica in
  let total = ref 0 and whole = ref 0 in
  let holders = ref [] in
  (* [only_dirty] skips cores outside the caller's candidate mask
     ([core_dirty] + [scan_dirty]): a core whose gene list did not change
     holds the node now iff it held it before, so scanning the previous
     holders plus the dirty cores finds every current holder. *)
  for core = ctx.core_count - 1 downto 0 do
    if
      (not only_dirty)
      || st.core_dirty.(core)
      || st.scan_dirty.(core)
    then begin
      let ags = Chromosome.gene_ags (Chromosome.genes st.chrom core) w in
      if ags <> 0 then begin
        total := !total + ags;
        whole := !whole + (ags / apr);
        holders := core :: !holders
      end
    end
  done;
  let r = !total / apr in
  let splits = Int.max 0 (r - !whole) in
  st.repl.(w) <- r;
  st.cycles.(w) <- Partition.ceil_div info.Partition.windows (Int.max 1 r);
  st.penalty.(w) <-
    (if splits <= 0 then 0.0
     else
       float_of_int splits
       /. float_of_int (Int.max 1 r)
       *. ctx.transfer_ns.(w));
  st.holders.(w) <- !holders;
  st.vec_share.(w) <-
    float_of_int info.Partition.out_height
    /. float_of_int (Int.max 1 (List.length !holders))
    *. ctx.c_vec_row.(w)

(* Re-derive a core's cached terms from its gene list and the per-node
   caches.  HT: Fig. 5 segment time plus accumulation comm, and the
   global-memory traffic with the working-set spill model.  LL: segment
   time plus the VFU share and accumulation extras (congestion bound).
   The segments sort in the state's scratch arrays, and the gene walks
   are [while] loops over a list cursor, so that no closure captures the
   float sums. *)
let refresh_core st core =
  let ctx = st.ctx in
  let genes = ref (Chromosome.genes st.chrom core) in
  let len = ref 0 and total = ref 0 in
  match ctx.mode with
  | Mode.High_throughput ->
      let comm = ref 0.0 and traffic = ref 0.0 in
      let working_set = ref 0.0 in
      let max_cycles = ref 0 in
      while
        match !genes with
        | [] -> false
        | (g : Chromosome.gene) :: rest ->
            genes := rest;
            let w = g.node_index in
            let c = st.cycles.(w) in
            if g.ag_count > 0 && c > 0 then
              seg_insert st.seg_ags st.seg_cyc len total c g.ag_count;
            if c > !max_cycles then max_cycles := c;
            let cycles = float_of_int c in
            comm := !comm +. (cycles *. st.penalty.(w));
            (* input loads are proportional to the AG share of the
               replica; output stores to the per-window result *)
            let share =
              float_of_int g.ag_count
              /. float_of_int
                   (Int.max 1 ctx.infos.(w).Partition.ags_per_replica)
            in
            let per_window_bytes = ctx.per_window_bytes.(w) in
            traffic :=
              !traffic +. (cycles *. share *. float_of_int per_window_bytes);
            (* simultaneously live bytes: a 2-window transfer batch of
               inputs and staged outputs for every AG on this core *)
            working_set :=
              !working_set +. (2.0 *. share *. float_of_int per_window_bytes);
            true
      do
        ()
      done;
      (* Working sets beyond the scratchpad spill: every overflowing byte
         makes a round trip per operation cycle (cf. Memalloc capacities). *)
      let overflow = Float.max 0.0 (!working_set -. ctx.local_bytes) in
      if overflow > 0.0 then
        traffic := !traffic +. (2.0 *. overflow *. float_of_int !max_cycles);
      st.core_traffic.(core) <- !traffic;
      let seg = seg_time ctx.timing st.seg_ags st.seg_cyc !len !total in
      st.core_seg.(core) <- seg;
      st.core_busy.(core) <- seg +. !comm
  | Mode.Low_latency ->
      let extra = ref 0.0 in
      while
        match !genes with
        | [] -> false
        | (g : Chromosome.gene) :: rest ->
            genes := rest;
            let w = g.node_index in
            let c = st.cycles.(w) in
            if g.ag_count > 0 && c > 0 then
              seg_insert st.seg_ags st.seg_cyc len total c g.ag_count;
            extra :=
              !extra +. st.vec_share.(w) +. (float_of_int c *. st.penalty.(w));
            true
      do
        ()
      done;
      let seg = seg_time ctx.timing st.seg_ags st.seg_cyc !len !total in
      st.core_seg.(core) <- seg;
      st.core_busy.(core) <- seg +. !extra

let rec mark_holders st = function
  | [] -> ()
  | w :: rest ->
      set_flags st.core_mark st.holders.(w);
      mark_holders st rest

let rec count_marked (mark : bool array) acc = function
  | [] -> acc
  | c :: rest -> count_marked mark (if mark.(c) then acc + 1 else acc) rest

(* Cores each node's work lives on: own AG cores for weighted nodes,
   inherited from the weighted frontier otherwise.  A frontier of several
   nodes takes the ascending union of their holder sets: mark them, then
   sweep the cores downwards, consing and clearing each mark. *)
let refresh_ll_cores st id =
  let lc = match st.ctx.ll with Some l -> l | None -> assert false in
  st.ll_cores.(id) <-
    (match lc.nodes.(id).n_frontier with
    | [ w ] -> st.holders.(w)
    | ws ->
        mark_holders st ws;
        let union = ref [] in
        for core = st.ctx.core_count - 1 downto 0 do
          if st.core_mark.(core) then begin
            st.core_mark.(core) <- false;
            union := core :: !union
          end
        done;
        !union)

(* Worst non-overlap with any provider: the fraction of this node's rows
   that need a mesh hop.  A provider's overlap is the share of this
   node's cores that also hold the provider, 1.0 when this node has no
   cores; with this node's cores marked, that share is the provider's
   marked-core count over this node's core count (core sets hold each
   core once). *)
let refresh_ll_remote st id =
  let lc = match st.ctx.ll with Some l -> l | None -> assert false in
  let inputs = lc.nodes.(id).n_inputs in
  let cores = st.ll_cores.(id) in
  let len = List.length cores in
  set_flags st.core_mark cores;
  let worst = ref 0.0 in
  for j = 0 to Array.length inputs - 1 do
    let overlap =
      if len = 0 then 1.0
      else
        float_of_int (count_marked st.core_mark 0 st.ll_cores.(inputs.(j)))
        /. float_of_int len
    in
    worst := Float.max !worst (1.0 -. overlap)
  done;
  clear_flags st.core_mark cores;
  st.ll_remote.(id) <- !worst

(* F_HT from the caches: max over core busy times and per-bank
   global-memory drain times (traffic serialises per bank, as in the
   simulator). *)
let ht_time st =
  let ctx = st.ctx in
  let worst = ref 0.0 in
  for core = 0 to ctx.core_count - 1 do
    if st.core_busy.(core) > !worst then worst := st.core_busy.(core)
  done;
  let bank_bytes = st.bank_scratch in
  Array.fill bank_bytes 0 (Array.length bank_bytes) 0.0;
  for core = 0 to ctx.core_count - 1 do
    bank_bytes.(core mod ctx.banks) <-
      bank_bytes.(core mod ctx.banks) +. st.core_traffic.(core)
  done;
  for bank = 0 to Array.length bank_bytes - 1 do
    let t = bank_bytes.(bank) /. ctx.gmem_gbps in
    if t > !worst then worst := t
  done;
  !worst

(* F_LL from the caches: the waiting-fraction chain over the topology
   (Fig. 6), bounded below by the busiest core (congestion). *)
let ll_time st =
  let ctx = st.ctx in
  let lc = match ctx.ll with Some l -> l | None -> assert false in
  let start = st.ll_start and eff = st.ll_eff in
  let finish = ref 0.0 in
  for k = 0 to Array.length lc.topo - 1 do
    let id = lc.topo.(k) in
    let nd = lc.nodes.(id) in
    (* Replication of this node's work: its own for weighted nodes, the
       max of its weighted ancestors' for VFU/memory ops (Section IV-D2:
       other operations are divided according to the predecessor conv's
       replication). *)
    let replication =
      if nd.n_widx >= 0 then st.repl.(nd.n_widx)
      else begin
        let r = ref 1 in
        for j = 0 to Array.length nd.n_anc_widx - 1 do
          r := Int.max !r st.repl.(nd.n_anc_widx.(j))
        done;
        !r
      end
    in
    let comm_ns = if nd.n_widx >= 0 then st.penalty.(nd.n_widx) else 0.0 in
    let s =
      if nd.n_widx >= 0 then
        float_of_int st.cycles.(nd.n_widx)
        *. (ctx.op_cycle.(nd.n_widx) +. comm_ns)
      else nd.n_vec_total /. float_of_int (Int.max 1 replication)
    in
    let inputs = nd.n_inputs in
    if Array.length inputs = 0 then begin
      start.(id) <- 0.0;
      eff.(id) <- 0.0
    end
    else begin
      (* Per-stage pipeline-fill latency.  With contiguous row ownership
         the provider's first rows come from one replica, serialised at
         its per-window rate, so the fill is rows_needed x
         provider_row_time — replication does not help the fill, only
         the steady state.  Add the chunk transfer to the consumer cores
         (scaled by mapping overlap) and the head-core accumulation
         burst. *)
      let remote = st.ll_remote.(id) in
      let stage_overhead = (remote *. nd.n_noc_row) +. nd.n_vec_row in
      (* The consumer waits for the later of the structural fill (first
         rows stream from one replica) and the W fraction of the
         provider's steady-state execution (Fig. 6), and then runs no
         faster than its slowest provider delivers the remaining
         (1 - W). *)
      let wait = ref 0.0 and provider_rate = ref 0.0 in
      for j = 0 to Array.length inputs - 1 do
        let src = inputs.(j) in
        let pn = lc.nodes.(src) in
        (* Column-wise replication means all R_p replicas cooperate on
           each provider row, so a fill row costs W_p/R_p windows. *)
        let fill =
          if pn.n_widx >= 0 then
            let pinfo = ctx.infos.(pn.n_widx) in
            let r_p = Int.max 1 st.repl.(pn.n_widx) in
            float_of_int ((nd.n_fill_k - 1) * pinfo.Partition.out_width)
            *. ctx.op_cycle.(pn.n_widx)
            /. float_of_int r_p
          else pn.n_vec_fill
        in
        wait :=
          Float.max !wait
            (start.(src) +. Float.max fill (eff.(src) *. nd.n_wait));
        provider_rate :=
          Float.max !provider_rate (eff.(src) *. (1.0 -. nd.n_wait))
      done;
      let st_time = !wait +. stage_overhead in
      start.(id) <- st_time;
      eff.(id) <- Float.max s !provider_rate;
      finish := Float.max !finish (st_time +. eff.(id))
    end
  done;
  (* Congestion bound: in the row pipeline every mapped layer is active
     at once, so the makespan is also bounded by the busiest core's total
     work (MVM issue/serialisation plus accumulation epilogues). *)
  for core = 0 to ctx.core_count - 1 do
    if st.core_busy.(core) > !finish then finish := st.core_busy.(core)
  done;
  !finish

let time_of st =
  match st.ctx.mode with
  | Mode.High_throughput -> ht_time st
  | Mode.Low_latency -> ll_time st

(* Full (all-dirty) construction: refresh every node, then every core. *)
let create_state ctx chrom =
  if Chromosome.core_count chrom <> ctx.core_count then
    invalid_arg "Fitness: chromosome core_count differs from context";
  let n = Array.length ctx.infos in
  let graph_n =
    match ctx.ll with Some lc -> Array.length lc.nodes | None -> 0
  in
  let st =
    {
      ctx;
      chrom;
      repl = Array.make n 0;
      cycles = Array.make n 0;
      penalty = Array.make n 0.0;
      holders = Array.make n [];
      vec_share = Array.make n 0.0;
      core_seg = Array.make ctx.core_count 0.0;
      core_busy = Array.make ctx.core_count 0.0;
      core_traffic = Array.make ctx.core_count 0.0;
      ll_cores = Array.make graph_n [];
      ll_remote = Array.make graph_n 0.0;
      ll_start = Array.make graph_n 0.0;
      ll_eff = Array.make graph_n 0.0;
      core_mark = Array.make ctx.core_count false;
      bank_scratch = Array.make ctx.banks 0.0;
      core_dirty = Array.make ctx.core_count false;
      scan_dirty = Array.make ctx.core_count false;
      ll_dirty = Array.make graph_n false;
      ll_dirty2 = Array.make graph_n false;
      seg_ags = Array.make n 0;
      seg_cyc = Array.make n 0;
      time = 0.0;
      fit = 0.0;
    }
  in
  for w = 0 to n - 1 do
    refresh_node st w
  done;
  for core = 0 to ctx.core_count - 1 do
    refresh_core st core
  done;
  (match ctx.ll with
  | Some lc ->
      Array.iter (fun id -> refresh_ll_cores st id) lc.topo;
      Array.iter (fun id -> refresh_ll_remote st id) lc.topo
  | None -> ());
  st

let ht timing chrom =
  let ctx =
    context Mode.High_throughput timing (Chromosome.table chrom)
      ~core_count:(Chromosome.core_count chrom)
  in
  time_of (create_state ctx chrom)

let ll timing chrom =
  let ctx =
    context Mode.Low_latency timing (Chromosome.table chrom)
      ~core_count:(Chromosome.core_count chrom)
  in
  time_of (create_state ctx chrom)

(* --- energy estimate (for the energy-aware objective) --------------------- *)

(* First-order per-inference energy of a state's mapping: the dynamic
   crossbar energy is mapping-invariant (total MVM work is fixed), so
   what the GA can actually trade is leakage — static power integrated
   over each active core's busy window.  Busy windows are the cached
   per-core Fig. 5 segment times (HT) or the chain finish [time] (LL,
   all active cores run the whole pipeline). *)
let energy_pj (em : Pimhw.Energy_model.t) st ~time =
  let ctx = st.ctx in
  let dynamic =
    Array.fold_left
      (fun acc (info : Partition.info) ->
        acc
        +. (float_of_int
              (info.Partition.windows * info.Partition.ags_per_replica
             * info.Partition.xbars_per_ag)
           *. em.Pimhw.Energy_model.mvm_energy_pj))
      0.0 ctx.infos
  in
  let static =
    match ctx.mode with
    | Mode.High_throughput ->
        let total = ref 0.0 in
        for core = 0 to ctx.core_count - 1 do
          total := !total +. st.core_seg.(core)
        done;
        !total *. em.Pimhw.Energy_model.core_static_mw
    | Mode.Low_latency ->
        let active = ref 0 in
        for core = 0 to ctx.core_count - 1 do
          if Chromosome.genes st.chrom core <> [] then incr active
        done;
        time *. float_of_int !active *. em.Pimhw.Energy_model.core_static_mw
  in
  dynamic +. static

let estimate_energy_pj em (mode : Mode.t) timing (chrom : Chromosome.t) =
  let ctx =
    context mode timing (Chromosome.table chrom)
      ~core_count:(Chromosome.core_count chrom)
  in
  let st = create_state ctx chrom in
  energy_pj em st ~time:(time_of st)

(* --- objective assembly ---------------------------------------------------- *)

(* Combine the cached time with the objective.  Both objectives read
   only the state's cached terms, so an incremental child costs the
   same refresh under either. *)
let assemble st =
  let time = time_of st in
  st.time <- time;
  st.fit <-
    (match st.ctx.objective with
    | Minimize_time ->
        (* Gentle pressure toward resource economy: replicas that buy no
           time still cost crossbar programming and leakage, so ties
           break toward the smaller mapping (at most a 1% effect — any
           real speedup wins). *)
        let used = ref 0 in
        for core = 0 to st.ctx.core_count - 1 do
          used := !used + Chromosome.core_xbars st.chrom core
        done;
        time
        *. (1.0
           +. 0.01 *. float_of_int !used
              /. float_of_int (Int.max 1 st.ctx.xbar_capacity))
    | Minimize_energy_delay ->
        let em =
          Pimhw.Energy_model.create st.ctx.timing.Pimhw.Timing.config
        in
        time *. energy_pj em st ~time /. 1e6)

let evaluate ?(objective = Minimize_time) (mode : Mode.t) timing chrom =
  let ctx =
    context ~objective mode timing (Chromosome.table chrom)
      ~core_count:(Chromosome.core_count chrom)
  in
  let st = create_state ctx chrom in
  assemble st;
  st.fit

(* --- incremental evaluator ------------------------------------------------- *)

module Inc = struct
  type t = state

  let create ctx chrom =
    let st = create_state ctx chrom in
    assemble st;
    st

  let copy st chrom =
    {
      st with
      chrom;
      repl = Array.copy st.repl;
      cycles = Array.copy st.cycles;
      penalty = Array.copy st.penalty;
      holders = Array.copy st.holders;
      vec_share = Array.copy st.vec_share;
      core_seg = Array.copy st.core_seg;
      core_busy = Array.copy st.core_busy;
      core_traffic = Array.copy st.core_traffic;
      ll_cores = Array.copy st.ll_cores;
      ll_remote = Array.copy st.ll_remote;
      (* scratch arrays ([ll_start]/[ll_eff], [core_mark],
         [bank_scratch], the dirty flags, [seg_*]) carry no state between
         evaluations, so parent and child share them *)
    }

  (* A fully independent copy: like [copy] but with fresh scratch
     arrays, so the result can be handed to another domain (island
     migration) without racing the source island's evaluations.  The
     scratch carries nothing between evaluations (dirty flags are
     all-false outside [update]), so fresh zeroed arrays are
     equivalent — the carried fitness stays bit-identical. *)
  let unshare st chrom =
    let st = copy st chrom in
    let graph_n = Array.length st.ll_start in
    let n = Array.length st.seg_ags in
    {
      st with
      ll_start = Array.make graph_n 0.0;
      ll_eff = Array.make graph_n 0.0;
      core_mark = Array.make st.ctx.core_count false;
      bank_scratch = Array.make (Array.length st.bank_scratch) 0.0;
      core_dirty = Array.make st.ctx.core_count false;
      scan_dirty = Array.make st.ctx.core_count false;
      ll_dirty = Array.make graph_n false;
      ll_dirty2 = Array.make graph_n false;
      seg_ags = Array.make n 0;
      seg_cyc = Array.make n 0;
    }

  (* A mutation dirties the cores whose gene lists changed and every term
     of the nodes it moved.  A node refresh can change its cycle count or
     penalty, which feeds the busy time of *every* core holding it — so
     the dirty core set is the touched cores plus the node's holders both
     before and after the refresh. *)
  let rec same_cores (a : int list) b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> x = y && same_cores xs ys
    | _ -> false

  let update st (touched : Chromosome.touched) =
    let nodes =
      match touched.Chromosome.t_nodes with
      | ([] | [ _ ]) as l -> l
      | l -> List.sort_uniq Int.compare l
    in
    let is_ll = match st.ctx.ll with Some _ -> true | None -> false in
    set_flags st.core_dirty touched.Chromosome.t_cores;
    let ll_stale = ref false in
    let rec each_node = function
      | [] -> ()
      | w :: rest ->
          let old_cycles = st.cycles.(w)
          and old_penalty = st.penalty.(w)
          and old_vec = st.vec_share.(w)
          and old_holders = st.holders.(w) in
          set_flags st.scan_dirty old_holders;
          refresh_node ~only_dirty:true st w;
          clear_flags st.scan_dirty old_holders;
          (* If the node's terms are unchanged, any holder core outside
             [t_cores] would recompute its exact busy time — skip it.
             (vec_share only feeds the LL busy time.) *)
          if
            st.cycles.(w) <> old_cycles
            || st.penalty.(w) <> old_penalty
            || (is_ll && st.vec_share.(w) <> old_vec)
          then begin
            set_flags st.core_dirty old_holders;
            set_flags st.core_dirty st.holders.(w)
          end;
          (* A changed holder set dirties the core set of every graph
             node whose frontier contains w, and the overlap term of
             those nodes and their direct consumers. *)
          (match st.ctx.ll with
          | Some lc ->
              if not (same_cores st.holders.(w) old_holders) then begin
                ll_stale := true;
                set_flags st.ll_dirty lc.holder_deps.(w)
              end
          | None -> ());
          each_node rest
    in
    each_node nodes;
    for core = 0 to st.ctx.core_count - 1 do
      if st.core_dirty.(core) then begin
        st.core_dirty.(core) <- false;
        refresh_core st core
      end
    done;
    (match st.ctx.ll with
    | Some lc when !ll_stale ->
        let n = Array.length st.ll_dirty in
        for id = 0 to n - 1 do
          if st.ll_dirty.(id) then begin
            st.ll_dirty.(id) <- false;
            refresh_ll_cores st id;
            st.ll_dirty2.(id) <- true;
            set_flags st.ll_dirty2 lc.succs.(id)
          end
        done;
        for id = 0 to n - 1 do
          if st.ll_dirty2.(id) then begin
            st.ll_dirty2.(id) <- false;
            refresh_ll_remote st id
          end
        done
    | Some _ | None -> ());
    assemble st

  let fitness st = st.fit
  let time st = st.time
  let chromosome st = st.chrom
end
