(* Helpers shared by the HT and LL dataflow schedulers. *)

let bpe = Nnir.Tensor.bytes_per_element

(* The flat schedulers allocate in two bulk patterns: short-lived
   dependency lists and delivery bookkeeping, and the final-program
   instruction records that all survive.  Under the default 256k-word
   nursery a large LL stream forces dozens of minor collections whose
   survivors must be copied out; a nursery big enough to hold a whole
   stream's emission removes almost all of that promotion churn
   (measured: ~1.5-3x on the bench networks, both modes).  Grow-only
   and sticky — a host that configured a larger nursery is left alone,
   and repeated schedules don't thrash resizes. *)
let bulk_nursery_words = 4 * 1024 * 1024

let ensure_bulk_nursery () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < bulk_nursery_words then
    Gc.set { g with Gc.minor_heap_size = bulk_nursery_words }

let warm_pool domains =
  Pimutil.Domain_pool.Persistent.create ?domains ~init:ensure_bulk_nursery ()

(* Activation nodes whose producer is a weighted node are fused into the
   producer's accumulation epilogue (Algorithm 1, line 8).  Returns
   (kind per weighted node id, set of fused activation node ids). *)
let fused_activations (g : Nnir.Graph.t) =
  let by_producer = Hashtbl.create 64 in
  let fused = Hashtbl.create 64 in
  Nnir.Graph.iter
    (fun node ->
      match (Nnir.Node.op node, Nnir.Node.inputs node) with
      | Nnir.Op.Activation kind, [ src ] ->
          let producer = Nnir.Graph.node g src in
          if Nnir.Node.is_weighted producer then begin
            Hashtbl.replace by_producer src kind;
            Hashtbl.replace fused (Nnir.Node.id node) ()
          end
      | _ -> ())
    g;
  (by_producer, fused)

(* Fresh input bytes a conv/FC window consumes, accounting for the
   overlap between consecutive sliding windows: a new window adds
   k_h x stride_w x C_in elements (the new columns), clamped to the full
   im2col row.  FC windows read everything. *)
let fresh_input_bytes_per_window (g : Nnir.Graph.t) (info : Partition.info) =
  let node = Nnir.Graph.node g info.Partition.node_id in
  match Nnir.Node.op node with
  | Nnir.Op.Conv c ->
      let cin =
        match Nnir.Node.inputs node with
        | [ src ] ->
            Nnir.Tensor.channels
              (Nnir.Node.output_shape (Nnir.Graph.node g src))
        | _ -> 1
      in
      min info.Partition.weight_rows (c.kernel_h * c.stride_w * cin) * bpe
  | _ -> info.Partition.weight_rows * bpe

(* Fraction of a replica's input slice held by [ags_on_core] of its
   [ags_per_replica] AGs. *)
let slice_bytes ~total_bytes ~ags_on_core ~ags_per_replica =
  if ags_on_core >= ags_per_replica then total_bytes
  else (total_bytes * ags_on_core + ags_per_replica - 1) / ags_per_replica

(* The node a non-weighted operation's work is co-located with: its
   nearest weighted ancestors (Section IV-D2).  Empty for input-fed
   chains. *)
let anchor_ancestors = Nnir.Graph.weighted_ancestors

(* Longest chain of weighted layers — the inter-layer pipeline depth. *)
let pipeline_depth (g : Nnir.Graph.t) =
  let n = Nnir.Graph.num_nodes g in
  let depth = Array.make n 0 in
  let deepest = ref 0 in
  Array.iter
    (fun id ->
      let node = Nnir.Graph.node g id in
      let from_providers =
        List.fold_left
          (fun acc src -> max acc depth.(src))
          0 (Nnir.Node.inputs node)
      in
      depth.(id) <-
        from_providers + (if Nnir.Node.is_weighted node then 1 else 0);
      if depth.(id) > !deepest then deepest := depth.(id))
    (Nnir.Graph.topo_order g);
  max 1 !deepest

(* Output row geometry of any node: (rows, bytes per row). *)
let row_geometry (node : Nnir.Node.t) =
  Nnir.Tensor.row_geometry (Nnir.Node.output_shape node)

(* --- dense index spaces for the flat-array schedulers ----------------- *)

(* Dense numbering of per-node streams: the [count id] items of node
   [id] occupy the half-open range [base.(id), base.(id+1)), so a
   (node, sequence) pair becomes the flat index base.(node) + seq.  This
   is what lets the schedulers keep piece-delivery state in int arrays
   instead of tuple-keyed hash tables. *)
let stream_bases ~num_nodes count =
  let base = Array.make (num_nodes + 1) 0 in
  for id = 0 to num_nodes - 1 do
    base.(id + 1) <- base.(id) + count id
  done;
  base

(* Dense numbering of (consumer, provider) input edges: the slot of
   input position [k] of node [id] is [slots.(id).(k)].  Duplicate
   providers within one node's input list share a slot, so delivery
   marks keyed per slot behave exactly like marks keyed per
   (consumer, provider) pair.  Returns the per-node slot arrays and the
   total slot count. *)
let input_edge_slots (g : Nnir.Graph.t) =
  let n = Nnir.Graph.num_nodes g in
  let slots = Array.make n [||] in
  let next = ref 0 in
  for id = 0 to n - 1 do
    let inputs = Array.of_list (Nnir.Node.inputs (Nnir.Graph.node g id)) in
    let arr = Array.make (Array.length inputs) 0 in
    for k = 0 to Array.length inputs - 1 do
      let rec duplicate_of j =
        if j >= k then -1
        else if inputs.(j) = inputs.(k) then arr.(j)
        else duplicate_of (j + 1)
      in
      match duplicate_of 0 with
      | -1 ->
          arr.(k) <- !next;
          incr next
      | slot -> arr.(k) <- slot
    done;
    slots.(id) <- arr
  done;
  (slots, !next)

(* Per-output-row VFU work of a non-weighted node. *)
let row_vec_elements (g : Nnir.Graph.t) (node : Nnir.Node.t) =
  let rows, _ = row_geometry node in
  let stats = Nnir.Stats.of_node g node in
  let work = max stats.Nnir.Stats.vector_ops stats.Nnir.Stats.output_elements in
  (work + rows - 1) / rows
