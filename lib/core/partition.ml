(* Node partitioning (paper Section IV-B).

   Convolution weights are flattened into a (k_h * k_w * C_in) x C_out
   matrix — a fully connected layer is the k=1 special case.  The matrix
   is cut row-wise into Array Groups (AGs) of height H_xbar; each AG
   spans ceil(C_out / W_xbar) crossbars and runs H_out * W_out sliding
   windows per inference.  All crossbars of one AG share their input and
   are driven together, so the AG is the scheduling and conflict unit. *)

type info = {
  node_id : Nnir.Node.id;
  name : string;
  weight_rows : int;            (* k_h * k_w * C_in *)
  weight_cols : int;            (* C_out *)
  ags_per_replica : int;        (* ceil(weight_rows / H_xbar) *)
  xbars_per_ag : int;           (* ceil(weight_cols / W_xbar) *)
  windows : int;                (* H_out * W_out (1 for FC) *)
  out_height : int;
  out_width : int;
  out_channels : int;
  output_bytes_per_window : int;(* weight_cols elements (full precision) *)
}

let ceil_div a b = (a + b - 1) / b

let xbars_per_replica info = info.ags_per_replica * info.xbars_per_ag

let of_node (config : Pimhw.Config.t) (g : Nnir.Graph.t) (node : Nnir.Node.t) =
  let input_shape () =
    match Nnir.Node.inputs node with
    | [ src ] -> Nnir.Node.output_shape (Nnir.Graph.node g src)
    | _ ->
        invalid_arg
          (Fmt.str "Partition.of_node: weighted node %S must have one input"
             (Nnir.Node.name node))
  in
  match Nnir.Node.op node with
  | Nnir.Op.Conv c ->
      let s = input_shape () in
      let cin_per_group = Nnir.Tensor.channels s / c.groups in
      let out = Nnir.Node.output_shape node in
      let out_height = Nnir.Tensor.height out
      and out_width = Nnir.Tensor.width out in
      (* Grouped convolution is a block-diagonal weight matrix: g blocks
         of (k_h*k_w*C_in/g) x (C_out/g).  Blocks are packed into
         crossbars as tiles — a crossbar seats
         floor(H/block_rows) * floor(W/block_cols) blocks (at least the
         diagonal placement of one block per row/column band), so the
         group count divides out for depthwise layers instead of wasting
         a whole crossbar per channel. *)
      let block_rows = c.kernel_h * c.kernel_w * cin_per_group in
      let block_cols = c.out_channels / c.groups in
      let ags_per_replica, xbars_per_ag, weight_rows =
        if c.groups = 1 then
          ( ceil_div block_rows config.xbar_rows,
            ceil_div c.out_channels config.xbar_cols,
            block_rows )
        else begin
          let blocks_per_xbar =
            max 1
              (min (config.xbar_rows / min block_rows config.xbar_rows)
                 (config.xbar_cols / min block_cols config.xbar_cols))
          in
          (* oversized blocks fall back to per-block tiling *)
          let xbars_per_block =
            ceil_div block_rows config.xbar_rows
            * ceil_div block_cols config.xbar_cols
          in
          let total_xbars =
            if block_rows <= config.xbar_rows && block_cols <= config.xbar_cols
            then ceil_div c.groups blocks_per_xbar
            else c.groups * xbars_per_block
          in
          (* the packed diagonal behaves as one broad AG set: every
             crossbar still receives (a slice of) the same window *)
          (total_xbars, 1, block_rows * c.groups)
        end
      in
      {
        node_id = Nnir.Node.id node;
        name = Nnir.Node.name node;
        weight_rows;
        weight_cols = c.out_channels;
        ags_per_replica;
        xbars_per_ag;
        windows = out_height * out_width;
        out_height;
        out_width;
        out_channels = c.out_channels;
        output_bytes_per_window =
          c.out_channels * Nnir.Tensor.bytes_per_element;
      }
  | Nnir.Op.Fully_connected f ->
      let s = input_shape () in
      let weight_rows = Nnir.Tensor.flattened_features s in
      {
        node_id = Nnir.Node.id node;
        name = Nnir.Node.name node;
        weight_rows;
        weight_cols = f.out_features;
        ags_per_replica = ceil_div weight_rows config.xbar_rows;
        xbars_per_ag = ceil_div f.out_features config.xbar_cols;
        windows = 1;
        out_height = 1;
        out_width = 1;
        out_channels = f.out_features;
        output_bytes_per_window =
          f.out_features * Nnir.Tensor.bytes_per_element;
      }
  | _ ->
      invalid_arg
        (Fmt.str "Partition.of_node: node %S is not conv/fc"
           (Nnir.Node.name node))

(* The partition table of a graph: one entry per weighted node, indexed
   both positionally (dense "weighted index") and by node id. *)
type table = {
  graph : Nnir.Graph.t;
  config : Pimhw.Config.t;
  entries : info array;                 (* dense, in node-id order *)
  by_node : int array;                  (* node id -> entry index or -1 *)
}

let of_graph (config : Pimhw.Config.t) (g : Nnir.Graph.t) =
  let weighted = Nnir.Graph.weighted_nodes g in
  let entries =
    weighted
    |> List.map (fun id -> of_node config g (Nnir.Graph.node g id))
    |> Array.of_list
  in
  let by_node = Array.make (Nnir.Graph.num_nodes g) (-1) in
  Array.iteri (fun i info -> by_node.(info.node_id) <- i) entries;
  { graph = g; config; entries; by_node }

let entries t = t.entries
let table_config t = t.config
let table_graph t = t.graph
let num_weighted t = Array.length t.entries

let entry t i =
  if i < 0 || i >= Array.length t.entries then
    invalid_arg (Fmt.str "Partition.entry: index %d out of range" i)
  else t.entries.(i)

let index_of_node t node_id =
  if node_id < 0 || node_id >= Array.length t.by_node then -1
  else t.by_node.(node_id)

let info_of_node t node_id =
  let i = index_of_node t node_id in
  if i < 0 then None else Some t.entries.(i)

(* Crossbars needed at replication 1 — the feasibility floor. *)
let min_xbars t =
  Array.fold_left (fun acc info -> acc + xbars_per_replica info) 0 t.entries

(* Smallest core count that fits the network at replication 1 with 1.5x
   headroom for replication (paper: user-specified core_num; this is the
   default policy). *)
let fit_core_count t =
  let xbars = int_of_float (ceil (float_of_int (min_xbars t) *. 1.5)) in
  max 2 (ceil_div xbars t.config.xbars_per_core)
