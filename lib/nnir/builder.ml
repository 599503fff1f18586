(* Fluent construction API for DNN graphs, used by the model zoo.

   A builder accumulates nodes; every combinator returns the id of the
   node it created so topologies read naturally:

   {[
     let b = Builder.create "net" in
     let x = Builder.input b ~channels:3 ~size:224 in
     let x = Builder.conv_relu b x ~out_channels:64 ~kernel:3 ~pad:1 in
     ...
     Builder.finish b
   ]} *)

type t = {
  graph_name : string;
  mutable rev_nodes : Node.t list;
  mutable next_id : int;
  mutable name_counts : (string, int) Hashtbl.t;
}

let create graph_name =
  { graph_name; rev_nodes = []; next_id = 0; name_counts = Hashtbl.create 64 }

let fresh_name b base =
  let count = try Hashtbl.find b.name_counts base with Not_found -> 0 in
  Hashtbl.replace b.name_counts base (count + 1);
  if count = 0 then base else Fmt.str "%s_%d" base count

let add ?name b op ~inputs =
  let base = match name with Some n -> n | None -> Op.kind_name op in
  let name = fresh_name b base in
  let id = b.next_id in
  b.next_id <- id + 1;
  b.rev_nodes <- Node.make ~id ~name ~op ~inputs :: b.rev_nodes;
  id

let finish b = Graph.create ~name:b.graph_name (List.rev b.rev_nodes)

(* --- combinators -------------------------------------------------------- *)

let input ?name b ~channels ~size =
  add ?name b (Op.Input (Tensor.chw ~channels ~height:size ~width:size))
    ~inputs:[]

let input_shape ?name b shape = add ?name b (Op.Input shape) ~inputs:[]

let conv ?name ?(stride = 1) ?(pad = 0) ?groups ?has_bias b x ~out_channels
    ~kernel =
  add ?name b
    (Op.conv ~stride ~pad ?groups ?has_bias ~out_channels ~kernel ())
    ~inputs:[ x ]

let conv_rect ?name ?stride_h ?stride_w ?pad ?groups ?has_bias b x
    ~out_channels ~kernel_h ~kernel_w =
  add ?name b
    (Op.conv_rect ?stride_h ?stride_w ?pad ?groups ?has_bias ~out_channels
       ~kernel_h ~kernel_w ())
    ~inputs:[ x ]

let relu ?name b x = add ?name b Op.relu ~inputs:[ x ]

let conv_relu ?name ?stride ?pad ?groups b x ~out_channels ~kernel =
  let c = conv ?name ?stride ?pad ?groups b x ~out_channels ~kernel in
  relu b c

let max_pool ?name ?(stride = 2) ?(pad = 0) ?ceil_mode b x ~kernel =
  add ?name b (Op.pool ~stride ~pad ?ceil_mode ~kind:Op.Max_pool ~kernel ())
    ~inputs:[ x ]

let avg_pool ?name ?(stride = 2) ?(pad = 0) ?ceil_mode b x ~kernel =
  add ?name b (Op.pool ~stride ~pad ?ceil_mode ~kind:Op.Avg_pool ~kernel ())
    ~inputs:[ x ]

let global_avg_pool ?name b x =
  add ?name b (Op.global_pool ~kind:Op.Avg_pool) ~inputs:[ x ]

let flatten ?name b x = add ?name b Op.Flatten ~inputs:[ x ]

let fc ?name ?has_bias b x ~out_features =
  add ?name b (Op.fully_connected ?has_bias ~out_features ()) ~inputs:[ x ]

let fc_relu ?name b x ~out_features =
  let f = fc ?name b x ~out_features in
  relu b f

let eltwise_add ?name b x y = add ?name b (Op.Eltwise Op.Add) ~inputs:[ x; y ]

let concat ?name b xs =
  if List.length xs < 2 then invalid_arg "Builder.concat: needs >= 2 inputs";
  add ?name b Op.Concat ~inputs:xs

let softmax ?name b x = add ?name b Op.Softmax ~inputs:[ x ]

let identity ?name b x = add ?name b Op.Identity ~inputs:[ x ]
