(* A node of the DNN graph: an operator application with named identity.

   [inputs] lists the producer node ids in argument order.  Nodes are
   single-output; the output shape is computed by {!Shape_infer} and
   cached on the node by {!Graph.infer_shapes}. *)

type id = int

type t = {
  id : id;
  name : string;
  op : Op.t;
  inputs : id list;
  mutable output_shape : Tensor.shape option;
}

let make ~id ~name ~op ~inputs = { id; name; op; inputs; output_shape = None }

let id n = n.id
let name n = n.name
let op n = n.op
let inputs n = n.inputs

let output_shape n =
  match n.output_shape with
  | Some s -> s
  | None ->
      invalid_arg
        (Fmt.str "Node.output_shape: shape of %S not inferred yet" n.name)

let set_output_shape n s = n.output_shape <- Some s

let is_weighted n = Op.is_weighted n.op
