(* The DNN computation graph: a DAG of single-output nodes.

   Node ids are dense (0 .. n-1) array indices.  A graph is created from a
   node list, validated (dense ids, arities, acyclicity), and its shapes
   are inferred eagerly so that every downstream consumer can rely on
   [Node.output_shape]. *)

type t = {
  name : string;
  nodes : Node.t array;
  consumers : Node.id list array;  (* consumers.(i) = nodes reading node i *)
  topo_order : Node.id array;      (* topological order of all ids *)
  outputs : Node.id list;          (* nodes with no consumers *)
}

exception Invalid_graph of string

let errf fmt = Fmt.kstr (fun s -> raise (Invalid_graph s)) fmt

let node g id =
  if id < 0 || id >= Array.length g.nodes then
    errf "node id %d out of range in graph %S" id g.name
  else g.nodes.(id)

let name g = g.name
let nodes g = g.nodes
let num_nodes g = Array.length g.nodes
let consumers g id = g.consumers.(id)
let topo_order g = g.topo_order
let outputs g = g.outputs

let inputs g =
  Array.to_list g.nodes
  |> List.filter (fun n -> Op.is_input (Node.op n))
  |> List.map Node.id

let iter f g = Array.iter f g.nodes

(* Kahn's algorithm; also detects cycles. *)
let compute_topo_order nodes consumers =
  let n = Array.length nodes in
  let in_degree = Array.make n 0 in
  Array.iter
    (fun node ->
      in_degree.(Node.id node) <- List.length (Node.inputs node))
    nodes;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) in_degree;
  let order = Array.make n (-1) in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order.(!count) <- id;
    incr count;
    List.iter
      (fun c ->
        in_degree.(c) <- in_degree.(c) - 1;
        if in_degree.(c) = 0 then Queue.add c queue)
      consumers.(id)
  done;
  if !count <> n then errf "graph contains a cycle";
  order

let validate_node_ids nodes =
  Array.iteri
    (fun i node ->
      if Node.id node <> i then
        errf "node %S has id %d but sits at index %d" (Node.name node)
          (Node.id node) i)
    nodes

let validate_arities nodes =
  Array.iter
    (fun node ->
      let arity = List.length (Node.inputs node) in
      let expected = Op.expected_arity (Node.op node) in
      let ok = if expected = -1 then arity >= 2 else arity = expected in
      if not ok then
        errf "node %S (%s) has %d inputs, expected %s" (Node.name node)
          (Op.kind_name (Node.op node))
          arity
          (if expected = -1 then "two or more" else string_of_int expected))
    nodes

let validate_edges nodes =
  let n = Array.length nodes in
  Array.iter
    (fun node ->
      List.iter
        (fun src ->
          if src < 0 || src >= n then
            errf "node %S references unknown producer id %d" (Node.name node)
              src;
          if src = Node.id node then
            errf "node %S is its own producer" (Node.name node))
        (Node.inputs node))
    nodes

let infer_shapes nodes topo_order =
  Array.iter
    (fun id ->
      let node = nodes.(id) in
      let input_shapes =
        List.map (fun src -> Node.output_shape nodes.(src)) (Node.inputs node)
      in
      match Shape_infer.infer (Node.op node) input_shapes with
      | shape -> Node.set_output_shape node shape
      | exception Shape_infer.Shape_error msg ->
          errf "shape inference failed at node %S: %s" (Node.name node) msg)
    topo_order

let create ~name node_list =
  let nodes = Array.of_list node_list in
  if Array.length nodes = 0 then errf "graph %S is empty" name;
  validate_node_ids nodes;
  validate_arities nodes;
  validate_edges nodes;
  let n = Array.length nodes in
  let consumers = Array.make n [] in
  Array.iter
    (fun node ->
      List.iter
        (fun src -> consumers.(src) <- Node.id node :: consumers.(src))
        (Node.inputs node))
    nodes;
  Array.iteri (fun i l -> consumers.(i) <- List.rev l) consumers;
  let topo_order = compute_topo_order nodes consumers in
  infer_shapes nodes topo_order;
  let outputs =
    Array.to_list nodes
    |> List.filter (fun node -> consumers.(Node.id node) = [])
    |> List.map Node.id
  in
  { name; nodes; consumers; topo_order; outputs }

(* --- queries ----------------------------------------------------------- *)

let weighted_nodes g =
  Array.to_list g.nodes |> List.filter Node.is_weighted |> List.map Node.id

(* The nearest weighted (conv/FC) ancestors of [id], looking through
   non-weighted nodes.  Used by LL scheduling to attach POOL/ELTWISE/...
   work to the cores of the predecessor convolution (Sec IV-D2). *)
let weighted_ancestors g id =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let n = g.nodes.(id) in
      if Node.is_weighted n then acc := id :: !acc
      else List.iter go (Node.inputs n)
    end
  in
  List.iter go (Node.inputs g.nodes.(id));
  List.sort_uniq compare !acc

(* Graphviz DOT export, handy for inspecting zoo topologies. *)
let to_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fmt.str "digraph %S {\n  rankdir=TB;\n" g.name);
  Array.iter
    (fun node ->
      Buffer.add_string buf
        (Fmt.str "  n%d [label=\"%s\\n%s\"];\n" (Node.id node)
           (Node.name node)
           (Op.to_string (Node.op node))))
    g.nodes;
  Array.iter
    (fun node ->
      List.iter
        (fun src ->
          Buffer.add_string buf (Fmt.str "  n%d -> n%d;\n" src (Node.id node)))
        (Node.inputs node))
    g.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
