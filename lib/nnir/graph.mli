(** The DNN computation graph: a validated DAG of single-output nodes
    with inferred shapes.  Node ids are dense indices [0 .. n-1]. *)

type t

exception Invalid_graph of string

val create : name:string -> Node.t list -> t
(** Validates ids, arities and acyclicity, then infers all shapes.
    Raises {!Invalid_graph} on any inconsistency. *)

val name : t -> string
val nodes : t -> Node.t array
val num_nodes : t -> int
val node : t -> Node.id -> Node.t
val consumers : t -> Node.id -> Node.id list
val topo_order : t -> Node.id array
val outputs : t -> Node.id list
val inputs : t -> Node.id list

val iter : (Node.t -> unit) -> t -> unit

val weighted_nodes : t -> Node.id list
(** Ids of conv/FC nodes, in id order. *)

val weighted_ancestors : t -> Node.id -> Node.id list
(** Nearest conv/FC ancestors of a node, looking through non-weighted
    nodes.  Used to co-locate auxiliary ops with their producer layers. *)

val to_dot : t -> string
