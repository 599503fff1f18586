(** A node of the DNN graph: an operator application with a name and a
    list of producer node ids.  Nodes have exactly one output tensor. *)

type id = int

type t = {
  id : id;
  name : string;
  op : Op.t;
  inputs : id list;
  mutable output_shape : Tensor.shape option;
}

val make : id:id -> name:string -> op:Op.t -> inputs:id list -> t

val id : t -> id
val name : t -> string
val op : t -> Op.t
val inputs : t -> id list

val output_shape : t -> Tensor.shape
(** Raises [Invalid_argument] if shapes have not been inferred. *)

val set_output_shape : t -> Tensor.shape -> unit

val is_weighted : t -> bool
