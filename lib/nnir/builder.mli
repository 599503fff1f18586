(** Fluent construction API for DNN graphs.  Every combinator appends a
    node and returns its id, so topologies are written top-down. *)

type t

val create : string -> t
(** [create name] starts an empty builder for a graph called [name]. *)

val add : ?name:string -> t -> Op.t -> inputs:Node.id list -> Node.id
(** Low-level node insertion; names are made unique automatically. *)

val finish : t -> Graph.t
(** Validate and freeze the accumulated nodes (see {!Graph.create}). *)

val input : ?name:string -> t -> channels:int -> size:int -> Node.id
val input_shape : ?name:string -> t -> Tensor.shape -> Node.id

val conv :
  ?name:string -> ?stride:int -> ?pad:int -> ?groups:int -> ?has_bias:bool ->
  t -> Node.id -> out_channels:int -> kernel:int -> Node.id

val conv_rect :
  ?name:string -> ?stride_h:int -> ?stride_w:int -> ?pad:Op.padding ->
  ?groups:int -> ?has_bias:bool ->
  t -> Node.id -> out_channels:int -> kernel_h:int -> kernel_w:int -> Node.id

val relu : ?name:string -> t -> Node.id -> Node.id

val conv_relu :
  ?name:string -> ?stride:int -> ?pad:int -> ?groups:int ->
  t -> Node.id -> out_channels:int -> kernel:int -> Node.id

val max_pool :
  ?name:string -> ?stride:int -> ?pad:int -> ?ceil_mode:bool ->
  t -> Node.id -> kernel:int -> Node.id

val avg_pool :
  ?name:string -> ?stride:int -> ?pad:int -> ?ceil_mode:bool ->
  t -> Node.id -> kernel:int -> Node.id

val global_avg_pool : ?name:string -> t -> Node.id -> Node.id
val flatten : ?name:string -> t -> Node.id -> Node.id
val fc : ?name:string -> ?has_bias:bool -> t -> Node.id -> out_features:int -> Node.id
val fc_relu : ?name:string -> t -> Node.id -> out_features:int -> Node.id
val eltwise_add : ?name:string -> t -> Node.id -> Node.id -> Node.id
val concat : ?name:string -> t -> Node.id list -> Node.id
val softmax : ?name:string -> t -> Node.id -> Node.id
val identity : ?name:string -> t -> Node.id -> Node.id
