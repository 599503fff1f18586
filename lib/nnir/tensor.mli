(** Tensor shapes for the DNN IR.

    Activation tensors use the NCHW layout with an implicit batch of 1:
    a feature map is [[|channels; height; width|]], a flattened vector is
    [[|features|]].  All data is 16-bit fixed point, matching the paper's
    evaluation setup. *)

type shape = int array

val scalar : shape
val vector : int -> shape
val chw : channels:int -> height:int -> width:int -> shape

val rank : shape -> int
val num_elements : shape -> int

val bytes_per_element : int
(** Bytes per activation/weight element (2 — 16-bit fixed point). *)

val num_bytes : shape -> int
val equal : shape -> shape -> bool

val is_chw : shape -> bool
val channels : shape -> int
val height : shape -> int
val width : shape -> int
val features : shape -> int
val flattened_features : shape -> int

val row_geometry : shape -> int * int
(** [(rows, bytes per row)] of the tensor's row stream: CHW shapes
    stream [height] rows of [channels * width] elements; any other shape
    is a single row of all its elements.  The piece-stream geometry both
    dataflow schedulers chunk over. *)

val to_list : shape -> int list
val of_list : int list -> shape

val pp : shape Fmt.t

val validate : shape -> unit
(** Raises [Invalid_argument] if any dimension is non-positive. *)
