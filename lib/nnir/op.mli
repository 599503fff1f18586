(** Operator algebra of the DNN IR.

    Covers every operator the paper's five benchmark networks use.
    Batch-norm is assumed folded into the preceding convolution at
    inference time (standard practice, and what PIM compilers do since
    weights are programmed into crossbar conductances), so it appears
    as {!Identity}. *)

type padding = { top : int; bottom : int; left : int; right : int }

type conv_params = {
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride_h : int;
  stride_w : int;
  pad : padding;
  groups : int;
  has_bias : bool;
}

type fc_params = { out_features : int; has_bias : bool }

type pool_kind = Max_pool | Avg_pool

type pool_params = {
  kind : pool_kind;
  kernel_h : int;
  kernel_w : int;
  stride_h : int;
  stride_w : int;
  pad : padding;
  global : bool;
  ceil_mode : bool;
}

type activation_kind = Relu | Sigmoid | Tanh
type eltwise_kind = Add | Mul | Max

type t =
  | Input of Tensor.shape
  | Conv of conv_params
  | Fully_connected of fc_params
  | Pool of pool_params
  | Activation of activation_kind
  | Eltwise of eltwise_kind
  | Concat
  | Flatten
  | Softmax
  | Identity

(** {1 Constructors} *)

val conv :
  ?stride:int ->
  ?pad:int ->
  ?groups:int ->
  ?has_bias:bool ->
  out_channels:int ->
  kernel:int ->
  unit ->
  t
(** Square-kernel convolution with symmetric padding. *)

val conv_rect :
  ?stride_h:int ->
  ?stride_w:int ->
  ?pad:padding ->
  ?groups:int ->
  ?has_bias:bool ->
  out_channels:int ->
  kernel_h:int ->
  kernel_w:int ->
  unit ->
  t
(** Rectangular-kernel convolution (inception-v3 uses 1x7 / 7x1 etc.). *)

val fully_connected : ?has_bias:bool -> out_features:int -> unit -> t
val pool :
  ?stride:int -> ?pad:int -> ?ceil_mode:bool -> kind:pool_kind -> kernel:int -> unit -> t
val global_pool : kind:pool_kind -> t
val relu : t

(** {1 Classification} *)

val is_weighted : t -> bool
(** [true] for conv and FC — the nodes whose weights are partitioned into
    crossbar Array Groups. *)

val is_input : t -> bool
val is_memory_op : t -> bool

val expected_arity : t -> int
(** Number of inputs the operator expects; [-1] means "two or more". *)

(** {1 Printing} *)

val kind_name : t -> string
val pp : t Fmt.t
val to_string : t -> string
