(* Operator algebra of the DNN IR.

   The operator set covers everything the five benchmark networks of the
   paper need (vgg16, resnet18, squeezenet, googlenet, inception-v3):
   convolution, fully connected, max/average pooling (incl. global),
   activations, element-wise ops, concatenation, flatten, softmax and the
   inference-time no-ops (dropout, batch-norm folded into conv). *)

type padding = { top : int; bottom : int; left : int; right : int }

let pad_none = { top = 0; bottom = 0; left = 0; right = 0 }

let pad_same p = { top = p; bottom = p; left = p; right = p }

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
  (* Global pooling collapses the whole spatial extent regardless of the
     kernel fields (which are then ignored). *)
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
  | Concat  (* along the channel axis, the only case the networks use *)
  | Flatten
  | Softmax
  | Identity  (* dropout / folded batch-norm at inference time *)

let conv ?(stride = 1) ?(pad = 0) ?(groups = 1) ?(has_bias = true) ~out_channels
    ~kernel () =
  Conv
    {
      out_channels;
      kernel_h = kernel;
      kernel_w = kernel;
      stride_h = stride;
      stride_w = stride;
      pad = pad_same pad;
      groups;
      has_bias;
    }

let conv_rect ?(stride_h = 1) ?(stride_w = 1) ?(pad = pad_none) ?(groups = 1)
    ?(has_bias = true) ~out_channels ~kernel_h ~kernel_w () =
  Conv
    { out_channels; kernel_h; kernel_w; stride_h; stride_w; pad; groups; has_bias }

let fully_connected ?(has_bias = true) ~out_features () =
  Fully_connected { out_features; has_bias }

let pool ?(stride = 1) ?(pad = 0) ?(ceil_mode = false) ~kind ~kernel () =
  Pool
    {
      kind;
      kernel_h = kernel;
      kernel_w = kernel;
      stride_h = stride;
      stride_w = stride;
      pad = pad_same pad;
      global = false;
      ceil_mode;
    }

let global_pool ~kind =
  Pool
    {
      kind;
      kernel_h = 0;
      kernel_w = 0;
      stride_h = 1;
      stride_w = 1;
      pad = pad_none;
      global = true;
      ceil_mode = false;
    }

let relu = Activation Relu

(* --- classification helpers ------------------------------------------- *)

(* Nodes whose weights live in crossbars and therefore go through node
   partitioning (Section IV-B of the paper: conv and FC, FC being treated
   as a special conv). *)
let is_weighted = function
  | Conv _ | Fully_connected _ -> true
  | Input _ | Pool _ | Activation _ | Eltwise _ | Concat | Flatten | Softmax
  | Identity ->
      false

let is_input = function Input _ -> true | _ -> false

(* Operators realised purely by local-memory data movement. *)
let is_memory_op = function
  | Concat | Flatten | Identity -> true
  | Input _ | Conv _ | Fully_connected _ | Pool _ | Activation _ | Eltwise _
  | Softmax ->
      false

let expected_arity = function
  | Input _ -> 0
  | Conv _ | Fully_connected _ | Pool _ | Activation _ | Flatten | Softmax
  | Identity ->
      1
  | Eltwise _ -> 2
  | Concat -> -1 (* two or more *)

(* --- names and printing ------------------------------------------------ *)

let kind_name = function
  | Input _ -> "input"
  | Conv _ -> "conv"
  | Fully_connected _ -> "fc"
  | Pool { kind = Max_pool; _ } -> "maxpool"
  | Pool { kind = Avg_pool; _ } -> "avgpool"
  | Activation Relu -> "relu"
  | Activation Sigmoid -> "sigmoid"
  | Activation Tanh -> "tanh"
  | Eltwise Add -> "add"
  | Eltwise Mul -> "mul"
  | Eltwise Max -> "max"
  | Concat -> "concat"
  | Flatten -> "flatten"
  | Softmax -> "softmax"
  | Identity -> "identity"

let pp_padding ppf p =
  if p.top = p.bottom && p.left = p.right && p.top = p.left then
    Fmt.pf ppf "%d" p.top
  else Fmt.pf ppf "(%d,%d,%d,%d)" p.top p.bottom p.left p.right

let pp ppf = function
  | Input s -> Fmt.pf ppf "input%a" Tensor.pp s
  | Conv c ->
      Fmt.pf ppf "conv(oc=%d k=%dx%d s=%dx%d p=%a g=%d)" c.out_channels
        c.kernel_h c.kernel_w c.stride_h c.stride_w pp_padding c.pad c.groups
  | Fully_connected f -> Fmt.pf ppf "fc(of=%d)" f.out_features
  | Pool p when p.global ->
      Fmt.pf ppf "global_%s"
        (match p.kind with Max_pool -> "maxpool" | Avg_pool -> "avgpool")
  | Pool p ->
      Fmt.pf ppf "%s(k=%dx%d s=%dx%d p=%a)"
        (match p.kind with Max_pool -> "maxpool" | Avg_pool -> "avgpool")
        p.kernel_h p.kernel_w p.stride_h p.stride_w pp_padding p.pad
  | ( Activation _ | Eltwise _ | Concat | Flatten | Softmax | Identity ) as op ->
      Fmt.string ppf (kind_name op)

let to_string op = Fmt.str "%a" pp op
