(** Model zoo: the paper's five benchmark networks plus small networks
    for tests and examples, built programmatically from their published
    architecture specifications (the ONNX-frontend substitute — see
    DESIGN.md §1).

    [input_size] scales spatial resolution only; topology, channel counts,
    kernels and strides always match the real networks. *)

val vgg16 : ?input_size:int -> unit -> Graph.t
val resnet18 : ?input_size:int -> unit -> Graph.t
val squeezenet : ?input_size:int -> unit -> Graph.t
val googlenet : ?input_size:int -> unit -> Graph.t
val inception_v3 : ?input_size:int -> unit -> Graph.t
val mobilenet : ?input_size:int -> unit -> Graph.t
(** MobileNetV1: depthwise-separable convolutions (grouped conv with
    groups = C_in), exercising block-diagonal crossbar packing. *)

val resnet34 : ?input_size:int -> unit -> Graph.t
val vgg19 : ?input_size:int -> unit -> Graph.t

val densenet121 : ?input_size:int -> unit -> Graph.t
(** DenseNet-121 (batch-norm folded): 58 concatenations over 120 convs,
    the stress test for LL piece-delivery tracking. *)

val lenet : ?input_size:int -> unit -> Graph.t
val alexnet : ?input_size:int -> unit -> Graph.t
val mlp : unit -> Graph.t
val tiny : ?input_size:int -> unit -> Graph.t

val names : string list
val paper_benchmarks : string list
(** The five networks of the paper's evaluation, in paper order. *)

val build : ?input_size:int -> string -> Graph.t
(** Build a network by name.  Raises [Invalid_argument] for unknown names
    or input sizes below the network's minimum. *)

val default_input_size : string -> int
val min_input_size : string -> int

val scaled_input_size : ?factor:int -> string -> int
(** Default resolution divided by [factor] (default 4), clamped to the
    network's minimum — used to keep simulations tractable. *)
