(* Model zoo: programmatic constructions of the paper's five benchmark
   networks (vgg16, resnet18, squeezenet 1.0, googlenet, inception-v3)
   plus small networks used by tests and examples.

   Topologies follow the original publications / torchvision definitions.
   Batch-norm layers are folded (inference time) and therefore omitted.
   [input_size] scales the spatial resolution while preserving the layer
   structure, which keeps simulations tractable; channel counts, kernel
   sizes, strides and the topology are never altered. *)

module B = Builder

(* ------------------------------------------------------------------ *)
(* vgg                                                                 *)
(* ------------------------------------------------------------------ *)

let vgg ~name ~blocks ?(input_size = 224) () =
  let b = B.create name in
  let x = B.input b ~channels:3 ~size:input_size in
  let block x channel_counts =
    let x =
      List.fold_left
        (fun x out_channels -> B.conv_relu b x ~out_channels ~kernel:3 ~pad:1)
        x channel_counts
    in
    B.max_pool b x ~kernel:2 ~stride:2
  in
  let x = List.fold_left block x blocks in
  let x = B.flatten b x in
  let x = B.fc_relu b x ~out_features:4096 in
  let x = B.fc_relu b x ~out_features:4096 in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

let vgg16 ?input_size () =
  vgg ~name:"vgg16"
    ~blocks:
      [ [ 64; 64 ]; [ 128; 128 ]; [ 256; 256; 256 ]; [ 512; 512; 512 ];
        [ 512; 512; 512 ] ]
    ?input_size ()

let vgg19 ?input_size () =
  vgg ~name:"vgg19"
    ~blocks:
      [ [ 64; 64 ]; [ 128; 128 ]; [ 256; 256; 256; 256 ];
        [ 512; 512; 512; 512 ]; [ 512; 512; 512; 512 ] ]
    ?input_size ()

(* ------------------------------------------------------------------ *)
(* resnet18                                                            *)
(* ------------------------------------------------------------------ *)

let resnet ~name ~stage_depths ?(input_size = 224) () =
  let b = B.create name in
  let basic_block x ~out_channels ~stride =
    let main =
      let c = B.conv b x ~out_channels ~kernel:3 ~stride ~pad:1 in
      let c = B.relu b c in
      B.conv b c ~out_channels ~kernel:3 ~pad:1
    in
    let shortcut =
      if stride = 1 then x
      else B.conv b x ~out_channels ~kernel:1 ~stride ~name:"downsample"
    in
    let s = B.eltwise_add b main shortcut in
    B.relu b s
  in
  let stage x ~depth ~out_channels ~first_stride =
    let x = ref (basic_block x ~out_channels ~stride:first_stride) in
    for _ = 2 to depth do
      x := basic_block !x ~out_channels ~stride:1
    done;
    !x
  in
  let d1, d2, d3, d4 = stage_depths in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:7 ~stride:2 ~pad:3 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~pad:1 in
  let x = stage x ~depth:d1 ~out_channels:64 ~first_stride:1 in
  let x = stage x ~depth:d2 ~out_channels:128 ~first_stride:2 in
  let x = stage x ~depth:d3 ~out_channels:256 ~first_stride:2 in
  let x = stage x ~depth:d4 ~out_channels:512 ~first_stride:2 in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

let resnet18 ?input_size () =
  resnet ~name:"resnet18" ~stage_depths:(2, 2, 2, 2) ?input_size ()

let resnet34 ?input_size () =
  resnet ~name:"resnet34" ~stage_depths:(3, 4, 6, 3) ?input_size ()

(* ------------------------------------------------------------------ *)
(* squeezenet 1.0                                                      *)
(* ------------------------------------------------------------------ *)

let squeezenet ?(input_size = 224) () =
  let b = B.create "squeezenet" in
  let fire x ~squeeze ~expand1 ~expand3 =
    let s = B.conv_relu b x ~out_channels:squeeze ~kernel:1 ~name:"squeeze1x1" in
    let e1 = B.conv_relu b s ~out_channels:expand1 ~kernel:1 ~name:"expand1x1" in
    let e3 =
      B.conv_relu b s ~out_channels:expand3 ~kernel:3 ~pad:1 ~name:"expand3x3"
    in
    B.concat b [ e1; e3 ]
  in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:96 ~kernel:7 ~stride:2 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = fire x ~squeeze:16 ~expand1:64 ~expand3:64 in
  let x = fire x ~squeeze:16 ~expand1:64 ~expand3:64 in
  let x = fire x ~squeeze:32 ~expand1:128 ~expand3:128 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = fire x ~squeeze:32 ~expand1:128 ~expand3:128 in
  let x = fire x ~squeeze:48 ~expand1:192 ~expand3:192 in
  let x = fire x ~squeeze:48 ~expand1:192 ~expand3:192 in
  let x = fire x ~squeeze:64 ~expand1:256 ~expand3:256 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = fire x ~squeeze:64 ~expand1:256 ~expand3:256 in
  let x = B.conv_relu b x ~out_channels:1000 ~kernel:1 ~name:"conv10" in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* googlenet (inception v1)                                            *)
(* ------------------------------------------------------------------ *)

let googlenet ?(input_size = 224) () =
  let b = B.create "googlenet" in
  let inception x ~c1 ~c3r ~c3 ~c5r ~c5 ~pool_proj =
    let b1 = B.conv_relu b x ~out_channels:c1 ~kernel:1 in
    let b2 =
      let r = B.conv_relu b x ~out_channels:c3r ~kernel:1 in
      B.conv_relu b r ~out_channels:c3 ~kernel:3 ~pad:1
    in
    let b3 =
      let r = B.conv_relu b x ~out_channels:c5r ~kernel:1 in
      B.conv_relu b r ~out_channels:c5 ~kernel:5 ~pad:2
    in
    let b4 =
      let p = B.max_pool b x ~kernel:3 ~stride:1 ~pad:1 in
      B.conv_relu b p ~out_channels:pool_proj ~kernel:1
    in
    B.concat b [ b1; b2; b3; b4 ]
  in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:7 ~stride:2 ~pad:3 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:1 in
  let x = B.conv_relu b x ~out_channels:192 ~kernel:3 ~pad:1 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = inception x ~c1:64 ~c3r:96 ~c3:128 ~c5r:16 ~c5:32 ~pool_proj:32 in
  let x = inception x ~c1:128 ~c3r:128 ~c3:192 ~c5r:32 ~c5:96 ~pool_proj:64 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = inception x ~c1:192 ~c3r:96 ~c3:208 ~c5r:16 ~c5:48 ~pool_proj:64 in
  let x = inception x ~c1:160 ~c3r:112 ~c3:224 ~c5r:24 ~c5:64 ~pool_proj:64 in
  let x = inception x ~c1:128 ~c3r:128 ~c3:256 ~c5r:24 ~c5:64 ~pool_proj:64 in
  let x = inception x ~c1:112 ~c3r:144 ~c3:288 ~c5r:32 ~c5:64 ~pool_proj:64 in
  let x = inception x ~c1:256 ~c3r:160 ~c3:320 ~c5r:32 ~c5:128 ~pool_proj:128 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~ceil_mode:true in
  let x = inception x ~c1:256 ~c3r:160 ~c3:320 ~c5r:32 ~c5:128 ~pool_proj:128 in
  let x = inception x ~c1:384 ~c3r:192 ~c3:384 ~c5r:48 ~c5:128 ~pool_proj:128 in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* inception v3                                                        *)
(* ------------------------------------------------------------------ *)

let inception_v3 ?(input_size = 299) () =
  let b = B.create "inception_v3" in
  let pad_hw ~h ~w : Op.padding = { top = h; bottom = h; left = w; right = w } in
  let conv1x7 x ~out_channels =
    let c =
      B.conv_rect b x ~out_channels ~kernel_h:1 ~kernel_w:7
        ~pad:(pad_hw ~h:0 ~w:3)
    in
    B.relu b c
  in
  let conv7x1 x ~out_channels =
    let c =
      B.conv_rect b x ~out_channels ~kernel_h:7 ~kernel_w:1
        ~pad:(pad_hw ~h:3 ~w:0)
    in
    B.relu b c
  in
  let conv1x3 x ~out_channels =
    let c =
      B.conv_rect b x ~out_channels ~kernel_h:1 ~kernel_w:3
        ~pad:(pad_hw ~h:0 ~w:1)
    in
    B.relu b c
  in
  let conv3x1 x ~out_channels =
    let c =
      B.conv_rect b x ~out_channels ~kernel_h:3 ~kernel_w:1
        ~pad:(pad_hw ~h:1 ~w:0)
    in
    B.relu b c
  in
  let avg_pool_proj x ~out_channels =
    let p = B.avg_pool b x ~kernel:3 ~stride:1 ~pad:1 in
    B.conv_relu b p ~out_channels ~kernel:1
  in
  let inception_a x ~pool_features =
    let b1 = B.conv_relu b x ~out_channels:64 ~kernel:1 in
    let b2 =
      let r = B.conv_relu b x ~out_channels:48 ~kernel:1 in
      B.conv_relu b r ~out_channels:64 ~kernel:5 ~pad:2
    in
    let b3 =
      let r = B.conv_relu b x ~out_channels:64 ~kernel:1 in
      let m = B.conv_relu b r ~out_channels:96 ~kernel:3 ~pad:1 in
      B.conv_relu b m ~out_channels:96 ~kernel:3 ~pad:1
    in
    let b4 = avg_pool_proj x ~out_channels:pool_features in
    B.concat b [ b1; b2; b3; b4 ]
  in
  let inception_b x =
    let b1 = B.conv_relu b x ~out_channels:384 ~kernel:3 ~stride:2 in
    let b2 =
      let r = B.conv_relu b x ~out_channels:64 ~kernel:1 in
      let m = B.conv_relu b r ~out_channels:96 ~kernel:3 ~pad:1 in
      B.conv_relu b m ~out_channels:96 ~kernel:3 ~stride:2
    in
    let b3 = B.max_pool b x ~kernel:3 ~stride:2 in
    B.concat b [ b1; b2; b3 ]
  in
  let inception_c x ~c7 =
    let b1 = B.conv_relu b x ~out_channels:192 ~kernel:1 in
    let b2 =
      let r = B.conv_relu b x ~out_channels:c7 ~kernel:1 in
      let m = conv1x7 r ~out_channels:c7 in
      conv7x1 m ~out_channels:192
    in
    let b3 =
      let r = B.conv_relu b x ~out_channels:c7 ~kernel:1 in
      let m = conv7x1 r ~out_channels:c7 in
      let m = conv1x7 m ~out_channels:c7 in
      let m = conv7x1 m ~out_channels:c7 in
      conv1x7 m ~out_channels:192
    in
    let b4 = avg_pool_proj x ~out_channels:192 in
    B.concat b [ b1; b2; b3; b4 ]
  in
  let inception_d x =
    let b1 =
      let r = B.conv_relu b x ~out_channels:192 ~kernel:1 in
      B.conv_relu b r ~out_channels:320 ~kernel:3 ~stride:2
    in
    let b2 =
      let r = B.conv_relu b x ~out_channels:192 ~kernel:1 in
      let m = conv1x7 r ~out_channels:192 in
      let m = conv7x1 m ~out_channels:192 in
      B.conv_relu b m ~out_channels:192 ~kernel:3 ~stride:2
    in
    let b3 = B.max_pool b x ~kernel:3 ~stride:2 in
    B.concat b [ b1; b2; b3 ]
  in
  let inception_e x =
    let b1 = B.conv_relu b x ~out_channels:320 ~kernel:1 in
    let b2 =
      let r = B.conv_relu b x ~out_channels:384 ~kernel:1 in
      let l = conv1x3 r ~out_channels:384 in
      let rr = conv3x1 r ~out_channels:384 in
      B.concat b [ l; rr ]
    in
    let b3 =
      let r = B.conv_relu b x ~out_channels:448 ~kernel:1 in
      let m = B.conv_relu b r ~out_channels:384 ~kernel:3 ~pad:1 in
      let l = conv1x3 m ~out_channels:384 in
      let rr = conv3x1 m ~out_channels:384 in
      B.concat b [ l; rr ]
    in
    let b4 = avg_pool_proj x ~out_channels:192 in
    B.concat b [ b1; b2; b3; b4 ]
  in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:32 ~kernel:3 ~stride:2 in
  let x = B.conv_relu b x ~out_channels:32 ~kernel:3 in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:3 ~pad:1 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 in
  let x = B.conv_relu b x ~out_channels:80 ~kernel:1 in
  let x = B.conv_relu b x ~out_channels:192 ~kernel:3 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 in
  let x = inception_a x ~pool_features:32 in
  let x = inception_a x ~pool_features:64 in
  let x = inception_a x ~pool_features:64 in
  let x = inception_b x in
  let x = inception_c x ~c7:128 in
  let x = inception_c x ~c7:160 in
  let x = inception_c x ~c7:160 in
  let x = inception_c x ~c7:192 in
  let x = inception_d x in
  let x = inception_e x in
  let x = inception_e x in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* densenet-121 (concat-heavy; batch-norm folded)                      *)
(* ------------------------------------------------------------------ *)

let densenet121 ?(input_size = 224) () =
  let b = B.create "densenet121" in
  let growth = 32 in
  let dense_layer x =
    (* BN-ReLU-1x1(4k) - BN-ReLU-3x3(k), concatenated onto the input *)
    let h = B.relu b x in
    let h = B.conv b h ~out_channels:(4 * growth) ~kernel:1 in
    let h = B.relu b h in
    let h = B.conv b h ~out_channels:growth ~kernel:3 ~pad:1 in
    B.concat b [ x; h ]
  in
  let dense_block x ~layers =
    let x = ref x in
    for _ = 1 to layers do
      x := dense_layer !x
    done;
    !x
  in
  let transition x ~out_channels =
    let h = B.relu b x in
    let h = B.conv b h ~out_channels ~kernel:1 in
    B.avg_pool b h ~kernel:2 ~stride:2
  in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:7 ~stride:2 ~pad:3 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 ~pad:1 in
  let x = dense_block x ~layers:6 in
  let x = transition x ~out_channels:128 in
  let x = dense_block x ~layers:12 in
  let x = transition x ~out_channels:256 in
  let x = dense_block x ~layers:24 in
  let x = transition x ~out_channels:512 in
  let x = dense_block x ~layers:16 in
  let x = B.relu b x in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* mobilenet v1 (depthwise separable convolutions, groups = C_in)      *)
(* ------------------------------------------------------------------ *)

let mobilenet ?(input_size = 224) () =
  let b = B.create "mobilenet" in
  let separable x ~in_channels ~out_channels ~stride =
    let dw =
      B.conv b x ~out_channels:in_channels ~kernel:3 ~stride ~pad:1
        ~groups:in_channels ~name:"dw"
    in
    let dw = B.relu b dw in
    let pw = B.conv b dw ~out_channels ~kernel:1 ~name:"pw" in
    B.relu b pw
  in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:32 ~kernel:3 ~stride:2 ~pad:1 in
  let x = separable x ~in_channels:32 ~out_channels:64 ~stride:1 in
  let x = separable x ~in_channels:64 ~out_channels:128 ~stride:2 in
  let x = separable x ~in_channels:128 ~out_channels:128 ~stride:1 in
  let x = separable x ~in_channels:128 ~out_channels:256 ~stride:2 in
  let x = separable x ~in_channels:256 ~out_channels:256 ~stride:1 in
  let x = separable x ~in_channels:256 ~out_channels:512 ~stride:2 in
  let x = ref x in
  for _ = 1 to 5 do
    x := separable !x ~in_channels:512 ~out_channels:512 ~stride:1
  done;
  let x = separable !x ~in_channels:512 ~out_channels:1024 ~stride:2 in
  let x = separable x ~in_channels:1024 ~out_channels:1024 ~stride:1 in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* small networks for tests and examples                               *)
(* ------------------------------------------------------------------ *)

let lenet ?(input_size = 28) () =
  let b = B.create "lenet" in
  let x = B.input b ~channels:1 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:6 ~kernel:5 ~pad:2 in
  let x = B.max_pool b x ~kernel:2 ~stride:2 in
  let x = B.conv_relu b x ~out_channels:16 ~kernel:5 in
  let x = B.max_pool b x ~kernel:2 ~stride:2 in
  let x = B.flatten b x in
  let x = B.fc_relu b x ~out_features:120 in
  let x = B.fc_relu b x ~out_features:84 in
  let x = B.fc b x ~out_features:10 in
  let _ = B.softmax b x in
  B.finish b

let alexnet ?(input_size = 224) () =
  let b = B.create "alexnet" in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:64 ~kernel:11 ~stride:4 ~pad:2 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 in
  let x = B.conv_relu b x ~out_channels:192 ~kernel:5 ~pad:2 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 in
  let x = B.conv_relu b x ~out_channels:384 ~kernel:3 ~pad:1 in
  let x = B.conv_relu b x ~out_channels:256 ~kernel:3 ~pad:1 in
  let x = B.conv_relu b x ~out_channels:256 ~kernel:3 ~pad:1 in
  let x = B.max_pool b x ~kernel:3 ~stride:2 in
  let x = B.flatten b x in
  let x = B.fc_relu b x ~out_features:4096 in
  let x = B.fc_relu b x ~out_features:4096 in
  let x = B.fc b x ~out_features:1000 in
  let _ = B.softmax b x in
  B.finish b

let mlp () =
  let b = B.create "mlp" in
  let x = B.input_shape b (Tensor.vector 784) in
  let x = B.fc_relu b x ~out_features:256 in
  let x = B.fc_relu b x ~out_features:128 in
  let x = B.fc b x ~out_features:10 in
  let _ = B.softmax b x in
  B.finish b

(* A tiny CNN with a residual connection and a concat, exercising every
   scheduling path while staying minutes-fast to simulate. *)
let tiny ?(input_size = 16) () =
  let b = B.create "tiny" in
  let x = B.input b ~channels:3 ~size:input_size in
  let x = B.conv_relu b x ~out_channels:8 ~kernel:3 ~pad:1 in
  let left = B.conv_relu b x ~out_channels:8 ~kernel:3 ~pad:1 in
  let right = B.conv_relu b x ~out_channels:8 ~kernel:1 in
  let x = B.eltwise_add b left right in
  let p = B.max_pool b x ~kernel:2 ~stride:2 in
  let c1 = B.conv_relu b p ~out_channels:16 ~kernel:3 ~pad:1 in
  let c2 = B.conv_relu b p ~out_channels:16 ~kernel:1 in
  let x = B.concat b [ c1; c2 ] in
  let x = B.global_avg_pool b x in
  let x = B.flatten b x in
  let x = B.fc b x ~out_features:10 in
  let _ = B.softmax b x in
  B.finish b

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

type spec = {
  builder : ?input_size:int -> unit -> Graph.t;
  default_input_size : int;
  min_input_size : int;
}

let specs : (string * spec) list =
  [
    ("vgg16", { builder = vgg16; default_input_size = 224; min_input_size = 32 });
    ( "resnet18",
      { builder = resnet18; default_input_size = 224; min_input_size = 33 } );
    ( "squeezenet",
      { builder = squeezenet; default_input_size = 224; min_input_size = 47 } );
    ( "googlenet",
      { builder = googlenet; default_input_size = 224; min_input_size = 47 } );
    ( "inception_v3",
      { builder = inception_v3; default_input_size = 299; min_input_size = 75 }
    );
    ( "mobilenet",
      { builder = mobilenet; default_input_size = 224; min_input_size = 32 } );
    ( "resnet34",
      { builder = resnet34; default_input_size = 224; min_input_size = 33 } );
    ( "vgg19",
      { builder = vgg19; default_input_size = 224; min_input_size = 32 } );
    ( "densenet121",
      { builder = densenet121; default_input_size = 224; min_input_size = 33 }
    );
    ("lenet", { builder = lenet; default_input_size = 28; min_input_size = 12 });
    ( "alexnet",
      { builder = alexnet; default_input_size = 224; min_input_size = 63 } );
    ( "mlp",
      {
        builder = (fun ?input_size:_ () -> mlp ());
        default_input_size = 1;
        min_input_size = 1;
      } );
    ("tiny", { builder = tiny; default_input_size = 16; min_input_size = 4 });
  ]

let names = List.map fst specs

(* The five networks the paper evaluates (Section V-A2). *)
let paper_benchmarks =
  [ "vgg16"; "resnet18"; "squeezenet"; "googlenet"; "inception_v3" ]

let spec name =
  match List.assoc_opt name specs with
  | Some s -> s
  | None ->
      invalid_arg
        (Fmt.str "Zoo.spec: unknown network %S (known: %s)" name
           (String.concat ", " names))

let build ?input_size name =
  let s = spec name in
  (match input_size with
  | Some size when size < s.min_input_size ->
      invalid_arg
        (Fmt.str "Zoo.build: %s requires input_size >= %d (got %d)" name
           s.min_input_size size)
  | _ -> ());
  s.builder ?input_size ()

let default_input_size name = (spec name).default_input_size
let min_input_size name = (spec name).min_input_size

(* Scale a network's default resolution by [factor] (e.g. 4 gives 56 for
   the 224-px networks, 75 for inception_v3), clamped to the minimum. *)
let scaled_input_size ?(factor = 4) name =
  let s = spec name in
  max s.min_input_size (s.default_input_size / factor)
