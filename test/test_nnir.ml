(* Tests for the DNN IR substrate: shapes, shape inference, graph
   validation, the model zoo (against published parameter counts), the
   textual format round-trip and workload statistics. *)

let check_shape msg expected actual =
  Alcotest.(check (list int)) msg expected (Nnir.Tensor.to_list actual)

(* --- tensor -------------------------------------------------------------- *)

let test_tensor_basics () =
  let s = Nnir.Tensor.chw ~channels:3 ~height:4 ~width:5 in
  Alcotest.(check int) "elements" 60 (Nnir.Tensor.num_elements s);
  Alcotest.(check int) "bytes" 120 (Nnir.Tensor.num_bytes s);
  Alcotest.(check int) "channels" 3 (Nnir.Tensor.channels s);
  Alcotest.(check int) "height" 4 (Nnir.Tensor.height s);
  Alcotest.(check int) "width" 5 (Nnir.Tensor.width s);
  Alcotest.(check int) "vector" 7 (Nnir.Tensor.features (Nnir.Tensor.vector 7));
  Alcotest.(check bool) "equal" true
    (Nnir.Tensor.equal s (Nnir.Tensor.of_list [ 3; 4; 5 ]))

let test_tensor_validate () =
  Alcotest.check_raises "non-positive dim"
    (Invalid_argument "Tensor.validate: dimension 1 of [3x0x5] is non-positive")
    (fun () -> Nnir.Tensor.validate [| 3; 0; 5 |])

(* --- shape inference ------------------------------------------------------ *)

let infer op shapes = Nnir.Shape_infer.infer op shapes

let test_conv_shapes () =
  let input = Nnir.Tensor.chw ~channels:3 ~height:224 ~width:224 in
  check_shape "vgg conv3x3 pad1" [ 64; 224; 224 ]
    (infer (Nnir.Op.conv ~pad:1 ~out_channels:64 ~kernel:3 ()) [ input ]);
  check_shape "7x7 s2 p3" [ 64; 112; 112 ]
    (infer (Nnir.Op.conv ~stride:2 ~pad:3 ~out_channels:64 ~kernel:7 ())
       [ input ]);
  check_shape "1x1" [ 16; 224; 224 ]
    (infer (Nnir.Op.conv ~out_channels:16 ~kernel:1 ()) [ input ]);
  (* rectangular inception-v3 kernel *)
  check_shape "1x7 pad(0,3)" [ 192; 17; 17 ]
    (infer
       (Nnir.Op.conv_rect
          ~pad:{ top = 0; bottom = 0; left = 3; right = 3 }
          ~out_channels:192 ~kernel_h:1 ~kernel_w:7 ())
       [ Nnir.Tensor.chw ~channels:768 ~height:17 ~width:17 ])

let test_pool_shapes () =
  let input = Nnir.Tensor.chw ~channels:64 ~height:56 ~width:56 in
  check_shape "floor pool" [ 64; 27; 27 ]
    (infer (Nnir.Op.pool ~stride:2 ~kind:Nnir.Op.Max_pool ~kernel:3 ())
       [ input ]);
  check_shape "ceil pool" [ 64; 28; 28 ]
    (infer
       (Nnir.Op.pool ~stride:2 ~ceil_mode:true ~kind:Nnir.Op.Max_pool
          ~kernel:3 ())
       [ input ]);
  check_shape "global pool" [ 64; 1; 1 ]
    (infer (Nnir.Op.global_pool ~kind:Nnir.Op.Avg_pool) [ input ])

let test_concat_eltwise () =
  let a = Nnir.Tensor.chw ~channels:64 ~height:28 ~width:28 in
  let b = Nnir.Tensor.chw ~channels:32 ~height:28 ~width:28 in
  check_shape "concat" [ 96; 28; 28 ] (infer Nnir.Op.Concat [ a; b ]);
  check_shape "eltwise" [ 64; 28; 28 ]
    (infer (Nnir.Op.Eltwise Nnir.Op.Add) [ a; a ]);
  Alcotest.check_raises "eltwise mismatch"
    (Nnir.Shape_infer.Shape_error
       "eltwise input 1 has shape [32x28x28], expected [64x28x28]") (fun () ->
      ignore (infer (Nnir.Op.Eltwise Nnir.Op.Add) [ a; b ]));
  (match infer Nnir.Op.Concat [ a; Nnir.Tensor.chw ~channels:1 ~height:9 ~width:9 ] with
  | exception Nnir.Shape_infer.Shape_error _ -> ()
  | _ -> Alcotest.fail "concat spatial mismatch accepted")

let test_fc_flatten () =
  let input = Nnir.Tensor.chw ~channels:512 ~height:7 ~width:7 in
  check_shape "flatten" [ 25088 ] (infer Nnir.Op.Flatten [ input ]);
  check_shape "fc" [ 4096 ]
    (infer (Nnir.Op.fully_connected ~out_features:4096 ()) [ input ])

(* --- graph validation ----------------------------------------------------- *)

let test_graph_cycle () =
  let nodes =
    [
      Nnir.Node.make ~id:0 ~name:"a" ~op:(Nnir.Op.Activation Nnir.Op.Relu)
        ~inputs:[ 1 ];
      Nnir.Node.make ~id:1 ~name:"b" ~op:(Nnir.Op.Activation Nnir.Op.Relu)
        ~inputs:[ 0 ];
    ]
  in
  match Nnir.Graph.create ~name:"cyclic" nodes with
  | exception Nnir.Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "cycle accepted"

let test_graph_bad_ids () =
  let nodes =
    [ Nnir.Node.make ~id:5 ~name:"x" ~op:(Nnir.Op.Input [| 1 |]) ~inputs:[] ]
  in
  match Nnir.Graph.create ~name:"bad" nodes with
  | exception Nnir.Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "bad ids accepted"

let test_graph_arity () =
  let nodes =
    [
      Nnir.Node.make ~id:0 ~name:"in" ~op:(Nnir.Op.Input [| 4 |]) ~inputs:[];
      Nnir.Node.make ~id:1 ~name:"add" ~op:(Nnir.Op.Eltwise Nnir.Op.Add)
        ~inputs:[ 0 ];
    ]
  in
  match Nnir.Graph.create ~name:"bad-arity" nodes with
  | exception Nnir.Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "bad arity accepted"

let test_weighted_ancestors () =
  let g = Nnir.Zoo.tiny () in
  (* the eltwise add merges two convs; its weighted ancestors are both *)
  let add_id =
    Array.to_list (Nnir.Graph.nodes g)
    |> List.find (fun n -> Nnir.Node.op n = Nnir.Op.Eltwise Nnir.Op.Add)
    |> Nnir.Node.id
  in
  Alcotest.(check int) "two conv ancestors" 2
    (List.length (Nnir.Graph.weighted_ancestors g add_id))

(* --- zoo ------------------------------------------------------------------ *)

let total_weights g = (Nnir.Stats.of_graph g).Nnir.Stats.total_weights

let close_to ~tolerance expected actual =
  let e = float_of_int expected and a = float_of_int actual in
  abs_float (e -. a) /. e < tolerance

let check_weights name expected g =
  let actual = total_weights g in
  if not (close_to ~tolerance:0.03 expected actual) then
    Alcotest.failf "%s: expected ~%d weights, got %d" name expected actual

let test_zoo_vgg16 () =
  let g = Nnir.Zoo.vgg16 () in
  (* published: 138.36 M parameters *)
  check_weights "vgg16" 138_360_000 g;
  let conv1 = Nnir.Graph.node g 1 in
  check_shape "conv1" [ 64; 224; 224 ] (Nnir.Node.output_shape conv1)

let test_zoo_resnet18 () =
  (* published: 11.69 M parameters *)
  check_weights "resnet18" 11_690_000 (Nnir.Zoo.resnet18 ());
  let g = Nnir.Zoo.resnet18 () in
  let out = Nnir.Graph.outputs g in
  Alcotest.(check int) "single output" 1 (List.length out);
  check_shape "logits" [ 1000 ]
    (Nnir.Node.output_shape (Nnir.Graph.node g (List.hd out)))

let test_zoo_squeezenet () =
  (* published: 1.25 M parameters *)
  check_weights "squeezenet" 1_248_000 (Nnir.Zoo.squeezenet ())

let test_zoo_googlenet () =
  (* ~7.0 M parameters with the original 5x5 inception branch, no aux
     classifiers *)
  check_weights "googlenet" 7_000_000 (Nnir.Zoo.googlenet ())

let test_zoo_inception_v3 () =
  (* published: 23.8 M parameters (no aux head) *)
  check_weights "inception_v3" 23_800_000 (Nnir.Zoo.inception_v3 ())

let test_zoo_mobilenet () =
  (* published: 4.2 M parameters *)
  check_weights "mobilenet" 4_230_000 (Nnir.Zoo.mobilenet ());
  (* depthwise layers must carry groups = C_in *)
  let g = Nnir.Zoo.mobilenet ~input_size:32 () in
  let depthwise =
    Array.to_list (Nnir.Graph.nodes g)
    |> List.filter (fun n ->
           match Nnir.Node.op n with
           | Nnir.Op.Conv c -> c.groups > 1
           | _ -> false)
  in
  Alcotest.(check int) "13 depthwise convs" 13 (List.length depthwise)

let test_grouped_conv_shapes () =
  let input = Nnir.Tensor.chw ~channels:32 ~height:28 ~width:28 in
  check_shape "depthwise 3x3" [ 32; 28; 28 ]
    (infer (Nnir.Op.conv ~pad:1 ~groups:32 ~out_channels:32 ~kernel:3 ())
       [ input ]);
  (match
     infer (Nnir.Op.conv ~groups:5 ~out_channels:32 ~kernel:1 ()) [ input ]
   with
  | exception Nnir.Shape_infer.Shape_error _ -> ()
  | _ -> Alcotest.fail "indivisible groups accepted")

let test_zoo_extended_models () =
  (* published parameter counts *)
  check_weights "resnet34" 21_800_000 (Nnir.Zoo.resnet34 ());
  check_weights "vgg19" 143_670_000 (Nnir.Zoo.vgg19 ());
  (* densenet121 has 7.98M incl. batch-norm; ~7.9M without *)
  check_weights "densenet121" 7_910_000 (Nnir.Zoo.densenet121 ());
  let g = Nnir.Zoo.densenet121 ~input_size:33 () in
  let concats =
    Array.to_list (Nnir.Graph.nodes g)
    |> List.filter (fun n -> Nnir.Node.op n = Nnir.Op.Concat)
  in
  Alcotest.(check int) "58 dense concatenations" 58 (List.length concats)

let test_simplify_identity () =
  let b = Nnir.Builder.create "s" in
  let x = Nnir.Builder.input b ~channels:3 ~size:8 in
  let x = Nnir.Builder.identity b x in
  let x = Nnir.Builder.conv b x ~out_channels:4 ~kernel:3 ~pad:1 in
  let x = Nnir.Builder.identity b x in
  let x = Nnir.Builder.identity b x in
  let _ = Nnir.Builder.relu b x in
  let g = Nnir.Builder.finish b in
  let r = Nnir.Simplify.run g in
  Alcotest.(check int) "3 identities removed" 3 r.Nnir.Simplify.removed;
  Alcotest.(check int) "3 nodes remain" 3
    (Nnir.Graph.num_nodes r.Nnir.Simplify.graph);
  (* output shape preserved *)
  let out_shape graph =
    Nnir.Node.output_shape
      (Nnir.Graph.node graph (List.hd (Nnir.Graph.outputs graph)))
  in
  Alcotest.(check (list int)) "shape preserved"
    (Nnir.Tensor.to_list (out_shape g))
    (Nnir.Tensor.to_list (out_shape r.Nnir.Simplify.graph))

let test_simplify_flatten_fc () =
  let b = Nnir.Builder.create "s" in
  let x = Nnir.Builder.input b ~channels:4 ~size:4 in
  let x = Nnir.Builder.flatten b x in
  let x = Nnir.Builder.flatten b x in
  let _ = Nnir.Builder.fc b x ~out_features:10 in
  let g = Nnir.Builder.finish b in
  let r = Nnir.Simplify.run g in
  Alcotest.(check int) "both flattens removed" 2 r.Nnir.Simplify.removed;
  (* FC's shape unchanged *)
  let out = List.hd (Nnir.Graph.outputs r.Nnir.Simplify.graph) in
  Alcotest.(check (list int)) "fc output" [ 10 ]
    (Nnir.Tensor.to_list
       (Nnir.Node.output_shape (Nnir.Graph.node r.Nnir.Simplify.graph out)))

let test_simplify_keeps_needed_flatten () =
  (* a flatten feeding softmax (not FC) must survive *)
  let b = Nnir.Builder.create "s" in
  let x = Nnir.Builder.input b ~channels:4 ~size:4 in
  let x = Nnir.Builder.flatten b x in
  let _ = Nnir.Builder.softmax b x in
  let g = Nnir.Builder.finish b in
  let r = Nnir.Simplify.run g in
  Alcotest.(check int) "nothing removed" 0 r.Nnir.Simplify.removed

let simplify_preserves_zoo_shapes =
  QCheck.Test.make ~name:"simplify preserves zoo output shapes" ~count:12
    (QCheck.make
       (QCheck.Gen.oneofl
          [ "tiny"; "lenet"; "mlp"; "squeezenet"; "resnet18"; "mobilenet" ]))
    (fun name ->
      let g = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
      let r = Nnir.Simplify.run g in
      let shape graph =
        List.map
          (fun id -> Nnir.Node.output_shape (Nnir.Graph.node graph id))
          (Nnir.Graph.outputs graph)
      in
      shape g = shape r.Nnir.Simplify.graph)

let test_zoo_min_sizes () =
  List.iter
    (fun name ->
      let size = Nnir.Zoo.min_input_size name in
      let g = Nnir.Zoo.build ~input_size:size name in
      Alcotest.(check bool)
        (name ^ " builds at min size") true
        (Nnir.Graph.num_nodes g > 0))
    Nnir.Zoo.names

let test_zoo_rejects_small () =
  match Nnir.Zoo.build ~input_size:8 "vgg16" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "vgg16 at 8 px accepted"

let test_zoo_scaled_size () =
  Alcotest.(check int) "vgg16/4" 56 (Nnir.Zoo.scaled_input_size "vgg16");
  Alcotest.(check int) "iv3/4" 75 (Nnir.Zoo.scaled_input_size "inception_v3")

(* --- text format ---------------------------------------------------------- *)

let test_roundtrip_zoo () =
  List.iter
    (fun name ->
      let size = Nnir.Zoo.min_input_size name in
      let g = Nnir.Zoo.build ~input_size:size name in
      let text = Nnir.Text_format.to_string g in
      let g' = Nnir.Text_format.of_string text in
      Alcotest.(check string)
        (name ^ " round-trips") text
        (Nnir.Text_format.to_string g');
      Alcotest.(check int)
        (name ^ " node count") (Nnir.Graph.num_nodes g)
        (Nnir.Graph.num_nodes g'))
    Nnir.Zoo.names

(* The .nnt printer before it wrote into one buffer, kept as the oracle
   for the byte-identity of the current one: each line is built from
   [Fmt.str], [String.concat] and list appends. *)
module Oracle = struct
  let padding_to_string (p : Nnir.Op.padding) =
    Fmt.str "%d,%d,%d,%d" p.top p.bottom p.left p.right

  let shape_to_string (s : Nnir.Tensor.shape) =
    if Array.length s = 0 then "scalar"
    else String.concat "x" (List.map string_of_int (Array.to_list s))

  let op_fields : Nnir.Op.t -> string list = function
    | Nnir.Op.Input s -> [ "shape=" ^ shape_to_string s ]
    | Nnir.Op.Conv c ->
        [
          Fmt.str "oc=%d" c.out_channels;
          Fmt.str "k=%dx%d" c.kernel_h c.kernel_w;
          Fmt.str "s=%dx%d" c.stride_h c.stride_w;
          "p=" ^ padding_to_string c.pad;
          Fmt.str "g=%d" c.groups;
          Fmt.str "bias=%d" (if c.has_bias then 1 else 0);
        ]
    | Nnir.Op.Fully_connected f ->
        [
          Fmt.str "of=%d" f.out_features;
          Fmt.str "bias=%d" (if f.has_bias then 1 else 0);
        ]
    | Nnir.Op.Pool p when p.global -> []
    | Nnir.Op.Pool p ->
        [
          Fmt.str "k=%dx%d" p.kernel_h p.kernel_w;
          Fmt.str "s=%dx%d" p.stride_h p.stride_w;
          "p=" ^ padding_to_string p.pad;
          Fmt.str "ceil=%d" (if p.ceil_mode then 1 else 0);
        ]
    | _ -> []

  let op_kind_keyword : Nnir.Op.t -> string = function
    | Nnir.Op.Pool p when p.global -> (
        match p.kind with
        | Nnir.Op.Max_pool -> "global_maxpool"
        | Nnir.Op.Avg_pool -> "global_avgpool")
    | op -> Nnir.Op.kind_name op

  let node_to_line (n : Nnir.Node.t) =
    let inputs =
      String.concat "," (List.map string_of_int (Nnir.Node.inputs n))
    in
    String.concat " "
      ([
         "node";
         string_of_int (Nnir.Node.id n);
         Nnir.Node.name n;
         op_kind_keyword (Nnir.Node.op n);
       ]
      @ op_fields (Nnir.Node.op n)
      @ [ "inputs=" ^ inputs ])

  let to_string (g : Nnir.Graph.t) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf ("graph " ^ Nnir.Graph.name g ^ "\n");
    Array.iter
      (fun n ->
        Buffer.add_string buf (node_to_line n);
        Buffer.add_char buf '\n')
      (Nnir.Graph.nodes g);
    Buffer.contents buf
end

let test_printer_matches_oracle_zoo () =
  List.iter
    (fun name ->
      List.iter
        (fun input_size ->
          let g = Nnir.Zoo.build ~input_size name in
          Alcotest.(check string)
            (Fmt.str "%s at %d px" name input_size)
            (Oracle.to_string g)
            (Nnir.Text_format.to_string g))
        [ Nnir.Zoo.min_input_size name; Nnir.Zoo.default_input_size name ])
    Nnir.Zoo.names

(* Random graphs over every operator kind and field: each step appends
   one node fed by earlier ones and is kept only if the graph still
   validates, so every case prints. *)
let random_graph_printer =
  let gen =
    QCheck.Gen.(
      pair (int_bound 2)
        (list_size (int_range 1 24)
           (quad (int_bound 13) (int_range 1 3) (int_bound 2) bool)))
  in
  QCheck.Test.make ~name:"printer matches the oracle on random graphs"
    ~count:300 (QCheck.make gen) (fun (input, steps) ->
      let shape =
        match input with
        | 0 -> Nnir.Tensor.chw ~channels:4 ~height:24 ~width:20
        | 1 -> [| 12 |]
        | _ -> Nnir.Tensor.scalar
      in
      let input_node =
        Nnir.Node.make ~id:0 ~name:"in" ~op:(Nnir.Op.Input shape) ~inputs:[]
      in
      let graph nodes = Nnir.Graph.create ~name:"random" (List.rev nodes) in
      let nodes =
        List.fold_left
          (fun nodes (k, a, p, flag) ->
            let id = List.length nodes in
            let last = id - 1 and other = (id - 1) * a / 4 in
            let pad =
              { Nnir.Op.top = p; bottom = a - 1; left = 1; right = p }
            in
            let pool kind =
              Nnir.Op.Pool
                {
                  kind;
                  kernel_h = a + 1;
                  kernel_w = 2;
                  stride_h = a;
                  stride_w = 1 + p;
                  pad = { pad with bottom = 0; left = 0 };
                  global = false;
                  ceil_mode = flag;
                }
            in
            let op, inputs =
              match k with
              | 0 ->
                  ( Nnir.Op.Conv
                      {
                        out_channels = 2 * a;
                        kernel_h = a;
                        kernel_w = 4 - a;
                        stride_h = 1 + p;
                        stride_w = a;
                        pad;
                        groups = (if flag then 2 else 1);
                        has_bias = flag;
                      },
                    [ last ] )
              | 1 ->
                  ( Nnir.Op.Fully_connected
                      { out_features = 5 * a; has_bias = flag },
                    [ last ] )
              | 2 -> (pool Nnir.Op.Max_pool, [ last ])
              | 3 -> (pool Nnir.Op.Avg_pool, [ last ])
              | 4 ->
                  ( Nnir.Op.global_pool
                      ~kind:
                        (if flag then Nnir.Op.Max_pool else Nnir.Op.Avg_pool),
                    [ last ] )
              | 5 -> (Nnir.Op.Activation Nnir.Op.Relu, [ last ])
              | 6 -> (Nnir.Op.Activation Nnir.Op.Sigmoid, [ last ])
              | 7 -> (Nnir.Op.Activation Nnir.Op.Tanh, [ last ])
              | 8 ->
                  ( Nnir.Op.Eltwise
                      (match p with
                      | 0 -> Nnir.Op.Add
                      | 1 -> Nnir.Op.Mul
                      | _ -> Nnir.Op.Max),
                    [ last; other ] )
              | 9 -> (Nnir.Op.Concat, [ other; last ])
              | 10 -> (Nnir.Op.Flatten, [ last ])
              | 11 -> (Nnir.Op.Softmax, [ last ])
              | _ -> (Nnir.Op.Identity, [ last ])
            in
            let node =
              Nnir.Node.make ~id
                ~name:(Fmt.str "n%d_%s" id (Nnir.Op.kind_name op))
                ~op ~inputs
            in
            match graph (node :: nodes) with
            | _ -> node :: nodes
            | exception
                ( Nnir.Shape_infer.Shape_error _ | Nnir.Graph.Invalid_graph _
                | Invalid_argument _ ) ->
                nodes)
          [ input_node ] steps
      in
      let g = graph nodes in
      Nnir.Text_format.to_string g = Oracle.to_string g)

let test_parse_errors () =
  (match Nnir.Text_format.of_string "node 0 x conv inputs=" with
  | exception Nnir.Text_format.Parse_error _ -> ()
  | _ -> Alcotest.fail "missing header accepted");
  (match Nnir.Text_format.of_string "graph g\nnode 0 x frobnicate inputs=" with
  | exception Nnir.Text_format.Parse_error { line = 2; _ } -> ()
  | _ -> Alcotest.fail "unknown op accepted");
  match Nnir.Text_format.of_string "graph g\nnode 0 x conv oc=zz inputs=" with
  | exception Nnir.Text_format.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad int accepted"

let test_whitespace_names () =
  (* the format is whitespace-separated, so a name containing whitespace
     would change the token structure: serialisation must refuse it
     rather than emit a line that mis-parses on the way back in *)
  let graph_with_node_name name =
    Nnir.Graph.create ~name:"g"
      [ Nnir.Node.make ~id:0 ~name ~op:(Nnir.Op.Input [| 4 |]) ~inputs:[] ]
  in
  (match Nnir.Text_format.to_string (graph_with_node_name "my node") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "node name with space serialised");
  (match Nnir.Text_format.to_string (graph_with_node_name "") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty node name serialised");
  (match
     Nnir.Text_format.to_string
       (Nnir.Graph.create ~name:"my graph"
          [
            Nnir.Node.make ~id:0 ~name:"in" ~op:(Nnir.Op.Input [| 4 |])
              ~inputs:[];
          ])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "graph name with space serialised");
  (* the parser side: a stray bare token (what a whitespace name would
     produce) is a clear Parse_error, not a silent mis-parse *)
  (match
     Nnir.Text_format.of_string "graph g\nnode 0 my node input shape=4 inputs="
   with
  | exception Nnir.Text_format.Parse_error { line = 2; _ } -> ()
  | _ -> Alcotest.fail "bare token accepted");
  match Nnir.Text_format.of_string "graph my g" with
  | exception Nnir.Text_format.Parse_error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "multi-token graph header accepted"

(* --- stats ---------------------------------------------------------------- *)

let test_lenet_stats () =
  let g = Nnir.Zoo.lenet () in
  let s = Nnir.Stats.of_graph g in
  Alcotest.(check int) "lenet MACs" 416_520 s.Nnir.Stats.total_macs;
  Alcotest.(check int) "lenet weights" 61_706 s.Nnir.Stats.total_weights

let test_stats_macs_scale () =
  (* MACs scale with the square of the input resolution for conv nets *)
  let m size =
    (Nnir.Stats.of_graph (Nnir.Zoo.vgg16 ~input_size:size ())).Nnir.Stats
      .total_macs
  in
  let m224 = m 224 and m112 = m 112 in
  (* conv part dominates; ratio should be close to 4 *)
  let conv_ratio = float_of_int m224 /. float_of_int m112 in
  if conv_ratio < 3.0 || conv_ratio > 4.5 then
    Alcotest.failf "unexpected MAC scaling %.2f" conv_ratio

(* --- qcheck properties ---------------------------------------------------- *)

let conv_extent_property =
  QCheck.Test.make ~name:"conv output extent within bounds" ~count:500
    QCheck.(
      quad (int_range 1 64) (int_range 1 7) (int_range 1 4) (int_range 0 3))
    (fun (input, kernel, stride, pad) ->
      QCheck.assume (kernel <= input + (2 * pad));
      let out =
        Nnir.Shape_infer.conv_extent ~in_extent:input ~kernel ~stride
          ~pad_lo:pad ~pad_hi:pad
      in
      out >= 1 && out <= input + (2 * pad))

let pool_ceil_ge_floor =
  QCheck.Test.make ~name:"ceil pooling never smaller than floor" ~count:500
    QCheck.(
      quad (int_range 1 64) (int_range 1 7) (int_range 1 4) (int_range 0 3))
    (fun (input, kernel, stride, pad) ->
      QCheck.assume (kernel <= input + (2 * pad));
      let f ceil_mode =
        Nnir.Shape_infer.pool_extent ~ceil_mode ~in_extent:input ~kernel
          ~stride ~pad_lo:pad ~pad_hi:pad
      in
      f true >= f false)

let random_chain_roundtrip =
  (* build a random conv/pool/relu chain and round-trip it through the
     textual format *)
  let gen = QCheck.Gen.(list_size (int_range 1 12) (int_range 0 5)) in
  QCheck.Test.make ~name:"random chain text round-trip" ~count:200
    (QCheck.make gen) (fun choices ->
      let b = Nnir.Builder.create "chain" in
      let x = ref (Nnir.Builder.input b ~channels:3 ~size:64) in
      List.iter
        (fun c ->
          match c with
          | 0 -> x := Nnir.Builder.conv b !x ~out_channels:8 ~kernel:3 ~pad:1
          | 1 -> x := Nnir.Builder.relu b !x
          | 2 -> x := Nnir.Builder.conv b !x ~out_channels:4 ~kernel:1
          | 3 -> x := Nnir.Builder.identity b !x
          | 4 ->
              x :=
                Nnir.Builder.conv_rect b !x ~out_channels:6 ~kernel_h:1
                  ~kernel_w:3
                  ~pad:{ top = 0; bottom = 0; left = 1; right = 1 }
          | _ -> x := Nnir.Builder.softmax b !x)
        choices;
      let g = Nnir.Builder.finish b in
      let text = Nnir.Text_format.to_string g in
      Nnir.Text_format.to_string (Nnir.Text_format.of_string text) = text)

let () =
  Alcotest.run "nnir"
    [
      ( "tensor",
        [
          Alcotest.test_case "basics" `Quick test_tensor_basics;
          Alcotest.test_case "validate" `Quick test_tensor_validate;
        ] );
      ( "shape-infer",
        [
          Alcotest.test_case "conv" `Quick test_conv_shapes;
          Alcotest.test_case "pool" `Quick test_pool_shapes;
          Alcotest.test_case "concat/eltwise" `Quick test_concat_eltwise;
          Alcotest.test_case "fc/flatten" `Quick test_fc_flatten;
        ] );
      ( "graph",
        [
          Alcotest.test_case "cycle rejected" `Quick test_graph_cycle;
          Alcotest.test_case "bad ids rejected" `Quick test_graph_bad_ids;
          Alcotest.test_case "bad arity rejected" `Quick test_graph_arity;
          Alcotest.test_case "weighted ancestors" `Quick
            test_weighted_ancestors;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "vgg16 params" `Quick test_zoo_vgg16;
          Alcotest.test_case "resnet18 params" `Quick test_zoo_resnet18;
          Alcotest.test_case "squeezenet params" `Quick test_zoo_squeezenet;
          Alcotest.test_case "googlenet params" `Quick test_zoo_googlenet;
          Alcotest.test_case "inception_v3 params" `Quick
            test_zoo_inception_v3;
          Alcotest.test_case "mobilenet params" `Quick test_zoo_mobilenet;
          Alcotest.test_case "extended models" `Quick test_zoo_extended_models;
          Alcotest.test_case "grouped conv shapes" `Quick
            test_grouped_conv_shapes;
          Alcotest.test_case "min sizes build" `Quick test_zoo_min_sizes;
          Alcotest.test_case "too-small rejected" `Quick test_zoo_rejects_small;
          Alcotest.test_case "scaled sizes" `Quick test_zoo_scaled_size;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "identity removal" `Quick test_simplify_identity;
          Alcotest.test_case "flatten/fc removal" `Quick
            test_simplify_flatten_fc;
          Alcotest.test_case "needed flatten kept" `Quick
            test_simplify_keeps_needed_flatten;
          QCheck_alcotest.to_alcotest simplify_preserves_zoo_shapes;
        ] );
      ( "text-format",
        [
          Alcotest.test_case "zoo round-trip" `Quick test_roundtrip_zoo;
          Alcotest.test_case "printer matches the oracle on the zoo" `Quick
            test_printer_matches_oracle_zoo;
          QCheck_alcotest.to_alcotest random_graph_printer;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "whitespace names" `Quick test_whitespace_names;
        ] );
      ( "stats",
        [
          Alcotest.test_case "lenet" `Quick test_lenet_stats;
          Alcotest.test_case "mac scaling" `Quick test_stats_macs_scale;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ conv_extent_property; pool_ceil_ge_floor; random_chain_roundtrip ]
      );
    ]
