(* Textual serialisation of DNN graphs (".nnt"), the interchange format
   standing in for ONNX in this reproduction (DESIGN.md §1).

   Line-oriented, whitespace-separated:

     graph <name>
     node <id> <name> <kind> <key>=<value>... inputs=<id>,<id>,...

   Example:

     graph tiny
     node 0 input input shape=3x16x16 inputs=
     node 1 conv conv oc=8 k=3x3 s=1x1 p=1,1,1,1 g=1 bias=1 inputs=0
     node 2 relu relu inputs=1

   [to_string] and [of_string] round-trip exactly. *)

exception Parse_error of { line : int; message : string }

let errf line fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* --- printing ----------------------------------------------------------- *)

(* Global pools need a distinct kind keyword since their parameter list is
   empty. *)
let op_kind_keyword : Op.t -> string = function
  | Op.Pool p when p.global -> (
      match p.kind with
      | Op.Max_pool -> "global_maxpool"
      | Op.Avg_pool -> "global_avgpool")
  | op -> Op.kind_name op

(* The format is whitespace-separated, so a name containing whitespace
   would change the token structure and silently mis-parse on the way
   back in.  Reject such names at serialisation time. *)
let check_name what name =
  if name = "" then
    invalid_arg (Fmt.str "Text_format: empty %s name" what);
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then
        invalid_arg
          (Fmt.str
             "Text_format: %s name %S contains whitespace and cannot be \
              serialised to .nnt"
             what name))
    name

(* Every field is written straight into the one buffer: " key=" and
   its value, with no per-line strings or lists. *)
let add_int = Pimutil.Decimal.add_int

let add_key buf key =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_char buf '='

let add_int_field buf key v =
  add_key buf key;
  add_int buf v

let add_pair buf key a b =
  add_int_field buf key a;
  Buffer.add_char buf 'x';
  add_int buf b

let add_flag buf key v =
  add_key buf key;
  Buffer.add_char buf (if v then '1' else '0')

let add_padding buf (p : Op.padding) =
  add_int_field buf "p" p.top;
  Buffer.add_char buf ',';
  add_int buf p.bottom;
  Buffer.add_char buf ',';
  add_int buf p.left;
  Buffer.add_char buf ',';
  add_int buf p.right

let add_shape buf (s : Tensor.shape) =
  add_key buf "shape";
  if Array.length s = 0 then Buffer.add_string buf "scalar"
  else
    Array.iteri
      (fun i d ->
        if i > 0 then Buffer.add_char buf 'x';
        add_int buf d)
      s

let add_op_fields buf : Op.t -> unit = function
  | Op.Input s -> add_shape buf s
  | Op.Conv c ->
      add_int_field buf "oc" c.out_channels;
      add_pair buf "k" c.kernel_h c.kernel_w;
      add_pair buf "s" c.stride_h c.stride_w;
      add_padding buf c.pad;
      add_int_field buf "g" c.groups;
      add_flag buf "bias" c.has_bias
  | Op.Fully_connected f ->
      add_int_field buf "of" f.out_features;
      add_flag buf "bias" f.has_bias
  | Op.Pool p when p.global -> ()
  | Op.Pool p ->
      add_pair buf "k" p.kernel_h p.kernel_w;
      add_pair buf "s" p.stride_h p.stride_w;
      add_padding buf p.pad;
      add_flag buf "ceil" p.ceil_mode
  | Op.Activation _ | Op.Eltwise _ | Op.Concat | Op.Flatten | Op.Softmax
  | Op.Identity ->
      ()

let add_node buf (n : Node.t) =
  check_name "node" (Node.name n);
  Buffer.add_string buf "node ";
  add_int buf (Node.id n);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Node.name n);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (op_kind_keyword (Node.op n));
  add_op_fields buf (Node.op n);
  Buffer.add_string buf " inputs=";
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf id)
    (Node.inputs n);
  Buffer.add_char buf '\n'

let to_string (g : Graph.t) =
  let buf = Buffer.create 4096 in
  check_name "graph" (Graph.name g);
  Buffer.add_string buf "graph ";
  Buffer.add_string buf (Graph.name g);
  Buffer.add_char buf '\n';
  Array.iter (add_node buf) (Graph.nodes g);
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

let parse_int line what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> errf line "invalid integer %S for %s" s what

let parse_pair line what s =
  match String.split_on_char 'x' s with
  | [ a; b ] -> (parse_int line what a, parse_int line what b)
  | _ -> errf line "expected AxB for %s, got %S" what s

let parse_padding line s : Op.padding =
  match String.split_on_char ',' s |> List.map (parse_int line "padding") with
  | [ top; bottom; left; right ] -> { top; bottom; left; right }
  | _ -> errf line "expected t,b,l,r padding, got %S" s

let parse_shape line s : Tensor.shape =
  if s = "scalar" then Tensor.scalar
  else
    String.split_on_char 'x' s
    |> List.map (parse_int line "shape")
    |> Array.of_list

let parse_bool line what s =
  match parse_int line what s with
  | 0 -> false
  | 1 -> true
  | v -> errf line "expected 0/1 for %s, got %d" what v

let split_fields tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> None)
    tokens

let field line fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> errf line "missing field %S" key

let field_opt fields key = List.assoc_opt key fields

let parse_op line kind fields : Op.t =
  let get = field line fields in
  match kind with
  | "input" -> Op.Input (parse_shape line (get "shape"))
  | "conv" ->
      let kernel_h, kernel_w = parse_pair line "kernel" (get "k") in
      let stride_h, stride_w = parse_pair line "stride" (get "s") in
      Op.Conv
        {
          out_channels = parse_int line "oc" (get "oc");
          kernel_h;
          kernel_w;
          stride_h;
          stride_w;
          pad = parse_padding line (get "p");
          groups =
            (match field_opt fields "g" with
            | Some g -> parse_int line "groups" g
            | None -> 1);
          has_bias =
            (match field_opt fields "bias" with
            | Some v -> parse_bool line "bias" v
            | None -> true);
        }
  | "fc" ->
      Op.Fully_connected
        {
          out_features = parse_int line "of" (get "of");
          has_bias =
            (match field_opt fields "bias" with
            | Some v -> parse_bool line "bias" v
            | None -> true);
        }
  | "maxpool" | "avgpool" ->
      let kernel_h, kernel_w = parse_pair line "kernel" (get "k") in
      let stride_h, stride_w = parse_pair line "stride" (get "s") in
      Op.Pool
        {
          kind = (if kind = "maxpool" then Op.Max_pool else Op.Avg_pool);
          kernel_h;
          kernel_w;
          stride_h;
          stride_w;
          pad = parse_padding line (get "p");
          global = false;
          ceil_mode =
            (match field_opt fields "ceil" with
            | Some v -> parse_bool line "ceil" v
            | None -> false);
        }
  | "global_maxpool" -> Op.global_pool ~kind:Op.Max_pool
  | "global_avgpool" -> Op.global_pool ~kind:Op.Avg_pool
  | "relu" -> Op.Activation Op.Relu
  | "sigmoid" -> Op.Activation Op.Sigmoid
  | "tanh" -> Op.Activation Op.Tanh
  | "add" -> Op.Eltwise Op.Add
  | "mul" -> Op.Eltwise Op.Mul
  | "max" -> Op.Eltwise Op.Max
  | "concat" -> Op.Concat
  | "flatten" -> Op.Flatten
  | "softmax" -> Op.Softmax
  | "identity" -> Op.Identity
  | _ -> errf line "unknown operator kind %S" kind

let parse_inputs line s =
  if s = "" then []
  else
    String.split_on_char ',' s |> List.map (parse_int line "input id")

let tokenize line_text =
  String.split_on_char ' ' line_text |> List.filter (fun t -> t <> "")

let of_string text =
  let lines = String.split_on_char '\n' text in
  let graph_name = ref None in
  let rev_nodes = ref [] in
  List.iteri
    (fun i line_text ->
      let line = i + 1 in
      let line_text = String.trim line_text in
      if line_text <> "" && not (String.length line_text > 0 && line_text.[0] = '#')
      then
        match tokenize line_text with
        | [ "graph"; name ] -> (
            match !graph_name with
            | None -> graph_name := Some name
            | Some _ -> errf line "duplicate graph header")
        | "graph" :: _ ->
            errf line
              "malformed graph header: the name must be a single \
               whitespace-free token"
        | "node" :: id :: name :: kind :: rest ->
            (* every remaining token must be a key=value field; a bare
               token means the node name contained whitespace (or a
               field lost its '=') and the line would mis-parse *)
            List.iter
              (fun tok ->
                if not (String.contains tok '=') then
                  errf line
                    "unexpected bare token %S after node %S: node names \
                     and fields must not contain whitespace"
                    tok name)
              rest;
            let fields = split_fields rest in
            let op = parse_op line kind fields in
            let inputs = parse_inputs line (field line fields "inputs") in
            let id = parse_int line "node id" id in
            rev_nodes := Node.make ~id ~name ~op ~inputs :: !rev_nodes
        | tok :: _ -> errf line "unexpected token %S" tok
        | [] -> ())
    lines;
  let name =
    match !graph_name with
    | Some n -> n
    | None -> raise (Parse_error { line = 0; message = "missing graph header" })
  in
  Graph.create ~name (List.rev !rev_nodes)

let to_file path g = Pimutil.Atomic_io.write_text path (to_string g)

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
