(* Tensor shapes for the DNN IR.

   All activation tensors use the NCHW layout with an implicit batch of 1,
   so a feature map is [|channels; height; width|] and a flattened vector
   is [|features|].  Shapes are immutable by convention: every function
   here returns fresh arrays. *)

type shape = int array

let scalar : shape = [||]

let vector n : shape = [| n |]

let chw ~channels ~height ~width : shape = [| channels; height; width |]

let rank (s : shape) = Array.length s

let num_elements (s : shape) = Array.fold_left ( * ) 1 s

(* 16-bit fixed point data, as in the paper's evaluation setup. *)
let bytes_per_element = 2

let num_bytes s = num_elements s * bytes_per_element

let equal (a : shape) (b : shape) = a = b

let is_chw s = rank s = 3

let channels s =
  if is_chw s then s.(0)
  else invalid_arg "Tensor.channels: expected a CHW shape"

let height s =
  if is_chw s then s.(1)
  else invalid_arg "Tensor.height: expected a CHW shape"

let width s =
  if is_chw s then s.(2)
  else invalid_arg "Tensor.width: expected a CHW shape"

let features s =
  match s with
  | [| n |] -> n
  | _ -> invalid_arg "Tensor.features: expected a rank-1 shape"

(* Number of elements once the spatial dimensions are flattened away,
   e.g. what a Flatten node feeding a fully connected layer produces. *)
let flattened_features s = num_elements s

(* Row-stream geometry: feature maps stream row by row (height rows of
   channels * width elements); anything else is a single row.  This is
   the piece-stream shape both dataflow schedulers chunk over. *)
let row_geometry s =
  if is_chw s then (s.(1), s.(0) * s.(2) * bytes_per_element)
  else (1, num_elements s * bytes_per_element)

let to_list = Array.to_list

let of_list = Array.of_list

let pp ppf (s : shape) =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "x") int) (Array.to_list s)

let validate s =
  Array.iteri
    (fun i d ->
      if d <= 0 then
        invalid_arg
          (Fmt.str "Tensor.validate: dimension %d of %a is non-positive" i pp s))
    s
