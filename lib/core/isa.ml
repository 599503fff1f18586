(* The abstract operation stream (Section III-B): each core receives a
   static sequence of basic operations — MVM (PIM matrix unit), VEC
   (vector functional unit), MEM (global memory access) and COMM
   (inter-core transfer) — with explicit intra-core dependencies and
   SEND/RECV rendezvous tags across cores.

   Execution semantics (realised by Pimsim.Engine): an instruction may
   start once all its [deps] have retired and its resources are free; the
   order within the array is only a naming convention, the dependency
   graph is what executes.  MVMs on the same AG conflict structurally;
   MVM issue on a core is rate-limited to one per T_interval. *)

type vec_kind =
  | Vadd
  | Vmul
  | Vmax
  | Vact of Nnir.Op.activation_kind
  | Vpool
  | Vsoftmax
  | Vmove

(* Each arm is a constant, allocated once: one value per kind, whoever
   builds the activation. *)
let vact : Nnir.Op.activation_kind -> vec_kind = function
  | Relu -> Vact Relu
  | Sigmoid -> Vact Sigmoid
  | Tanh -> Vact Tanh

let vec_kind_name = function
  | Vadd -> "vadd"
  | Vmul -> "vmul"
  | Vmax -> "vmax"
  | Vact Nnir.Op.Relu -> "vrelu"
  | Vact Nnir.Op.Sigmoid -> "vsigmoid"
  | Vact Nnir.Op.Tanh -> "vtanh"
  | Vpool -> "vpool"
  | Vsoftmax -> "vsoftmax"
  | Vmove -> "vmove"

type op =
  | Mvm of {
      ag : int;            (* global AG id: the structural-conflict unit *)
      windows : int;       (* consecutive sliding windows in this burst *)
      xbars : int;         (* crossbars driven per window (energy) *)
      input_bytes : int;   (* local-memory reads per window *)
      output_bytes : int;  (* local-memory writes per window *)
    }
  | Vec of { kind : vec_kind; elements : int }
  | Load of { bytes : int }   (* global memory -> local memory *)
  | Store of { bytes : int }  (* local memory -> global memory *)
  | Send of { dst : int; bytes : int; tag : int }
  | Recv of { src : int; bytes : int; tag : int }

type instr = {
  op : op;
  deps : int list;        (* indices of earlier instructions, same core *)
  node_id : Nnir.Node.id; (* provenance; -1 for bookkeeping *)
}

type memory_report = {
  local_peak_bytes : int array;     (* per core, allocator *demand*:
                                       what the schedule asked of the
                                       scratchpad, before any capacity
                                       clamp — can exceed the capacity *)
  local_resident_peak_bytes : int array;
                                    (* per core, bytes actually resident
                                       after the clamp / placement;
                                       never exceeds the capacity *)
  spill_bytes : int;                (* overflow traffic, both ways *)
  global_load_bytes : int;
  global_store_bytes : int;
}

(* The local-memory allocation stream the schedulers issued while
   emitting the program.  Stamped into the program so that a verifier
   (or any later tool) can replay it through a fresh [Memalloc] and
   recompute the memory report independently of the scheduler that
   produced it. *)
type mem_event =
  | Alloc of { core : int; bytes : int; request : Memalloc.request }
  | Free of { core : int; bytes : int }
  | Free_accumulator of { core : int; key : int }
  | Free_ag_slot of { core : int; key : int }
    (* Emitted only by lifetime-strategy schedules, which track staging
       slot deaths precisely; the Fig. 7 disciplines never release
       slots, and adding the events under them would break bit-identity
       with the retained reference pipelines. *)

type t = {
  graph_name : string;
  mode : Mode.t;
  allocator : Memalloc.strategy;
  core_count : int;
  cores : instr array array;
  ag_core : int array;
  ag_xbars : int array;
  num_tags : int;
  (* Longest chain of weighted layers: in HT mode one inference
     traverses this many pipeline stages, each lasting one steady-state
     interval (the makespan of the compiled stream). *)
  pipeline_depth : int;
  memory : memory_report;
  mem_trace : mem_event array;
}

let num_instrs t =
  Array.fold_left (fun acc c -> acc + Array.length c) 0 t.cores

let num_mvms t =
  Array.fold_left
    (fun acc core ->
      Array.fold_left
        (fun acc i -> match i.op with Mvm _ -> acc + 1 | _ -> acc)
        acc core)
    0 t.cores

let total_mvm_windows t =
  Array.fold_left
    (fun acc core ->
      Array.fold_left
        (fun acc i ->
          match i.op with Mvm { windows; _ } -> acc + windows | _ -> acc)
        acc core)
    0 t.cores

let pp_op ppf = function
  | Mvm m -> Fmt.pf ppf "MVM ag=%d w=%d" m.ag m.windows
  | Vec v -> Fmt.pf ppf "VEC %s n=%d" (vec_kind_name v.kind) v.elements
  | Load l -> Fmt.pf ppf "LOAD %dB" l.bytes
  | Store s -> Fmt.pf ppf "STORE %dB" s.bytes
  | Send s -> Fmt.pf ppf "SEND ->%d %dB tag=%d" s.dst s.bytes s.tag
  | Recv r -> Fmt.pf ppf "RECV <-%d %dB tag=%d" r.src r.bytes r.tag

let pp_instr ppf i =
  Fmt.pf ppf "%a deps=%a node=%d" pp_op i.op
    Fmt.(brackets (list ~sep:comma int))
    i.deps i.node_id

let pp_mem_event ppf = function
  | Alloc { core; bytes; request = Memalloc.Fresh } ->
      Fmt.pf ppf "ALLOC core=%d %dB fresh" core bytes
  | Alloc { core; bytes; request = Memalloc.Accumulator key } ->
      Fmt.pf ppf "ALLOC core=%d %dB acc key=%d" core bytes key
  | Alloc { core; bytes; request = Memalloc.Ag_slot key } ->
      Fmt.pf ppf "ALLOC core=%d %dB ag key=%d" core bytes key
  | Free { core; bytes } -> Fmt.pf ppf "FREE core=%d %dB" core bytes
  | Free_accumulator { core; key } ->
      Fmt.pf ppf "FREEACC core=%d key=%d" core key
  | Free_ag_slot { core; key } ->
      Fmt.pf ppf "FREEAG core=%d key=%d" core key
