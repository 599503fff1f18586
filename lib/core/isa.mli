(** The abstract operation stream (Section III-B): per-core static
    sequences of MVM / VEC / MEM (LOAD, STORE) / COMM (SEND, RECV)
    operations with explicit intra-core dependencies and cross-core
    rendezvous tags.

    Execution semantics (realised by [Pimsim.Engine]): an instruction may
    start once its [deps] have retired and its resources are free; MVMs
    on the same AG conflict structurally; MVM issue is rate-limited per
    core to one window per T_interval. *)

type vec_kind =
  | Vadd
  | Vmul
  | Vmax
  | Vact of Nnir.Op.activation_kind
  | Vpool
  | Vsoftmax
  | Vmove

val vact : Nnir.Op.activation_kind -> vec_kind
(** [Vact k] as one static value per kind: [vact k == vact k].  The
    schedulers and both readers ({!Isa_text}, {!Artifact}) build every
    activation through it, so a compiled and a decoded program hold the
    same activation values. *)

val vec_kind_name : vec_kind -> string

type op =
  | Mvm of {
      ag : int;
      windows : int;
      xbars : int;
      input_bytes : int;
      output_bytes : int;
    }
  | Vec of { kind : vec_kind; elements : int }
  | Load of { bytes : int }
  | Store of { bytes : int }
  | Send of { dst : int; bytes : int; tag : int }
  | Recv of { src : int; bytes : int; tag : int }

type instr = { op : op; deps : int list; node_id : Nnir.Node.id }

type memory_report = {
  local_peak_bytes : int array;
      (** Per-core allocator *demand* peak: what the schedule asked of
          the scratchpad before any capacity clamp; can exceed the
          capacity when requests spilled. *)
  local_resident_peak_bytes : int array;
      (** Per-core peak of bytes actually resident after the clamp (or
          after lifetime placement); never exceeds the capacity. *)
  spill_bytes : int;
  global_load_bytes : int;
  global_store_bytes : int;
}

(** The local-memory allocation stream issued while the program was
    scheduled, in emission order.  Replaying it through a fresh
    {!Memalloc} must reproduce [memory] exactly — this is what
    {!Verify} checks. *)
type mem_event =
  | Alloc of { core : int; bytes : int; request : Memalloc.request }
  | Free of { core : int; bytes : int }
  | Free_accumulator of { core : int; key : int }
  | Free_ag_slot of { core : int; key : int }
      (** Staging-slot death; emitted only by lifetime-strategy
          schedules. *)

type t = {
  graph_name : string;
  mode : Mode.t;
  allocator : Memalloc.strategy;
  core_count : int;
  cores : instr array array;
  ag_core : int array;
  ag_xbars : int array;
  num_tags : int;
  pipeline_depth : int;
  memory : memory_report;
  mem_trace : mem_event array;
}

val num_instrs : t -> int
val num_mvms : t -> int
val total_mvm_windows : t -> int

val pp_op : op Fmt.t
val pp_instr : instr Fmt.t
val pp_mem_event : mem_event Fmt.t

(** Static well-formedness checking lives in {!Verify}: structural
    shape, rendezvous soundness and memory-report replay are all
    verified there, by one shared checker. *)
