(** Execution traces: per-instruction (start, finish) windows collected
    during simulation, with per-core class profiles and CSV export. *)

type event = {
  core : int;
  index : int;
  node_id : Nnir.Node.id;
  op : Pimcomp.Isa.op;
  start_ns : float;
  finish_ns : float;
}

type t

val run :
  ?parallelism:int -> Pimhw.Config.t -> Pimcomp.Isa.t -> Metrics.t * t
(** Simulate and collect the full event trace (sorted by start time). *)

val events : t -> event array
val length : t -> int

type core_profile = {
  profile_core : int;
  mvm_ns : float;
  vec_ns : float;
  mem_ns : float;
  comm_ns : float;
}

val profile : t -> core_profile list
(** Busy nanoseconds per core by instruction class. *)

val to_csv : t -> string

val to_svg : t -> string
(** Self-contained Gantt chart, 1200 pixels wide: one lane per core,
    rectangles coloured by instruction class. *)
