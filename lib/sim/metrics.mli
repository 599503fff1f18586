(** Simulation results: timing, energy breakdown, traffic and memory. *)

type energy = {
  mvm_pj : float;
  vec_pj : float;
  local_mem_pj : float;
  global_mem_pj : float;
  noc_pj : float;
  core_static_pj : float;
  router_static_pj : float;
  global_static_pj : float;
  hyper_transport_static_pj : float;
}

val dynamic_pj : energy -> float
val static_pj : energy -> float
val total_pj : energy -> float

val per_inference :
  pipeline_depth:int -> instances:int -> float -> float * float
(** [(throughput_ips, latency_ns)] of [instances] pipelined inferences
    in [makespan_ns] (the HT model): [instances x 1e9 / makespan_ns] (0
    if the makespan is) and [max 1 pipeline_depth x makespan_ns / instances]. *)

type t = {
  graph_name : string;
  mode : Pimcomp.Mode.t;
  makespan_ns : float;
  throughput_ips : float;  (** {!per_inference} over the covered instances *)
  latency_ns : float;  (** {!per_inference} over the covered instances *)
  energy : energy;
  instrs_executed : int;
  instrs_total : int;
  mvm_windows : int;
  messages : int;
  flit_hops : int;
  global_load_bytes : int;
  global_store_bytes : int;
  core_busy_ns : float array;
  local_peak_bytes : int array;  (** per-core demand high-water mark *)
  local_resident_peak_bytes : int array;
      (** per-core bytes actually held on chip at the worst moment *)
  deadlocked : bool;
  simulated_instances : int;
      (** inference instances simulated event by event *)
  extrapolated_instances : int;
      (** instances closed analytically by the streaming period detector;
          [simulated_instances + extrapolated_instances] is the number of
          instances the metrics cover (1 + 0 for a plain single run) *)
}

val pp : t Fmt.t
