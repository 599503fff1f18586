(* Derived timing model shared by the compiler's fitness estimators and
   the cycle-accurate simulator, so both reason about the same clock.

   The paper's execution model (Section III-B): MVMs without structural
   conflicts or data dependencies issue at interval [T_interval], set by
   the per-core on-chip bandwidth.  The user-facing "parallelism degree"
   P is the number of AGs allowed to compute simultaneously, hence
   [T_interval = T_MVM / P]. *)

type t = {
  config : Config.t;
  parallelism : int;
  t_mvm_ns : float;
  t_interval_ns : float;
}

let default_parallelism = 20
(* The paper's energy-evaluation setting; the single source of truth
   for every parallelism default in the compiler, simulator and CLI. *)

let create ?(parallelism = default_parallelism) (config : Config.t) =
  if parallelism <= 0 then invalid_arg "Timing.create: parallelism <= 0";
  {
    config;
    parallelism;
    t_mvm_ns = config.t_mvm_ns;
    t_interval_ns = config.t_mvm_ns /. float_of_int parallelism;
  }

let parallelism t = t.parallelism

(* f(n) from Section IV-C2: duration of one operation cycle when n AGs
   share a core's issue bandwidth. *)
let operation_cycle_ns t ~ags_in_core =
  if ags_in_core <= 0 then 0.0
  else Float.max (float_of_int ags_in_core *. t.t_interval_ns) t.t_mvm_ns

(* Vector-unit latency for an element-wise workload. *)
let vec_ns t ~elements =
  if elements <= 0 then 0.0
  else
    let lanes = t.config.vfus_per_core * t.config.vfu_lanes in
    let cycles = (elements + lanes - 1) / lanes in
    float_of_int cycles *. t.config.t_core_cycle_ns

(* NoC message latency: head-flit routing plus serialisation. *)
let noc_ns t ~hops ~bytes =
  (float_of_int hops *. t.config.t_hop_ns)
  +. (float_of_int (Config.flits t.config ~bytes) *. t.config.t_core_cycle_ns)
