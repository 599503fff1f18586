(* Simulation results: timing, energy breakdown, traffic and memory. *)

type energy = {
  (* dynamic, picojoules *)
  mvm_pj : float;
  vec_pj : float;
  local_mem_pj : float;
  global_mem_pj : float;
  noc_pj : float;
  (* static (leakage x active time), picojoules *)
  core_static_pj : float;
  router_static_pj : float;
  global_static_pj : float;
  hyper_transport_static_pj : float;
}

let dynamic_pj e =
  e.mvm_pj +. e.vec_pj +. e.local_mem_pj +. e.global_mem_pj +. e.noc_pj

let static_pj e =
  e.core_static_pj +. e.router_static_pj +. e.global_static_pj
  +. e.hyper_transport_static_pj

let total_pj e = dynamic_pj e +. static_pj e

let per_inference ~pipeline_depth ~instances makespan_ns =
  let n = float_of_int instances in
  ( (if makespan_ns > 0.0 then n *. 1e9 /. makespan_ns else 0.0),
    float_of_int (max 1 pipeline_depth) *. makespan_ns /. n )

type t = {
  graph_name : string;
  mode : Pimcomp.Mode.t;
  makespan_ns : float;
  throughput_ips : float;       (* inferences/second, [per_inference] *)
  latency_ns : float;           (* per inference, [per_inference] *)
  energy : energy;
  instrs_executed : int;
  instrs_total : int;
  mvm_windows : int;
  messages : int;
  flit_hops : int;
  global_load_bytes : int;
  global_store_bytes : int;
  core_busy_ns : float array;   (* active window per core *)
  local_peak_bytes : int array; (* per-core demand high-water mark *)
  local_resident_peak_bytes : int array;
      (* per-core bytes actually held on chip at the worst moment;
         <= the scratchpad capacity even when the demand peak is not *)
  deadlocked : bool;
  (* provenance: how many inference instances these numbers cover, and
     how many of those were closed analytically by the streaming batch
     engine's period detector rather than simulated event by event.
     simulated + extrapolated = instances covered; a plain single-run
     simulation is (1, 0). *)
  simulated_instances : int;
  extrapolated_instances : int;
}

let active_cores t =
  Array.fold_left (fun acc b -> if b > 0.0 then acc + 1 else acc) 0 t.core_busy_ns

let avg_local_peak_bytes t =
  let used = ref 0 and sum = ref 0 in
  Array.iter
    (fun p ->
      if p > 0 then begin
        incr used;
        sum := !sum + p
      end)
    t.local_peak_bytes;
  if !used = 0 then 0.0 else float_of_int !sum /. float_of_int !used

let max_local_peak_bytes t = Array.fold_left max 0 t.local_peak_bytes

let max_local_resident_peak_bytes t =
  Array.fold_left max 0 t.local_resident_peak_bytes

let pp ppf t =
  let e = t.energy in
  let instances = t.simulated_instances + t.extrapolated_instances in
  let pp_provenance ppf () =
    if instances > 1 then
      Fmt.pf ppf "@,  instances: %d (%d simulated, %d extrapolated)" instances
        t.simulated_instances t.extrapolated_instances
  in
  Fmt.pf ppf
    "@[<v>%s [%a]: makespan %.2f us (throughput %.1f inf/s, latency %.2f us)@,\
    \  energy: %.2f uJ dynamic (MVM %.2f, VEC %.2f, local %.2f, global %.2f, \
     NoC %.2f) + %.2f uJ static@,\
    \  traffic: %d msgs, %.1f kB loaded, %.1f kB stored@,\
    \  cores active: %d/%d, local demand peak %.1f kB max / %.1f kB avg, \
     resident peak %.1f kB max%a@]"
    t.graph_name Pimcomp.Mode.pp t.mode (t.makespan_ns /. 1e3)
    t.throughput_ips (t.latency_ns /. 1e3)
    (dynamic_pj e /. 1e6) (e.mvm_pj /. 1e6) (e.vec_pj /. 1e6)
    (e.local_mem_pj /. 1e6) (e.global_mem_pj /. 1e6) (e.noc_pj /. 1e6)
    (static_pj e /. 1e6) t.messages
    (float_of_int t.global_load_bytes /. 1024.)
    (float_of_int t.global_store_bytes /. 1024.)
    (active_cores t)
    (Array.length t.core_busy_ns)
    (float_of_int (max_local_peak_bytes t) /. 1024.)
    (avg_local_peak_bytes t /. 1024.)
    (float_of_int (max_local_resident_peak_bytes t) /. 1024.)
    pp_provenance ()
