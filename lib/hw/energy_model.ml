(* Per-event dynamic energies and per-component static powers, derived
   from the Table I calibration points, the CACTI-like memory model and
   the Orion-like router model.

   Convention: dynamic energy is charged per event by the simulator;
   static (leakage) power is charged for each component's active window.
   Table I powers are peak powers; [static_fraction] of each is leakage
   and the remainder is the dynamic power at full utilisation, from which
   the per-event energies below are derived. *)

type t = {
  config : Config.t;
  (* dynamic, per event *)
  mvm_energy_pj : float;            (* one crossbar MVM *)
  vec_energy_pj_per_element : float;
  local_read_pj_per_byte : float;
  local_write_pj_per_byte : float;
  global_read_pj_per_byte : float;
  global_write_pj_per_byte : float;
  router_energy_pj_per_flit_hop : float;
  (* static, milliwatts *)
  core_static_mw : float;           (* PIMMU + VFU + local mem + control *)
  router_static_mw : float;
  global_memory_static_mw : float;
  hyper_transport_static_mw : float;
}

let create (config : Config.t) =
  let dyn frac mw = (1.0 -. frac) *. mw in
  let sf = config.static_fraction in
  let local = Cacti_model.evaluate ~capacity_bytes:config.local_memory_bytes in
  let global =
    Cacti_model.evaluate ~capacity_bytes:config.global_memory_bytes
  in
  let router =
    Orion_model.evaluate
      ~params:
        { Orion_model.default_params with flit_bits = config.flit_bytes * 8 }
      ()
  in
  (* One crossbar at full utilisation completes an MVM every t_mvm_ns, so
     its per-MVM energy is (dynamic power per crossbar) x t_mvm. *)
  let per_xbar_dynamic_mw =
    dyn sf config.pimmu_power_mw /. float_of_int config.xbars_per_core
  in
  let mvm_energy_pj = per_xbar_dynamic_mw *. config.t_mvm_ns in
  (* mW x ns = pJ, conveniently. *)
  let vfu_dynamic_mw = dyn sf config.vfu_power_mw in
  let elements_per_ns =
    float_of_int (config.vfus_per_core * config.vfu_lanes)
    /. config.t_core_cycle_ns
  in
  {
    config;
    mvm_energy_pj;
    vec_energy_pj_per_element = vfu_dynamic_mw /. elements_per_ns;
    local_read_pj_per_byte = local.Cacti_model.read_energy_pj_per_byte;
    local_write_pj_per_byte = local.Cacti_model.write_energy_pj_per_byte;
    global_read_pj_per_byte = global.Cacti_model.read_energy_pj_per_byte;
    global_write_pj_per_byte = global.Cacti_model.write_energy_pj_per_byte;
    router_energy_pj_per_flit_hop = router.Orion_model.energy_per_flit_pj;
    core_static_mw = sf *. Config.core_power_mw config;
    router_static_mw = sf *. config.router_power_mw;
    global_memory_static_mw = sf *. config.global_memory_power_mw;
    hyper_transport_static_mw = sf *. config.hyper_transport_power_mw;
  }

(* Energy of a NoC message traversing [hops] routers. *)
let message_energy_pj t ~hops ~bytes =
  float_of_int (Config.flits t.config ~bytes * hops)
  *. t.router_energy_pj_per_flit_hop

let pp ppf t =
  Fmt.pf ppf
    "@[<v>energy model:@,\
    \  MVM %.1f pJ/crossbar-op, VFU %.3f pJ/elem@,\
    \  local %.3f/%.3f pJ/B (r/w), global %.3f/%.3f pJ/B (r/w)@,\
    \  router %.2f pJ/flit-hop@,\
    \  static: core %.1f mW, router %.2f mW, gmem %.1f mW, HT %.1f mW@]"
    t.mvm_energy_pj t.vec_energy_pj_per_element t.local_read_pj_per_byte
    t.local_write_pj_per_byte t.global_read_pj_per_byte
    t.global_write_pj_per_byte t.router_energy_pj_per_flit_hop t.core_static_mw
    t.router_static_mw t.global_memory_static_mw t.hyper_transport_static_mw
