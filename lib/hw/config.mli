(** Abstract PIM accelerator description (paper Section III), default
    instantiation reproducing Table I (PUMA-like). *)

type t = {
  xbar_rows : int;
  xbar_cols : int;
  xbars_per_core : int;
  vfus_per_core : int;
  vfu_lanes : int;
  local_memory_bytes : int;
  global_memory_bytes : int;
  core_count : int;
  flit_bytes : int;
  global_memory_banks : int;
  t_mvm_ns : float;
  t_core_cycle_ns : float;
  t_hop_ns : float;
  t_dram_latency_ns : float;
  global_memory_gbps : float;
  pimmu_power_mw : float;
  vfu_power_mw : float;
  local_memory_power_mw : float;
  control_power_mw : float;
  router_power_mw : float;
  global_memory_power_mw : float;
  hyper_transport_power_mw : float;
  pimmu_area_mm2 : float;
  vfu_area_mm2 : float;
  local_memory_area_mm2 : float;
  control_area_mm2 : float;
  router_area_mm2 : float;
  global_memory_area_mm2 : float;
  hyper_transport_area_mm2 : float;
  static_fraction : float;
}

val puma_like : t
(** Table I of the paper with PUMA-era timing constants. *)

val default : t

val isaac_like : t
(** ISAAC-flavoured variant (fewer, smaller tiles) for design-space
    exploration; scaled from the Table I calibration, not calibrated. *)

val validate : t -> unit
(** Raises [Invalid_argument] on non-positive or out-of-range fields. *)

val core_power_mw : t -> float
val core_area_mm2 : t -> float
val chip_power_mw : t -> float
val chip_area_mm2 : t -> float
val total_crossbars : t -> int
val xbar_capacity : t -> int

val flits : t -> bytes:int -> int
(** Flits in a [bytes]-byte NoC message, at least one: the count behind
    {!Timing.noc_ns}, {!Energy_model.message_energy_pj} and flit-hops. *)

val pp_table : t Fmt.t
(** Render the configuration in the layout of the paper's Table I. *)
