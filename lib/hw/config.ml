(* Abstract PIM accelerator description (paper Section III).

   An accelerator is a set of cores connected by a NoC and to a global
   memory.  Each core holds a PIM matrix unit (PIMMU) made of NVM
   crossbars, a vector functional unit (VFU), a local scratchpad and a
   control unit.  The default instantiation reproduces Table I (PUMA-like,
   ReRAM, 2-bit cells, 16-bit fixed-point data).

   Crossbars here are *logical* 128x128 16-bit arrays: the 8-way bit
   slicing implied by 2-bit cells and the input bit-serial streaming are
   folded into the per-MVM latency and energy constants, exactly as the
   paper's abstract architecture does. *)

type t = {
  (* crossbar / PIMMU *)
  xbar_rows : int;            (* H_xbar: weight-matrix rows per crossbar *)
  xbar_cols : int;            (* W_xbar: output columns per crossbar *)
  xbars_per_core : int;
  (* vector functional unit *)
  vfus_per_core : int;
  vfu_lanes : int;            (* elements processed per VFU per cycle *)
  (* memories *)
  local_memory_bytes : int;
  global_memory_bytes : int;
  (* chip *)
  core_count : int;
  (* NoC *)
  flit_bytes : int;
  global_memory_banks : int;  (* independently addressable eDRAM banks *)
  (* timing (nanoseconds) *)
  t_mvm_ns : float;           (* one in-situ MVM incl. DAC/ADC/S&H/S&A *)
  t_core_cycle_ns : float;    (* digital core clock period *)
  t_hop_ns : float;           (* per-hop router traversal *)
  t_dram_latency_ns : float;  (* global memory fixed access latency *)
  global_memory_gbps : float; (* global memory / HT link bandwidth *)
  (* power (milliwatts) — Table I calibration points *)
  pimmu_power_mw : float;     (* whole PIMMU (all crossbars) *)
  vfu_power_mw : float;       (* all VFUs of one core *)
  local_memory_power_mw : float;
  control_power_mw : float;
  router_power_mw : float;
  global_memory_power_mw : float;
  hyper_transport_power_mw : float;
  (* area (mm^2) — Table I calibration points *)
  pimmu_area_mm2 : float;
  vfu_area_mm2 : float;
  local_memory_area_mm2 : float;
  control_area_mm2 : float;
  router_area_mm2 : float;
  global_memory_area_mm2 : float;
  hyper_transport_area_mm2 : float;
  (* fraction of each component's Table-I power that is leakage (static);
     the remainder is the dynamic power at full utilisation. *)
  static_fraction : float;
}

(* Table I of the paper, with PUMA-era timing constants:
   100 ns per full crossbar MVM (ISAAC/PUMA), 1 GHz digital core clock,
   1.5 ns per router hop, HyperTransport-class 6.4 GB/s off-core link. *)
let puma_like =
  {
    xbar_rows = 128;
    xbar_cols = 128;
    xbars_per_core = 64;
    vfus_per_core = 12;
    vfu_lanes = 4;
    local_memory_bytes = 64 * 1024;
    global_memory_bytes = 4 * 1024 * 1024;
    core_count = 36;
    flit_bytes = 8;
    (* The 4 MB global buffer is banked eDRAM: banks serve different
       cores concurrently, each at [global_memory_gbps].  8 banks give
       the aggregate on-chip bandwidth a 36-core PIM chip needs to keep
       dense networks compute-bound in HT mode. *)
    global_memory_banks = 8;
    t_mvm_ns = 100.0;
    t_core_cycle_ns = 1.0;
    t_hop_ns = 1.5;
    t_dram_latency_ns = 30.0;
    (* On-chip eDRAM global buffer bandwidth shared by all cores.  The
       PUMA-era HyperTransport link (6.4 GB/s) only bounds off-chip
       traffic; the on-chip buffer serves roughly a cache line per core
       cycle.  51.2 GB/s keeps HT mode compute-bound for the dense
       networks, as in the paper's evaluation. *)
    global_memory_gbps = 51.2;
    pimmu_power_mw = 1221.7;
    vfu_power_mw = 22.80;
    local_memory_power_mw = 18.00;
    control_power_mw = 8.00;
    router_power_mw = 43.13;
    global_memory_power_mw = 257.72;
    hyper_transport_power_mw = 10_400.0;
    pimmu_area_mm2 = 0.77;
    vfu_area_mm2 = 0.048;
    local_memory_area_mm2 = 0.085;
    control_area_mm2 = 0.11;
    router_area_mm2 = 0.14;
    global_memory_area_mm2 = 2.42;
    hyper_transport_area_mm2 = 22.88;
    static_fraction = 0.30;
  }

let validate c =
  let check name v = if v <= 0 then invalid_arg ("Config: " ^ name ^ " <= 0") in
  check "xbar_rows" c.xbar_rows;
  check "xbar_cols" c.xbar_cols;
  check "xbars_per_core" c.xbars_per_core;
  check "vfus_per_core" c.vfus_per_core;
  check "vfu_lanes" c.vfu_lanes;
  check "local_memory_bytes" c.local_memory_bytes;
  check "global_memory_bytes" c.global_memory_bytes;
  check "core_count" c.core_count;
  check "flit_bytes" c.flit_bytes;
  check "global_memory_banks" c.global_memory_banks;
  if c.t_mvm_ns <= 0.0 then invalid_arg "Config: t_mvm_ns <= 0";
  if c.global_memory_gbps <= 0.0 then invalid_arg "Config: bandwidth <= 0";
  if c.static_fraction < 0.0 || c.static_fraction > 1.0 then
    invalid_arg "Config: static_fraction outside [0, 1]"

(* --- derived quantities ------------------------------------------------- *)

let core_power_mw c =
  c.pimmu_power_mw +. c.vfu_power_mw +. c.local_memory_power_mw
  +. c.control_power_mw

let core_area_mm2 c =
  c.pimmu_area_mm2 +. c.vfu_area_mm2 +. c.local_memory_area_mm2
  +. c.control_area_mm2

let chip_power_mw c =
  (float_of_int c.core_count *. (core_power_mw c +. c.router_power_mw))
  +. c.global_memory_power_mw +. c.hyper_transport_power_mw

let chip_area_mm2 c =
  (float_of_int c.core_count *. (core_area_mm2 c +. c.router_area_mm2))
  +. c.global_memory_area_mm2 +. c.hyper_transport_area_mm2

let total_crossbars c = c.core_count * c.xbars_per_core

(* Weight elements one crossbar stores. *)
let xbar_capacity c = c.xbar_rows * c.xbar_cols

(* A NoC message is whole flits, and even an empty one is a head flit. *)
let flits c ~bytes = max 1 ((bytes + c.flit_bytes - 1) / c.flit_bytes)

let pp_row ppf (component, parameters, specification, power, area) =
  Fmt.pf ppf "| %-15s | %-24s | %-13s | %10s | %11s |" component parameters
    specification power area

let pp_table ppf c =
  let f = Fmt.str "%.2f" in
  let fk mw =
    if mw >= 1000.0 then Fmt.str "%.2f k" (mw /. 1000.0) else Fmt.str "%.2f" mw
  in
  let rows =
    [
      ( "PIMMU", "# crossbar",
        string_of_int c.xbars_per_core, f c.pimmu_power_mw, f c.pimmu_area_mm2 );
      ( "VFU", "# per core", string_of_int c.vfus_per_core, f c.vfu_power_mw,
        f c.vfu_area_mm2 );
      ( "Local Memory", "capacity",
        Fmt.str "%d kB" (c.local_memory_bytes / 1024),
        f c.local_memory_power_mw, f c.local_memory_area_mm2 );
      ("Control Unit", "-", "-", f c.control_power_mw, f c.control_area_mm2);
      ( "Core", "# per chip", string_of_int c.core_count, f (core_power_mw c),
        f (core_area_mm2 c) );
      ( "Router", "flit size", string_of_int (c.flit_bytes * 8),
        f c.router_power_mw, f c.router_area_mm2 );
      ( "Global Memory", "capacity",
        Fmt.str "%d MB" (c.global_memory_bytes / (1024 * 1024)),
        f c.global_memory_power_mw, f c.global_memory_area_mm2 );
      ( "Hyper Transport", "link bandwidth",
        Fmt.str "%.1f GB/s" c.global_memory_gbps,
        fk c.hyper_transport_power_mw, f c.hyper_transport_area_mm2 );
      ("Chip", "-", "-", fk (chip_power_mw c), f (chip_area_mm2 c));
    ]
  in
  Fmt.pf ppf "@[<v>%a@,%a@]" pp_row
    ("Component", "Parameters", "Specification", "Power (mW)", "Area (mm2)")
    Fmt.(list ~sep:cut pp_row)
    rows
