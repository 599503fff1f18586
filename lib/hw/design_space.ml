(* Candidate hardware design space for the PIMSYN-style synthesiser:
   discrete axes over crossbar geometry, core organisation and on-chip
   memory, plus the scaling laws that turn a point into a full
   Config.t consistent with the Table I calibration. *)

type point = {
  xbar_size : int;
  xbars_per_core : int;
  core_count : int;
  local_memory_kb : int;
  vfus_per_core : int;
}

type axes = {
  xbar_size_axis : int list;
  xbars_per_core_axis : int list;
  core_count_axis : int list;
  local_memory_kb_axis : int list;
  vfus_per_core_axis : int list;
}

let default_axes =
  {
    xbar_size_axis = [ 64; 128; 256 ];
    xbars_per_core_axis = [ 16; 32; 64 ];
    core_count_axis = [ 16; 36; 64 ];
    local_memory_kb_axis = [ 32; 64; 128 ];
    vfus_per_core_axis = [ 12 ];
  }

let validate_axis name values =
  if values = [] then invalid_arg (Printf.sprintf "axis %s is empty" name);
  List.iter
    (fun v ->
      if v <= 0 then
        invalid_arg (Printf.sprintf "axis %s has non-positive value %d" name v))
    values;
  let sorted = List.sort_uniq compare values in
  if List.length sorted <> List.length values then
    invalid_arg (Printf.sprintf "axis %s has duplicate values" name)

let validate_axes a =
  validate_axis "xbar_size" a.xbar_size_axis;
  validate_axis "xbars_per_core" a.xbars_per_core_axis;
  validate_axis "core_count" a.core_count_axis;
  validate_axis "local_memory_kb" a.local_memory_kb_axis;
  validate_axis "vfus_per_core" a.vfus_per_core_axis

let validate_point p =
  let check name v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "design point: %s must be positive" name)
  in
  check "xbar_size" p.xbar_size;
  check "xbars_per_core" p.xbars_per_core;
  check "core_count" p.core_count;
  check "local_memory_kb" p.local_memory_kb;
  check "vfus_per_core" p.vfus_per_core

let enumerate a =
  validate_axes a;
  List.concat_map
    (fun xbar_size ->
      List.concat_map
        (fun xbars_per_core ->
          List.concat_map
            (fun core_count ->
              List.concat_map
                (fun local_memory_kb ->
                  List.map
                    (fun vfus_per_core ->
                      {
                        xbar_size;
                        xbars_per_core;
                        core_count;
                        local_memory_kb;
                        vfus_per_core;
                      })
                    a.vfus_per_core_axis)
                a.local_memory_kb_axis)
            a.core_count_axis)
        a.xbars_per_core_axis)
    a.xbar_size_axis

let cardinality a =
  List.length a.xbar_size_axis
  * List.length a.xbars_per_core_axis
  * List.length a.core_count_axis
  * List.length a.local_memory_kb_axis
  * List.length a.vfus_per_core_axis

let to_config p =
  validate_point p;
  let base = Config.puma_like in
  let fi = float_of_int in
  (* PIM device count drives the in-core MVM unit's power and area, as
     in Config.isaac_like. *)
  let device_ratio =
    fi (p.xbars_per_core * p.xbar_size * p.xbar_size)
    /. fi
         (base.Config.xbars_per_core * base.Config.xbar_rows
        * base.Config.xbar_cols)
  in
  let vfu_ratio = fi p.vfus_per_core /. fi base.Config.vfus_per_core in
  let local_memory_bytes = p.local_memory_kb * 1024 in
  (* Cacti's leakage and area laws are linear in capacity, so the ratio
     of two evaluations is exactly the capacity ratio; going through
     the model keeps the scratchpad scaling tied to one place. *)
  let sram = Cacti_model.evaluate ~capacity_bytes:local_memory_bytes in
  let sram_base =
    Cacti_model.evaluate ~capacity_bytes:base.Config.local_memory_bytes
  in
  let mem_ratio = sram.Cacti_model.area_mm2 /. sram_base.Cacti_model.area_mm2 in
  let config =
    {
      base with
      Config.xbar_rows = p.xbar_size;
      xbar_cols = p.xbar_size;
      xbars_per_core = p.xbars_per_core;
      vfus_per_core = p.vfus_per_core;
      core_count = p.core_count;
      local_memory_bytes;
      pimmu_power_mw = base.Config.pimmu_power_mw *. device_ratio;
      pimmu_area_mm2 = base.Config.pimmu_area_mm2 *. device_ratio;
      vfu_power_mw = base.Config.vfu_power_mw *. vfu_ratio;
      vfu_area_mm2 = base.Config.vfu_area_mm2 *. vfu_ratio;
      local_memory_power_mw = base.Config.local_memory_power_mw *. mem_ratio;
      local_memory_area_mm2 = base.Config.local_memory_area_mm2 *. mem_ratio;
    }
  in
  Config.validate config;
  config

let crossbar_supply p = p.core_count * p.xbars_per_core
let axis_count = 5

let axis_values a = function
  | 0 -> a.xbar_size_axis
  | 1 -> a.xbars_per_core_axis
  | 2 -> a.core_count_axis
  | 3 -> a.local_memory_kb_axis
  | 4 -> a.vfus_per_core_axis
  | i -> invalid_arg (Printf.sprintf "axis_values: no axis %d" i)

let axis_value p = function
  | 0 -> p.xbar_size
  | 1 -> p.xbars_per_core
  | 2 -> p.core_count
  | 3 -> p.local_memory_kb
  | 4 -> p.vfus_per_core
  | i -> invalid_arg (Printf.sprintf "axis_value: no axis %d" i)

let with_axis p axis v =
  match axis with
  | 0 -> { p with xbar_size = v }
  | 1 -> { p with xbars_per_core = v }
  | 2 -> { p with core_count = v }
  | 3 -> { p with local_memory_kb = v }
  | 4 -> { p with vfus_per_core = v }
  | i -> invalid_arg (Printf.sprintf "with_axis: no axis %d" i)

let point_name p =
  Printf.sprintf "x%d-b%d-c%d-m%dk-v%d" p.xbar_size p.xbars_per_core
    p.core_count p.local_memory_kb p.vfus_per_core
