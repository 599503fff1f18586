(** Candidate hardware design points for the PIMSYN-style synthesiser.

    A [point] names a concrete accelerator along five discrete axes:
    crossbar size (square arrays), crossbars per core, core count,
    local scratchpad capacity and VFUs per core.  Two further paper
    axes are implied rather than enumerated: the NoC mesh shape is
    derived from the core count by {!Noc}'s near-square layout, and the
    replication budget is spanned by core count x crossbars-per-core
    relative to the network's weight footprint (the compiler picks the
    replication factor that fits).

    [to_config] turns a point into a full {!Config.t} by rescaling the
    Table I calibration: PIM device power/area scale with the crossbar
    device count, VFU power/area with the VFU count, and the local
    scratchpad with {!Cacti_model}'s linear capacity laws.  Timing
    constants are kept at their Table I values (first-order model). *)

type point = {
  xbar_size : int;  (** square crossbars: rows = cols = xbar_size *)
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

val default_axes : axes
(** A PUMA-centred grid: crossbar sizes {64,128,256}, 16..64 crossbars
    per core, 16..64 cores, 32..128 kB scratchpads, 12 VFUs. *)

val validate_axes : axes -> unit
(** Raises [Invalid_argument] if any axis is empty, has a non-positive
    value, or holds duplicates. *)

val validate_point : point -> unit
(** Raises [Invalid_argument] on non-positive fields. *)

val enumerate : axes -> point list
(** Deterministic cross product, ordered xbar_size-major then
    xbars_per_core, core_count, local_memory_kb, vfus_per_core. *)

val cardinality : axes -> int

val to_config : point -> Config.t
(** Instantiate a full configuration (validated) from
    {!Config.puma_like} by the scaling laws above. *)

(** {2 Cheap analytic bounds (no compile needed)} *)

val crossbar_supply : point -> int
(** [core_count * xbars_per_core] — against a network set's
    replication-1 weight-footprint lower bound. *)

(** {2 Generic axis access (used by the synthesiser's mutation)} *)

val axis_count : int
(** Number of axes (5). *)

val axis_values : axes -> int -> int list
(** Values of axis [i] (0-based, [Invalid_argument] out of range). *)

val axis_value : point -> int -> int
val with_axis : point -> int -> int -> point
val point_name : point -> string
