(* 2D-mesh network-on-chip topology.

   Cores are laid out row-major on the smallest near-square mesh that
   holds them (36 cores -> 6x6, as in PUMA).  The simulator charges a
   message its XY (Manhattan) hop count and its serialisation in flits
   (Timing.noc_ns, Energy_model.message_energy_pj), and a global-memory
   access its hops to the memory port; it models no contention between
   messages, so the mesh needs only coordinates and hop counts. *)

type t = { cols : int; rows : int; core_count : int }

let create ~core_count =
  if core_count <= 0 then invalid_arg "Noc.create: core_count <= 0";
  let cols = int_of_float (ceil (sqrt (float_of_int core_count))) in
  let rows = (core_count + cols - 1) / cols in
  { cols; rows; core_count }

let cols t = t.cols
let rows t = t.rows
let core_count t = t.core_count

let coords t core =
  if core < 0 || core >= t.core_count then
    invalid_arg (Fmt.str "Noc.coords: core %d out of range" core);
  (core mod t.cols, core / t.cols)

let hops t ~src ~dst =
  let sx, sy = coords t src and dx, dy = coords t dst in
  abs (sx - dx) + abs (sy - dy)

(* Distance from a core to the global-memory port.  The global memory sits
   at the mesh edge next to core 0 (top-left), one extra hop away. *)
let hops_to_global_memory t ~core =
  let x, y = coords t core in
  x + y + 1
