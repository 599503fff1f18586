(* 2D-mesh network-on-chip topology.

   Cores are laid out row-major on the smallest near-square mesh that
   holds them (36 cores -> 6x6, as in PUMA).  Routing is deterministic
   XY (dimension-ordered), which is what the simulator charges hops and
   link occupancy against. *)

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

let core_at t ~x ~y =
  let core = (y * t.cols) + x in
  if x < 0 || x >= t.cols || y < 0 || core >= t.core_count then None
  else Some core

let hops t ~src ~dst =
  let sx, sy = coords t src and dx, dy = coords t dst in
  abs (sx - dx) + abs (sy - dy)

(* A link is identified by its endpoint pair in traversal direction. *)
type link = { from_core : int; to_core : int }

(* Dimension-ordered routing.  XY (travel along X first) can step onto a
   position past the end of the ragged bottom row — e.g. 5 cores on a
   3x2 mesh, route 4 -> 2 would pass "core 5".  So: turn at the XY
   corner (dst.x, src.y) when that position holds a real core, else at
   the YX corner (src.x, dst.y).  One of the two always exists: if
   (dx, sy) is past the ragged row then sy is the bottom row and dst
   must lie strictly above it, so dy indexes a full row and (sx, dy) is
   real.  Both legs then stay inside the mesh, because a row/column
   segment between two real cores only crosses full rows (or stays
   inside the bottom row between its endpoints). *)
let route t ~src ~dst =
  let sx, sy = coords t src and dx, dy = coords t dst in
  let step d = if d > 0 then 1 else -1 in
  let walk_row ~y ~from_x ~to_x acc =
    let rec go x acc =
      if x = to_x then acc
      else
        let x' = x + step (to_x - x) in
        go x'
          ({ from_core = (y * t.cols) + x; to_core = (y * t.cols) + x' }
          :: acc)
    in
    go from_x acc
  in
  let walk_col ~x ~from_y ~to_y acc =
    let rec go y acc =
      if y = to_y then acc
      else
        let y' = y + step (to_y - y) in
        go y'
          ({ from_core = (y * t.cols) + x; to_core = (y' * t.cols) + x }
          :: acc)
    in
    go from_y acc
  in
  let xy_corner = (sy * t.cols) + dx in
  let rev_links =
    if xy_corner < t.core_count then
      walk_row ~y:sy ~from_x:sx ~to_x:dx []
      |> walk_col ~x:dx ~from_y:sy ~to_y:dy
    else
      walk_col ~x:sx ~from_y:sy ~to_y:dy []
      |> walk_row ~y:dy ~from_x:sx ~to_x:dx
  in
  List.rev rev_links

(* Distance from a core to the global-memory port.  The global memory sits
   at the mesh edge next to core 0 (top-left), one extra hop away. *)
let hops_to_global_memory t ~core =
  let x, y = coords t core in
  x + y + 1

let global_memory_port = -1

let route_to_global_memory t ~core =
  route t ~src:core ~dst:0
  @ [ { from_core = 0; to_core = global_memory_port } ]
