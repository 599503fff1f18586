(** 2D-mesh NoC topology with deterministic XY routing. *)

type t

val create : core_count:int -> t
(** Smallest near-square mesh holding [core_count] cores, row-major. *)

val cols : t -> int
val rows : t -> int
val core_count : t -> int

val coords : t -> int -> int * int
val core_at : t -> x:int -> y:int -> int option
val hops : t -> src:int -> dst:int -> int

type link = { from_core : int; to_core : int }

val route : t -> src:int -> dst:int -> link list
(** Dimension-ordered route; empty when [src = dst].  Every link
    endpoint is a real core even on a ragged (not fully populated)
    bottom row, and [List.length (route t ~src ~dst) = hops t ~src ~dst]
    for all pairs. *)

val hops_to_global_memory : t -> core:int -> int
(** Hops from a core to the global-memory port at the top-left edge. *)

val global_memory_port : int
(** Pseudo-endpoint ([-1]) of the final link to the global memory. *)

val route_to_global_memory : t -> core:int -> link list
(** Route to core 0 followed by the port link; its length equals
    [hops_to_global_memory t ~core]. *)
