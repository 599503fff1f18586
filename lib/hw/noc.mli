(** 2D-mesh NoC topology: core coordinates and XY hop counts, the only
    NoC quantities the simulator charges. *)

type t

val create : core_count:int -> t
(** Smallest near-square mesh holding [core_count] cores, row-major. *)

val cols : t -> int
val rows : t -> int
val core_count : t -> int

val coords : t -> int -> int * int
val hops : t -> src:int -> dst:int -> int

val hops_to_global_memory : t -> core:int -> int
(** Hops from a core to the global-memory port at the top-left edge. *)
