(** Deterministic splitmix-style PRNG (native-int, allocation-free) used
    by the genetic algorithm, so a given seed always yields the same
    compilation result. *)

type t

val create : seed:int -> t

val split : t -> t
(** Split off a statistically independent child stream (splitmix-style):
    the child is seeded from two fresh mixer outputs of the parent, so
    its draws do not correlate with the parent's continuation or with
    other children.  Advances the parent by exactly two draws; the
    foundation of the island-model GA's per-island RNG streams. *)

val bits : t -> int
(** A uniform 62-bit non-negative draw. *)

val int : t -> int -> int
(** [int t bound] is exactly uniform in [\[0, bound)] (rejection
    sampling — no modulo bias). *)

val float : t -> float -> float
val bool : t -> bool
val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val pick : t -> 'a array -> 'a
val pick_list : t -> 'a list -> 'a
val shuffle : t -> 'a array -> unit
