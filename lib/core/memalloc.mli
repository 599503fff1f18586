(** On-chip local-memory allocation strategies (Section IV-D3, Fig. 7):
    Naive, ADD-reuse, AG-reuse, plus the precise-reclaim [Lifetime]
    discipline that backs the {!Lifetime} placement optimiser.  Tracks
    per-core demand and residency separately and, when a capacity is
    set, overflow traffic to global memory. *)

type strategy = Naive | Add_reuse | Ag_reuse | Lifetime

exception Doesnt_fit of string
(** Raised when a single allocation request is larger than the whole
    scratchpad: the opportunistic disciplines cannot stream such a
    buffer, so the configuration is structurally infeasible for them
    (the lifetime planner handles it with deliberate spills). *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy

type request =
  | Fresh
  | Accumulator of int
  | Ag_slot of int

type t

val create : strategy -> core_count:int -> capacity:int option -> t

val alloc : t -> core:int -> bytes:int -> request -> int
(** Returns the bytes that spilled to global memory (0 unless a capacity
    is set and exceeded). *)

val free : t -> core:int -> bytes:int -> unit
(** Reclaims only under [Ag_reuse] and [Lifetime]; a no-op for the other
    disciplines.  Only the portion of the freed bytes that was actually
    resident is reclaimed — bytes that overflowed the capacity at
    allocation time were spilled to global memory and never occupied the
    scratchpad.  Raises [Invalid_argument] on negative sizes, exactly
    like the alloc entry points. *)

val free_accumulator : t -> core:int -> key:int -> unit

val free_ag_slot : t -> core:int -> key:int -> unit
(** Releases a staging slot whose contents are dead.  Only the
    [Lifetime] discipline reclaims slots; a no-op for the Fig. 7
    disciplines, which keep slots resident for the whole program. *)

val strategy : t -> strategy

val current : t -> core:int -> int
(** Bytes currently resident on [core]. *)

val demand_peak : t -> core:int -> int
(** High-water mark of bytes callers logically held on [core], before
    the capacity clamp; can exceed the capacity when requests spilled. *)

val resident_peak : t -> core:int -> int
(** High-water mark of bytes actually resident on [core] after the
    capacity clamp; never exceeds the capacity. *)

val demand_peaks : t -> int array
val resident_peaks : t -> int array
val spill_bytes : t -> int

val overfree_bytes : t -> int
(** Total bytes of frees that exceeded the live set across all cores — a
    double-free or a free of something never allocated.  Zero for every
    well-formed allocation stream. *)

val overfree_bytes_on : t -> core:int -> int
