(** Derived timing model shared by the compiler's fitness estimators and
    the simulator.  The parallelism degree P (paper Fig. 8) sets
    [T_interval = T_MVM / P]. *)

type t = {
  config : Config.t;
  parallelism : int;
  t_mvm_ns : float;
  t_interval_ns : float;
}

val default_parallelism : int
(** 20, the paper's energy-evaluation setting — the single source of
    truth for every parallelism default across the compiler, simulator
    and CLI. *)

val create : ?parallelism:int -> Config.t -> t
(** Default parallelism {!default_parallelism}. *)

val parallelism : t -> int

val operation_cycle_ns : t -> ags_in_core:int -> float
(** The paper's [f(n)]: one operation cycle with [n] AGs sharing a core's
    issue bandwidth — [max (n * T_interval) T_MVM]. *)

val vec_ns : t -> elements:int -> float
val noc_ns : t -> hops:int -> bytes:int -> float
