(** The simulate step shared by [pimcomp simulate] and serve's
    [simulate] op, and the serve daemon's record of the simulations it
    has already run on verified cache hits (DESIGN.md §3.6). *)

type result =
  | Single of Metrics.t  (** one cold-start inference ({!Engine.run}) *)
  | Stream of (Batch.result * Engine.stream_stats)
      (** [batches] pipelined inferences through {!Batch.run_stream} at
          its default window, detector on *)

val run :
  parallelism:int -> batches:int -> Pimhw.Config.t -> Pimcomp.Isa.t -> result
(** [Single] when [batches = 1], [Stream] when it is larger.  Raises
    [Invalid_argument "batches must be at least 1, got N"] below 1. *)

type record
(** Results of simulations run on cache hits, keyed by (cache key, the
    cache handle's MAC of the served bytes, batches): at most one
    single-inference and one stream result per key, both replaced when
    the key's MAC changes.  Domain-safe. *)

val record : unit -> record
(** An empty record. *)

val served :
  record ->
  parallelism:int ->
  batches:int ->
  Pimhw.Config.t ->
  Pimcomp.Compile.served ->
  result
(** [run] on the served program, bit-identical to it.  A hit
    ([served.origin = Cache_hit { key; mac }]) whose (key, MAC, batches)
    the record holds is answered from it without forcing the program or
    running the engine; any other hit is run and recorded.  A miss or a
    cache-off request is run and recorded nowhere.  [parallelism] and
    the hardware must be the ones the key was computed from. *)

type counts = {
  simulated : int;  (** requests that ran the engine *)
  recalled : int;  (** requests answered from the record *)
}

val counts : record -> counts
