(** GA fitness functions (Section IV-C2): estimated inference time in
    nanoseconds, minimised by the genetic algorithm.

    Two evaluation paths share the same arithmetic: {!evaluate} is the
    full-recompute reference, and {!Inc} is an incremental evaluator that
    caches per-node and per-core terms over a shared {!ctx} and refreshes
    only what a mutation touched.  Both run the same refresh functions,
    so their results are bit-identical. *)

(** {1 Objectives} *)

type objective = Minimize_time | Minimize_energy_delay

val objective_name : objective -> string

(** {1 Reference (full-recompute) path} *)

val core_time : Pimhw.Timing.t -> (int * int) list -> float
(** [core_time timing pairs] — estimated busy time of one core from
    [(ag_count, operation_cycles)] pairs, the segment computation of the
    paper's Fig. 5: the routine {!Inc} runs per core, exposed for unit
    tests. *)

val ht : Pimhw.Timing.t -> Chromosome.t -> float
(** F_HT = max over cores of the estimated core time. *)

val ll : Pimhw.Timing.t -> Chromosome.t -> float
(** F_LL: waiting-fraction chain over the topology (Fig. 6). *)

val standalone_ns :
  Pimhw.Timing.t ->
  Partition.table ->
  Nnir.Graph.t ->
  Nnir.Node.id ->
  replication:int ->
  float

val estimate_energy_pj :
  Pimhw.Energy_model.t -> Mode.t -> Pimhw.Timing.t -> Chromosome.t -> float
(** First-order per-inference energy of a mapping (dynamic crossbar work
    plus leakage over estimated busy windows): the estimate the
    energy-delay objective multiplies by the time. *)

val evaluate :
  ?objective:objective -> Mode.t -> Pimhw.Timing.t -> Chromosome.t -> float
(** GA objective: estimated time (default) or energy-delay product.
    Recomputes everything from the chromosome — the reference against
    which {!Inc} is tested. *)

(** {1 Incremental path} *)

type ctx
(** Chromosome-independent evaluation constants (per-node timing terms,
    machine parameters, LL chain geometry).  Build once per GA run and
    share across all individuals of the same table / core count. *)

val context :
  ?objective:objective ->
  Mode.t ->
  Pimhw.Timing.t ->
  Partition.table ->
  core_count:int ->
  ctx

module Inc : sig
  type t
  (** Cached evaluation of one chromosome: per-node replication / split /
      penalty terms and per-core busy / traffic terms, plus the
      assembled fitness. *)

  val create : ctx -> Chromosome.t -> t
  (** Full evaluation (every node and core refreshed). *)

  val copy : t -> Chromosome.t -> t
  (** [copy t child] — caches for a copied chromosome about to be
      mutated.  [child] must be a {!Chromosome.copy} of [t]'s chromosome
      (the caches are carried over, not recomputed).  Shares evaluation
      scratch with [t]: both must stay on one domain. *)

  val unshare : t -> Chromosome.t -> t
  (** Like {!copy} but sharing nothing with [t], so the result can be
      used from another domain (island migration).  [child] must be a
      {!Chromosome.unshare} of [t]'s chromosome.  The carried fitness is
      bit-identical — no re-evaluation happens. *)

  val update : t -> Chromosome.touched -> unit
  (** Refresh after the chromosome was mutated in place: re-derives the
      touched nodes' terms, the dirty cores' terms (touched cores plus
      holders of touched nodes before and after), and the fitness. *)

  val fitness : t -> float
  (** Bit-identical to {!evaluate} on the same chromosome. *)

  val time : t -> float
  (** The raw time estimate (before the objective transform). *)

  val chromosome : t -> Chromosome.t
end
