(** PIMSYN-style multi-objective hardware design-space search.

    Searches a discrete {!Pimhw.Design_space.axes} grid for hardware
    points that are Pareto-optimal over (time, energy, area) for a set
    of networks.  The loop is engineered for search throughput:

    - candidates are first screened by cheap analytic bounds (crossbar
      supply vs the networks' replication-1 weight footprint, per-core
      array-group fit, optional chip-area budget) so hopeless points
      never reach a compile;
    - surviving candidates are evaluated in one batch per generation
      through a caller-supplied evaluator (compile + simulate — see
      {!Pimsim.Synth_eval}), so the evaluator can fan jobs over warm
      worker domains;
    - evaluations are memoised by design point, so a candidate
      revisited in a later generation costs a table lookup.  Within one
      run the point fixes everything an evaluation depends on: its
      config ({!Pimhw.Design_space.to_config} sets one field per axis)
      and its options ({!candidate_options}), over a fixed network set;
    - the Pareto frontier is kept as an incremental non-dominated
      archive: each insertion drops dominated members in one pass, with
      no per-generation re-sort.

    Determinism contract: all randomness flows from [params.seed]
    through {!Rng.split} streams, candidates are generated and results
    folded in a fixed order, and the evaluator must return slot-ordered
    results — so a given seed yields a bit-identical frontier whatever
    the evaluator's domain count.  [prune] and [memoise] only change
    search cost, never the frontier: analytically pruned candidates are
    exactly those a compile would reject as infeasible, and the area
    budget is re-checked after evaluation when pruning is off. *)

type params = {
  generations : int;  (** evolution generations after the seed round *)
  children : int;  (** candidates bred per generation *)
  seed : int;
  grid_seed : bool;
      (** Seed round evaluates the whole axes grid (default); otherwise
          [children] random points. *)
  area_budget_mm2 : float option;
      (** Reject candidates whose chip area exceeds the budget. *)
  prune : bool;  (** analytic pre-filters (off = naive baseline) *)
  memoise : bool;  (** point-keyed evaluation memo (off = naive) *)
}

val default_params : params
(** 8 generations x 12 children over a grid seed, seed 42, no area
    budget, pruning and memoisation on. *)

type job = {
  point : Pimhw.Design_space.point;
  config : Pimhw.Config.t;  (** [Design_space.to_config point] *)
  options : Compile.options;  (** per-candidate: [core_count] pinned *)
  network : int;  (** index into [networks] *)
}

type evaluation =
  | Eval_ok of { time_ns : float; energy_pj : float }
      (** [time_ns] is end-to-end latency (LL mode) or the inverse
          throughput period (HT mode). *)
  | Eval_infeasible of string
      (** The compiler rejected the (network, hardware) pair — e.g. the
          weights do not fit even at replication 1.  Recorded as an
          infeasible point; never aborts the generation. *)

type objectives = { time_ns : float; energy_pj : float; area_mm2 : float }
(** All minimised; time and energy are geometric means across the
    network set. *)

val dominates : objectives -> objectives -> bool
(** [dominates a b]: [a] is no worse on every objective and strictly
    better on at least one. *)

type frontier_point = {
  point : Pimhw.Design_space.point;
  objectives : objectives;
  per_network : (string * float * float) array;
      (** (name, time_ns, energy_pj) in network order *)
}

type stats = {
  considered : int;  (** candidates generated (incl. duplicates) *)
  evaluated : int;  (** candidates that reached the evaluator *)
  eval_jobs : int;  (** candidate x network evaluator jobs *)
  memo_hits : int;
  pruned_capacity : int;  (** rejected by the crossbar-supply bounds *)
  pruned_area : int;  (** rejected by the area budget *)
  infeasible : int;  (** evaluator said the compile rejects the point *)
  dominated : int;  (** archive rejections plus evicted members *)
  generations : int;
  wall_seconds : float;
  eval_seconds : float;  (** time inside the evaluator callback *)
}

type result = {
  frontier : frontier_point list;
      (** non-dominated set, sorted by ascending time *)
  stats : stats;
  infeasible_points : (Pimhw.Design_space.point * string) list;
  pruned_points : (Pimhw.Design_space.point * string) list;
}

val candidate_options :
  Compile.options -> Pimhw.Design_space.point -> Compile.options
(** The per-candidate compile options: [core_count] pinned to the
    point's, everything else from the base options. *)

val run :
  ?params:params ->
  ?options:Compile.options ->
  axes:Pimhw.Design_space.axes ->
  networks:(string * Nnir.Graph.t) array ->
  eval:(job array -> evaluation array) ->
  unit ->
  result
(** Run the search.  Candidates scale {!Pimhw.Config.puma_like}
    ({!Pimhw.Design_space.to_config}); [options] defaults to
    {!Compile.default_options} with the PUMA-like mapping
    strategy (a full GA per candidate would drown the search).  The
    evaluator receives one batch of jobs per generation and must return
    one slot-ordered [evaluation] per job; any exception it raises
    (e.g. {!Compile.Job_error}) aborts the search.  Raises
    [Invalid_argument] on empty [networks], non-positive [params], or
    invalid [axes]. *)

(** {2 Reports} — what [pimcomp synth] prints and writes with [--json],
    and what [BENCH_SYNTH.json] records. *)

val pp_frontier : frontier_point list Fmt.t
(** The frontier table: a header line, then one line per point with its
    name, time (us), energy (uJ) and area (mm2). *)

val frontier_json : frontier_point list -> Pimutil.Json.t
(** One object per point: [point] (its name and axis values), the three
    objectives and the [per_network] time and energy. *)

val candidates_per_sec : stats -> float
(** Candidates considered per wall second (0 for a zero wall time). *)

val stats_json : stats -> Pimutil.Json.t
(** Every {!stats} field, plus {!candidates_per_sec}. *)

val to_json : mode:Mode.t -> seed:int -> result -> Pimutil.Json.t
(** The [synth --json] document: [mode], [seed], [frontier]
    ({!frontier_json}), [stats] ({!stats_json}), the [infeasible] points
    with their reasons, and the [pruned] count. *)
