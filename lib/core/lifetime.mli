(** Post-schedule lifetime-aware buffer placement (the ROADMAP's
    AutoTM-style memory optimiser).

    Recovers every logical buffer's live range (first def -> last use,
    per core) from a scheduled program's [mem_trace], solves placement
    with best-fit-with-coalescing over each core's free-interval list,
    and — when a core is genuinely oversubscribed — plans deliberate
    STORE/LOAD spill round trips to global memory instead of failing.

    The whole pass is a deterministic function of (trace, capacity):
    {!Verify} recomputes the plan from the program alone and checks the
    stamped memory report against it.  {!apply} is the one way a trace
    event reaches a {!Memalloc} allocator: the schedulers' builder
    applies each event as it records it, and {!replay} folds it over a
    finished trace. *)

type plan = {
  events : int;           (** expected trace length *)
  pair_bytes : int array; (** per event ordinal: planned spill round-trip
                              bytes at this allocation (0 = resident) *)
  skip : bool array;      (** per event ordinal: event belongs to a
                              spilled buffer — trace it, but keep it away
                              from the allocator *)
  resident : int array;   (** per-core placement peak *)
  spill : int;            (** total planned spill traffic, both ways *)
  spilled_buffers : int;
}

val apply : Memalloc.t -> Isa.mem_event -> int
(** Drive the allocator with one trace event.  Returns the bytes an
    allocation spilled to global memory (0 for a free).  Raises
    {!Memalloc.Doesnt_fit} as {!Memalloc.alloc} does. *)

val replay :
  Memalloc.strategy ->
  core_count:int ->
  capacity:int option ->
  Isa.mem_event array ->
  Memalloc.t
(** A fresh {!Memalloc} of the given discipline after {!apply} over the
    whole trace: {!Verify.run}'s memory check. *)

val plan_of_trace :
  core_count:int ->
  capacity:int option ->
  ?spill_budget:int ->
  Isa.mem_event array ->
  plan
(** Deterministic: same trace and capacity give the same plan.  Raises
    {!Memalloc.Doesnt_fit} when the planned spill traffic exceeds
    [spill_budget]. *)

val optimise :
  capacity:int option ->
  ?spill_budget:int ->
  schedule:(plan option -> Isa.t) ->
  unit ->
  Isa.t
(** Runs [schedule None] to profile lifetimes, plans placement, re-runs
    [schedule (Some plan)] if spills are needed (the emission — and in
    particular the trace — must be identical up to the planned spill
    pairs), and stamps the memory report into the result: the profiling
    pass's demand peaks (its builder applied every event to an
    unclamped [Lifetime] allocator), the plan's placement peaks and
    spill traffic, and the emitting pass's global traffic. *)
