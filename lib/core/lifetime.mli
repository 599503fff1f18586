(** Post-schedule lifetime-aware buffer placement (the ROADMAP's
    AutoTM-style memory optimiser).

    Recovers every logical buffer's live range (first def -> last use,
    per core) from a scheduled program's [mem_trace], solves placement
    with best-fit-with-coalescing over each core's free-interval list,
    and — when a core is genuinely oversubscribed — plans deliberate
    STORE/LOAD spill round trips to global memory instead of failing.

    The whole pass is a deterministic function of (trace, capacity):
    {!Verify} recomputes the plan from the program alone and checks the
    stamped memory report against it. *)

type plan = {
  events : int;           (** expected trace length *)
  pair_bytes : int array; (** per event ordinal: planned spill round-trip
                              bytes at this allocation (0 = resident) *)
  skip : bool array;      (** per event ordinal: event belongs to a
                              spilled buffer — trace it, but keep it away
                              from the allocator *)
  demand : int array;     (** per-core demand peak, no capacity clamp *)
  resident : int array;   (** per-core placement peak *)
  spill : int;            (** total planned spill traffic, both ways *)
  spilled_buffers : int;
}

val replay :
  Memalloc.strategy ->
  core_count:int ->
  capacity:int option ->
  Isa.mem_event array ->
  Memalloc.t
(** A fresh {!Memalloc} of the given discipline after the whole trace:
    the one replay behind the planner's demand peaks and {!Verify.run}'s
    memory check.  Raises {!Memalloc.Doesnt_fit} as {!Memalloc.alloc}
    does. *)

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
    pairs), and stamps the plan's memory report into the result. *)

val stamp : plan -> Isa.t -> Isa.t
(** Overwrite a program's memory report with the plan's numbers,
    keeping the builder-accounted global traffic. *)
