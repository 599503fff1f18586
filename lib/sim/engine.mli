(** The discrete-event execution engine — the cycle-accurate simulator
    of the paper's Section V-A2.  Models data dependencies, structural
    conflicts of crossbars (per AG), per-core MVM issue bandwidth
    (the parallelism degree), VFU occupancy, banked global-memory
    bandwidth, and XY-mesh message latency; accounts dynamic energy per
    event and static energy per component-active window.

    This is the flat-arena implementation: the program is compiled once
    into contiguous arrays (CSR dependency edges, precomputed
    per-instruction durations and energy charges), and each simulation
    allocates its own run state (dense rendezvous tables, unit queues,
    an int-packed event heap).  One event loop serves every simulation:
    {!exec} is the one-instance case of {!stream}.  Results are
    bit-identical to the reference interpreter {!Engine_ref}.

    Execution is dataflow (dependency-driven): well-formed programs
    always terminate, and unmatched rendezvous surface as
    [deadlocked = true] in the result instead of a hang.  {!arena}
    checks only the indices the simulator uses unchecked, so hand-built
    micro-programs with unmatched rendezvous or blank memory reports
    still simulate; {!Pimcomp.Verify.run} is the full contract.  A
    program that executes two SENDs on the same rendezvous tag (possible
    only past those checks) is rejected with [Invalid_argument] instead
    of silently overwriting the earlier message. *)

type t
(** A simulation arena: one compiled program at one parallelism degree
    on one hardware configuration, decoded into flat tables.  It is
    read-only once {!arena} returns: [exec] and [stream] allocate their
    own run state, so they may be called any number of times on one
    arena, from one domain or several at once. *)

val default_parallelism : int
(** 20 — the paper's energy-evaluation setting; the single source of
    truth for every [?parallelism] default in this library. *)

val arena : ?parallelism:int -> Pimhw.Config.t -> Pimcomp.Isa.t -> t
(** Build the flat arena: O(instructions + edges), performed once per
    (program, parallelism, hardware) triple.  Raises [Invalid_argument]
    naming the core and instruction of the first index it decodes out of
    range: a dep outside its core, an MVM AG outside the AG table, a
    SEND/RECV peer outside the core grid, or a negative rendezvous
    tag. *)

val exec :
  ?on_schedule:(core:int -> index:int -> start:float -> finish:float -> unit) ->
  t ->
  Metrics.t
(** Simulate one inference of the arena's program: the event loop of
    {!stream} at one instance, with no window and no detector, and the
    program's own local-memory peaks on the metrics.  Allocates the
    run's state (O(instructions + tags + units)) and writes nothing
    else.  Deterministic: repeated calls return bit-identical
    metrics.  [on_schedule] observes every instruction as
    it is scheduled (see {!Trace}). *)

val run :
  ?parallelism:int ->
  ?on_schedule:(core:int -> index:int -> start:float -> finish:float -> unit) ->
  Pimhw.Config.t ->
  Pimcomp.Isa.t ->
  Metrics.t
(** [run ~parallelism hw program] = [exec (arena ~parallelism hw
    program)]: one-shot simulation at the given parallelism degree
    (default {!default_parallelism}). *)

type stream_stats = {
  batches : int;
  simulated_instances : int;
      (** instances retired by event-by-event simulation *)
  extrapolated_instances : int;
      (** instances closed analytically by the period detector *)
  fired_at : int option;
      (** retired-instance index at which the detector fired, if it did *)
  steady_interval_ns : float option;
      (** the detected exact per-instance retirement interval *)
  peak_slots : int;
      (** window slots allocated: the window, or [batches] when
          unbounded; instance [k] holds slot [k mod peak_slots] *)
  state_words : int;
      (** heap words reachable from the run's state (window slots, unit
          queues, event heap, frontiers, counters) — the O(window x n)
          part that replaces the O(batches x n) materialised program +
          arena *)
}

val stream :
  ?window:int ->
  ?detect:bool ->
  t ->
  batches:int ->
  Metrics.t * stream_stats
(** [stream a ~batches] simulates [batches] back-to-back pipelined
    instances of the arena's program in O(window x n) memory: instance
    [k] holds window slot [k mod window].

    [window = 0] (the default) places no bound on the number of
    in-flight instances: the schedule is then exactly the materialised
    one, and with [detect:false] the metrics are bit-identical to
    {!Batch.run}'s (the materialised program, [batches] instances).  Fast
    front-end cores may race arbitrarily far ahead of the bottleneck in
    that schedule, so every instance gets a slot of its own: O(batches
    x n) memory, like the materialised program's run state.

    [window = w > 0] is bounded-buffer pipelining: instance [k] is
    admitted only once instance [k - w] has fully retired, so at most
    [w] instances are ever live, and instance [k] takes over the slot
    of [k - w].  This is a
    deliberately different — and physically honest — schedule; it
    coincides with the unbounded one whenever [w >= batches] or [w]
    exceeds the natural spread, and leaves steady-state throughput
    unchanged once [w] covers the program's pipeline depth plus slack.

    With detection on (the default) and a bounded window, the
    steady-state period detector watches the per-instance retirement
    cadence: once the retirement interval repeats bitwise for
    [max 8 (window + 4)] consecutive retirements (longer than any
    equal-gap plateau a window-period limit cycle can emit) with a
    stable in-flight population, admission stops and the
    never-admitted instances are closed analytically — the in-flight
    window still drains by event simulation, and by steady-state shift
    invariance that drain is the true end-of-stream drain displaced
    [skip x interval] earlier.  Exactness of the closure
    (DESIGN.md §3.9): integer counters are exact by construction;
    makespan, throughput, latency and the steady interval are exact
    whenever the cadence really is periodic (bitwise so on every zoo
    network measured); dynamic energies agree up to float-association
    order (~1e-12 relative); per-core busy windows — and the core- and
    router-static energies derived from them — are overestimated by at
    most about one window of steady intervals per core, a constant
    absolute error whose relative weight vanishes as [batches] grows.
    Unbounded ([window = 0]) streams never fire: fast cores drift
    arbitrarily far ahead, so no per-retirement shift exists to close
    with.

    Raises [Invalid_argument] when [batches <= 0], [window < 0], or
    [batches x instructions] would overflow the id space. *)
