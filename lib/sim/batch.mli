(** Batched simulation: several back-to-back inferences of one compiled
    stream (sharing the physical crossbars, so structural conflicts
    serialise), measuring the true steady-state interval per inference.
    Two paths: materialised replication (the differential oracle) and
    the constant-memory streaming engine. *)

type result = {
  batches : int;
  total_ns : float;
  single_ns : float;
  steady_interval_ns : float;
  throughput_ips : float;  (** [metrics.throughput_ips] *)
  metrics : Metrics.t;
}

val replicate : Pimcomp.Isa.t -> batches:int -> Pimcomp.Isa.t
(** The materialised batched program; [Pimcomp.Verify.run]-clean if the
    input was.  The per-stream allocation trace and local-memory peaks
    are stripped (empty trace, zero peaks) — they describe one instance
    and would contradict the interleaved instruction stream; global
    traffic totals scale with [batches].  Raises [Invalid_argument] on
    [batches <= 0] or when the instruction count, tag space or global
    traffic would overflow [int]. *)

val run :
  ?parallelism:int -> Pimhw.Config.t -> Pimcomp.Isa.t -> batches:int -> result
(** Materialised path: [Engine.run] on [replicate], its metrics'
    throughput, latency and provenance covering [batches] instances. *)

val default_window : Pimcomp.Isa.t -> int
(** [pipeline_depth + 4]: one in-flight instance per pipeline stage plus
    slack — enough to keep the steady-state bottleneck saturated. *)

val run_stream :
  ?parallelism:int ->
  ?window:int ->
  ?detect:bool ->
  Pimhw.Config.t ->
  Pimcomp.Isa.t ->
  batches:int ->
  result * Engine.stream_stats
(** Streaming path: {!Engine.stream} on one arena.  [window] defaults to
    {!default_window}; [window = 0] disables the in-flight bound, in
    which case (with [detect:false]) the result is bit-identical to
    {!run} — the same holds for any [window >= batches].  A bounded
    window is O(window x n) memory for any [batches] and is what lets
    the period detector fire on real programs and close the tail
    analytically: integer counters and the makespan-derived timing
    floats exact, dynamic energies up to float-association order,
    per-core busy windows overestimated by at most about one window of
    steady intervals (DESIGN.md §3.9). *)

val pp : result Fmt.t
