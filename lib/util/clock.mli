(** The one clock for every duration that the compiler, the CLI and
    the benchmarks report. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and returns its result with the wall-clock
    seconds it took.  An exception from [f] propagates untimed. *)
