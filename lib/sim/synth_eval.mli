(** Compile-and-simulate evaluator for {!Pimcomp.Synth}.

    Bridges the synthesiser (which lives below the simulator in the
    library stack and therefore takes its evaluator as a callback) to
    {!Pimcomp.Compile.compile_program} + {!Engine.run}.  Jobs fan out
    over a {!Pimutil.Domain_pool.Persistent} pool of warm worker domains
    when one is given; results are slot-ordered either way, so the
    synthesiser's frontier is bit-identical for any domain count. *)

val evaluator :
  ?pool:Pimutil.Domain_pool.Persistent.t ->
  ?cache:Pimcomp.Cache.t ->
  networks:(string * Nnir.Graph.t) array ->
  unit ->
  Pimcomp.Synth.job array ->
  Pimcomp.Synth.evaluation array
(** [evaluator ?pool ?cache ~networks ()] is the [eval] callback of
    {!Pimcomp.Synth.run}: it evaluates one batch of jobs.  Each job
    compiles its network for the candidate hardware (through the
    artifact [cache] when given, so identical candidates across
    generations — or across searches — hit stored programs) and
    simulates the program; the time objective is end-to-end latency in
    LL mode and the inverse throughput period in HT mode, the energy
    objective is {!Metrics.total_pj}.

    A compile rejected as infeasible ({!Pimcomp.Chromosome.Infeasible},
    or {!Pimcomp.Memalloc.Doesnt_fit} when one buffer exceeds the
    scratchpad) and a simulation that deadlocks yield [Eval_infeasible]
    — the search records the point and moves on.  Any other exception,
    {!Pimcomp.Compile.Self_check_failed} and [Invalid_argument]
    included, is a bug: it is re-raised as {!Pimcomp.Compile.Job_error}
    naming the job's slot and network. *)
