(* Compile+simulate evaluation of synthesiser candidates.  Pure,
   deterministic per job (compile is seeded, the engine is
   deterministic), so fanning over domains preserves the synth
   determinism contract; infeasibility is data, everything else
   (a compiler self-check failure included) is a Job_error. *)

let eval_one ~cache ~networks slot (job : Pimcomp.Synth.job) =
  let name, graph = networks.(job.Pimcomp.Synth.network) in
  try
    let served =
      Pimcomp.Compile.compile_program ~options:job.Pimcomp.Synth.options ?cache
        job.Pimcomp.Synth.config graph
    in
    let parallelism =
      job.Pimcomp.Synth.options.Pimcomp.Compile.parallelism
    in
    let metrics =
      Engine.run ~parallelism job.Pimcomp.Synth.config
        (Lazy.force served.Pimcomp.Compile.program)
    in
    if metrics.Metrics.deadlocked then
      Pimcomp.Synth.Eval_infeasible "simulation deadlocked"
    else
      let time_ns =
        match job.Pimcomp.Synth.options.Pimcomp.Compile.mode with
        | Pimcomp.Mode.Low_latency -> metrics.Metrics.latency_ns
        | Pimcomp.Mode.High_throughput ->
            1e9 /. metrics.Metrics.throughput_ips
      in
      Pimcomp.Synth.Eval_ok
        { time_ns; energy_pj = Metrics.total_pj metrics.Metrics.energy }
  with
  | Pimcomp.Chromosome.Infeasible reason ->
      Pimcomp.Synth.Eval_infeasible reason
  | Pimcomp.Memalloc.Doesnt_fit reason ->
      (* the design's scratchpad cannot hold a single request under the
         chosen discipline — a property of the point, not a bug *)
      Pimcomp.Synth.Eval_infeasible reason
  | exn ->
      let bt = Printexc.get_raw_backtrace () in
      Printexc.raise_with_backtrace
        (Pimcomp.Compile.Job_error { index = slot; graph = name; exn })
        bt

let evaluator ?pool ?cache ~networks () jobs =
  let indexed = Array.mapi (fun slot job -> (slot, job)) jobs in
  let f (slot, job) = eval_one ~cache ~networks slot job in
  match pool with
  | Some pool -> Pimutil.Domain_pool.Persistent.run pool f indexed
  | None -> Array.map f indexed
