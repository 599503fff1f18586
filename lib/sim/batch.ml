(* Batched simulation: [batches] back-to-back inferences of one
   compiled stream.  Crossbars (AG ids) are shared across instances —
   the weights are the same physical arrays — so structural conflicts
   serialise exactly where the hardware would, while independent
   instances overlap freely.

   Two execution paths, asserted bit-identical differentially; both run
   the engine's one event loop:

   - [replicate] + [run]: materialise the whole program x batches
     (O(n x batches) instructions, tags and heap events) and simulate
     it as one instance.  Kept as the oracle for differential testing;
     the tests also hold the replicated program to {!Engine_ref}, so the
     multi-instance path stays checked against an independent
     interpreter.
   - [run_stream]: {!Engine.stream} pushes instances through a recycled
     window of in-flight slots — O(window x n) memory for any batch
     count — and may close the tail analytically once the steady-state
     period detector fires.

   This validates the steady-state throughput read on single-stream HT
   simulations (throughput ~ 1/makespan): with the pipeline full, the
   marginal cost of one more inference is one steady-state interval. *)

module Isa = Pimcomp.Isa

let checked_mul a b what =
  if a <> 0 && b > max_int / a then
    invalid_arg (Fmt.str "Batch.replicate: %s (%d x %d) overflows" what a b)
  else a * b

let replicate (program : Isa.t) ~batches =
  if batches <= 0 then invalid_arg "Batch.replicate: batches <= 0";
  let n_total = Isa.num_instrs program in
  ignore (checked_mul n_total batches "instruction count");
  ignore (checked_mul program.Isa.num_tags batches "rendezvous tags");
  let cores =
    Array.map
      (fun (instrs : Isa.instr array) ->
        let n = Array.length instrs in
        Array.init (n * batches) (fun i ->
            let instance = i / n and idx = i mod n in
            let base = instance * n in
            let instr = instrs.(idx) in
            (* A core executes its static sequence once per inference, so
               operation [idx] of inference k follows operation [idx] of
               inference k-1 — this is what pipelines instances cleanly
               instead of letting them race for resources. *)
            let pipeline_dep =
              if instance = 0 then [] else [ ((instance - 1) * n) + idx ]
            in
            {
              instr with
              Isa.deps =
                pipeline_dep
                @ List.map (fun d -> d + base) instr.Isa.deps;
              op =
                (match instr.Isa.op with
                | Isa.Send s ->
                    Isa.Send
                      { s with tag = s.tag + (instance * program.Isa.num_tags) }
                | Isa.Recv r ->
                    Isa.Recv
                      { r with tag = r.tag + (instance * program.Isa.num_tags) }
                | op -> op);
            }))
      program.Isa.cores
  in
  (* The allocation trace and the local-memory peaks describe ONE
     instance's schedule; the replicated instruction stream interleaves
     [batches] instances, so carrying them over verbatim would make
     [Verify]'s memory replay and the lifetime planner disagree with the
     program they sit next to.  Strip the trace and zero the per-stream
     peaks — a batched program's memory story is explicitly "not
     tracked"; only the global traffic totals scale meaningfully. *)
  let zeros = Array.make program.Isa.core_count 0 in
  {
    program with
    Isa.cores;
    num_tags = program.Isa.num_tags * batches;
    memory =
      {
        Isa.local_peak_bytes = zeros;
        local_resident_peak_bytes = Array.copy zeros;
        spill_bytes = 0;
        global_load_bytes =
          checked_mul program.Isa.memory.Isa.global_load_bytes batches
            "global load bytes";
        global_store_bytes =
          checked_mul program.Isa.memory.Isa.global_store_bytes batches
            "global store bytes";
      };
    mem_trace = [||];
  }

type result = {
  batches : int;
  total_ns : float;
  single_ns : float;          (* single-inference makespan *)
  steady_interval_ns : float; (* marginal time per extra inference *)
  throughput_ips : float;     (* [metrics.throughput_ips] *)
  metrics : Metrics.t;        (* of the batched run *)
}

let result_of ~batches ~(single : Metrics.t) (batched : Metrics.t) =
  let total = batched.Metrics.makespan_ns in
  let single_ns = single.Metrics.makespan_ns in
  let steady =
    if batches > 1 then
      (total -. single_ns) /. float_of_int (batches - 1)
    else total
  in
  {
    batches;
    total_ns = total;
    single_ns;
    steady_interval_ns = steady;
    throughput_ips = batched.Metrics.throughput_ips;
    metrics = batched;
  }

let run ?parallelism hw (program : Isa.t) ~batches =
  let single = Engine.run ?parallelism hw program in
  let batched = Engine.run ?parallelism hw (replicate program ~batches) in
  (* the materialised engine sees one instance; cover all [batches] *)
  let throughput_ips, latency_ns =
    Metrics.per_inference ~pipeline_depth:program.Isa.pipeline_depth
      ~instances:batches batched.Metrics.makespan_ns
  in
  result_of ~batches ~single
    { batched with Metrics.throughput_ips; latency_ns;
      simulated_instances = batches }

(* Enough in-flight instances to keep every pipeline stage busy (one
   instance per stage) plus slack for scheduling jitter: the streaming
   window ISSUE contract of "pipeline_depth + slack resident at once". *)
let default_window (program : Isa.t) = program.Isa.pipeline_depth + 4

let run_stream ?parallelism ?window ?detect hw (program : Isa.t) ~batches =
  let window =
    match window with Some w -> w | None -> default_window program
  in
  let arena = Engine.arena ?parallelism hw program in
  let single = Engine.exec arena in
  let batched, stats = Engine.stream ~window ?detect arena ~batches in
  (result_of ~batches ~single batched, stats)

let pp ppf r =
  Fmt.pf ppf
    "batch of %d: total %.1f us (first %.1f us, then %.1f us per \
     inference), throughput %.0f inf/s"
    r.batches (r.total_ns /. 1e3) (r.single_ns /. 1e3)
    (r.steady_interval_ns /. 1e3)
    r.throughput_ips
