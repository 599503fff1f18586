(* Tests for the streaming batched engine: differential bit-identity
   against materialised replication across the zoo (both modes, several
   batch counts, unbounded and over-wide windows; the materialised runs
   checked against the reference interpreter), exactness of the
   period detector's fast-forward closure on dyadic-timing
   configurations and on a real network, window-slack invariance
   (qcheck), constant-memory bounds, overflow guards, and the replicate
   memory-strip contract. *)

let hw = Pimhw.Config.puma_like

(* puma_like with the one non-dyadic timing parameter (51.2 GB/s)
   replaced by a power of two: every event time is then a dyadic float,
   all the arithmetic is exact, and the detector's closure is provably
   bit-identical to simulating the tail (DESIGN.md §3.9). *)
let hw_dyadic = { hw with Pimhw.Config.global_memory_gbps = 64.0 }

let compile_zoo ~mode name =
  let g = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      mode }
  in
  (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program

let zoo_programs =
  lazy
    (List.concat_map
       (fun name ->
         List.map
           (fun mode -> (name, mode, compile_zoo ~mode name))
           Pimcomp.Mode.all)
       Nnir.Zoo.names)

(* strip instance provenance for comparisons where the two sides
   legitimately differ only in how many instances each actually
   simulated (detector fired vs ran to the end) *)
let strip (m : Pimsim.Metrics.t) =
  { m with Pimsim.Metrics.simulated_instances = 0; extrapolated_instances = 0 }

(* additionally zero the five event-order-summed dynamic energies: the
   detector's closure accumulates them in a different association order
   (simulated prefix + skip x steady quantum), so they match only to
   ~1e-12 relative, never bitwise *)
let strip_dyn (m : Pimsim.Metrics.t) =
  let m = strip m in
  {
    m with
    Pimsim.Metrics.energy =
      {
        m.Pimsim.Metrics.energy with
        Pimsim.Metrics.mvm_pj = 0.0;
        vec_pj = 0.0;
        local_mem_pj = 0.0;
        global_mem_pj = 0.0;
        noc_pj = 0.0;
      };
  }

let close rel a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= rel *. Float.max scale 1.0

let dyn_close rel (a : Pimsim.Metrics.t) (b : Pimsim.Metrics.t) =
  let ea = a.Pimsim.Metrics.energy and eb = b.Pimsim.Metrics.energy in
  close rel ea.Pimsim.Metrics.mvm_pj eb.Pimsim.Metrics.mvm_pj
  && close rel ea.Pimsim.Metrics.vec_pj eb.Pimsim.Metrics.vec_pj
  && close rel ea.Pimsim.Metrics.local_mem_pj eb.Pimsim.Metrics.local_mem_pj
  && close rel ea.Pimsim.Metrics.global_mem_pj eb.Pimsim.Metrics.global_mem_pj
  && close rel ea.Pimsim.Metrics.noc_pj eb.Pimsim.Metrics.noc_pj

(* --- streaming vs materialised, detector off: bit-identity ------------ *)

let test_zoo_differential () =
  List.iter
    (fun (name, mode, program) ->
      List.iter
        (fun batches ->
          let oracle = Pimsim.Batch.run ~parallelism:20 hw program ~batches in
          (* the materialised oracle runs the engine's own event loop, so
             hold it to the reference interpreter on the replicated
             program too *)
          if batches <= 2 then begin
            let reference =
              Pimsim.Engine_ref.run ~parallelism:20 hw
                (Pimsim.Batch.replicate program ~batches)
            in
            (* the reference sees one instance; the oracle reports the
               per-inference figures of [batches] *)
            let throughput_ips, latency_ns =
              Pimsim.Metrics.per_inference
                ~pipeline_depth:program.Pimcomp.Isa.pipeline_depth
                ~instances:batches reference.Pimsim.Metrics.makespan_ns
            in
            Alcotest.(check bool)
              (Fmt.str "%s %s N=%d: materialised bit-identical to Engine_ref"
                 name
                 (Pimcomp.Mode.to_string mode)
                 batches)
              true
              (oracle.Pimsim.Batch.metrics
              = {
                  reference with
                  Pimsim.Metrics.simulated_instances = batches;
                  throughput_ips;
                  latency_ns;
                })
          end;
          (* window 0 = unbounded, window >= batches = a bound that never
             binds: both must reproduce the materialised schedule
             bit-for-bit *)
          List.iter
            (fun window ->
              let streamed, stats =
                Pimsim.Batch.run_stream ~parallelism:20 ~window ~detect:false
                  hw program ~batches
              in
              let label =
                Fmt.str "%s %s N=%d w=%d" name
                  (Pimcomp.Mode.to_string mode)
                  batches window
              in
              Alcotest.(check bool)
                (label ^ ": streaming bit-identical to materialised")
                true
                (streamed = oracle);
              Alcotest.(check (option int))
                (label ^ ": detector off never fires")
                None stats.Pimsim.Engine.fired_at)
            [ 0; 8 ])
        [ 1; 2; 3; 8 ])
    (Lazy.force zoo_programs)

(* --- detector on vs off on real networks: counters exact, timing tight - *)

let test_zoo_detector_sanity () =
  List.iter
    (fun (name, mode) ->
      let program = compile_zoo ~mode name in
      let batches = 64 in
      let off, _ =
        Pimsim.Batch.run_stream ~parallelism:20 ~detect:false hw program
          ~batches
      in
      let streamed, stats =
        Pimsim.Batch.run_stream ~parallelism:20 hw program ~batches
      in
      let label = Fmt.str "%s %s" name (Pimcomp.Mode.to_string mode) in
      let mo = off.Pimsim.Batch.metrics in
      let ms = streamed.Pimsim.Batch.metrics in
      Alcotest.(check int)
        (label ^ ": executed exact") mo.Pimsim.Metrics.instrs_executed
        ms.Pimsim.Metrics.instrs_executed;
      Alcotest.(check int)
        (label ^ ": mvm windows exact") mo.Pimsim.Metrics.mvm_windows
        ms.Pimsim.Metrics.mvm_windows;
      Alcotest.(check int)
        (label ^ ": messages exact") mo.Pimsim.Metrics.messages
        ms.Pimsim.Metrics.messages;
      Alcotest.(check int)
        (label ^ ": flit-hops exact") mo.Pimsim.Metrics.flit_hops
        ms.Pimsim.Metrics.flit_hops;
      Alcotest.(check int)
        (label ^ ": load bytes exact") mo.Pimsim.Metrics.global_load_bytes
        ms.Pimsim.Metrics.global_load_bytes;
      Alcotest.(check int)
        (label ^ ": store bytes exact") mo.Pimsim.Metrics.global_store_bytes
        ms.Pimsim.Metrics.global_store_bytes;
      Alcotest.(check bool)
        (label ^ ": makespan within 1e-9 relative")
        true
        (close 1e-9 mo.Pimsim.Metrics.makespan_ns ms.Pimsim.Metrics.makespan_ns);
      Alcotest.(check bool)
        (label ^ ": dynamic energies within 1e-9 relative")
        true (dyn_close 1e-9 mo ms);
      (* per-core busy windows may be overestimated by up to about one
         window of steady intervals each (DESIGN.md §3.9) *)
      Alcotest.(check bool)
        (label ^ ": total energy within 5% relative")
        true
        (close 5e-2
           (Pimsim.Metrics.total_pj mo.Pimsim.Metrics.energy)
           (Pimsim.Metrics.total_pj ms.Pimsim.Metrics.energy));
      Alcotest.(check int)
        (label ^ ": provenance covers all instances")
        batches
        (stats.Pimsim.Engine.simulated_instances
        + stats.Pimsim.Engine.extrapolated_instances);
      Alcotest.(check int)
        (label ^ ": metrics provenance matches stats")
        stats.Pimsim.Engine.simulated_instances
        ms.Pimsim.Metrics.simulated_instances)
    [
      ("tiny", Pimcomp.Mode.High_throughput);
      ("tiny", Pimcomp.Mode.Low_latency);
      ("squeezenet", Pimcomp.Mode.High_throughput);
      ("resnet18", Pimcomp.Mode.High_throughput);
    ]

(* the acceptance-critical closure claim on a real network: with dyadic
   timing the detector fires on resnet18 and the closed makespan and
   steady interval are bit-identical to simulating every instance *)
let test_resnet_closure_exact () =
  let program = compile_zoo ~mode:Pimcomp.Mode.High_throughput "resnet18" in
  let batches = 64 in
  let off, _ =
    Pimsim.Batch.run_stream ~parallelism:20 ~detect:false hw_dyadic program
      ~batches
  in
  let on_, stats =
    Pimsim.Batch.run_stream ~parallelism:20 hw_dyadic program ~batches
  in
  Alcotest.(check bool)
    "detector fired" true
    (stats.Pimsim.Engine.fired_at <> None);
  Alcotest.(check bool)
    "a nontrivial tail was closed analytically" true
    (stats.Pimsim.Engine.extrapolated_instances > 0);
  Alcotest.(check (float 0.0))
    "closed makespan bit-identical"
    off.Pimsim.Batch.metrics.Pimsim.Metrics.makespan_ns
    on_.Pimsim.Batch.metrics.Pimsim.Metrics.makespan_ns;
  match stats.Pimsim.Engine.steady_interval_ns with
  | None -> Alcotest.fail "fired without an interval"
  | Some dt ->
      (* the detected interval is the exact steady retirement cadence,
         so total = total(sim prefix) + skipped x dt must hold exactly *)
      Alcotest.(check bool) "steady interval positive" true (dt > 0.0)

(* --- forced early period on dyadic timings: closure is bitwise exact -- *)

let mk_program ?(core_count = 2) ?(num_ags = 2) cores =
  {
    Pimcomp.Isa.graph_name = "micro";
    mode = Pimcomp.Mode.High_throughput;
    allocator = Pimcomp.Memalloc.Ag_reuse;
    core_count;
    cores;
    ag_core = Array.init num_ags (fun i -> i mod core_count);
    ag_xbars = Array.make num_ags 1;
    num_tags = 64;
    pipeline_depth = 1;
    memory =
      {
        Pimcomp.Isa.local_peak_bytes = Array.make core_count 0;
        local_resident_peak_bytes = Array.make core_count 0;
        spill_bytes = 0;
        global_load_bytes = 0;
        global_store_bytes = 0;
      };
    mem_trace = [||];
  }

let instr ?(deps = []) op = { Pimcomp.Isa.op; deps; node_id = 0 }

let micro_pipeline () =
  (* core 0: MVM -> SEND; core 1: RECV -> VEC -> STORE.  Exercises all
     resource classes (AG, VFU, bank, NoC rendezvous) so the steady
     state must repeat across every signature dimension. *)
  let mvm =
    instr
      (Pimcomp.Isa.Mvm
         { ag = 0; windows = 2; xbars = 1; input_bytes = 32; output_bytes = 32 })
  in
  let send =
    instr ~deps:[ 0 ] (Pimcomp.Isa.Send { dst = 1; bytes = 64; tag = 1 })
  in
  let recv = instr (Pimcomp.Isa.Recv { src = 0; bytes = 64; tag = 1 }) in
  let vec =
    instr ~deps:[ 0 ]
      (Pimcomp.Isa.Vec { kind = Pimcomp.Isa.Vadd; elements = 64 })
  in
  let store = instr ~deps:[ 1 ] (Pimcomp.Isa.Store { bytes = 256 }) in
  mk_program [| [| mvm; send |]; [| recv; vec; store |] |]

let micro_mvm_chain () =
  (* single core, two AGs, chained MVMs: pure issue-port + AG dynamics *)
  let mvm ag deps =
    instr ~deps
      (Pimcomp.Isa.Mvm
         { ag; windows = 1; xbars = 1; input_bytes = 16; output_bytes = 16 })
  in
  mk_program ~core_count:1 ~num_ags:2
    [| [| mvm 0 []; mvm 1 [ 0 ]; mvm 0 [ 1 ] |] |]

let test_dyadic_closure_exact () =
  List.iter
    (fun (label, program, parallelism) ->
      let batches = 64 in
      let oracle = Pimsim.Batch.run ~parallelism hw_dyadic program ~batches in
      let unbounded, unb_stats =
        Pimsim.Batch.run_stream ~parallelism ~window:0 ~detect:false hw_dyadic
          program ~batches
      in
      let off, off_stats =
        Pimsim.Batch.run_stream ~parallelism ~detect:false hw_dyadic program
          ~batches
      in
      let on_, on_stats =
        Pimsim.Batch.run_stream ~parallelism hw_dyadic program ~batches
      in
      Alcotest.(check bool)
        (label ^ ": unbounded stream bit-identical to materialised")
        true
        (unbounded = oracle);
      Alcotest.(check (option int))
        (label ^ ": detector needs a bounded window")
        None unb_stats.Pimsim.Engine.fired_at;
      Alcotest.(check bool)
        (label ^ ": detector fired")
        true
        (on_stats.Pimsim.Engine.fired_at <> None);
      Alcotest.(check bool)
        (label ^ ": closure bit-identical modulo dynamic-energy association")
        true
        (strip_dyn on_.Pimsim.Batch.metrics
        = strip_dyn off.Pimsim.Batch.metrics);
      Alcotest.(check bool)
        (label ^ ": dynamic energies within 1e-9 relative")
        true
        (dyn_close 1e-9 on_.Pimsim.Batch.metrics off.Pimsim.Batch.metrics);
      Alcotest.(check bool)
        (label ^ ": extrapolated a nontrivial tail")
        true
        (on_stats.Pimsim.Engine.extrapolated_instances > 0);
      (match on_stats.Pimsim.Engine.steady_interval_ns with
      | None -> Alcotest.fail (label ^ ": fired without an interval")
      | Some dt ->
          Alcotest.(check bool)
            (label ^ ": steady interval positive")
            true (dt > 0.0));
      Alcotest.(check int)
        (label ^ ": detect-off simulates everything")
        batches off_stats.Pimsim.Engine.simulated_instances)
    [
      ("pipeline", micro_pipeline (), 20);
      ("mvm-chain", micro_mvm_chain (), 20);
      ("pipeline P=1", micro_pipeline (), 1);
    ]

(* --- qcheck: window slack beyond the natural spread never matters ----- *)

let tiny_ht =
  lazy
    (let g = Nnir.Zoo.tiny () in
     let options =
       { Pimcomp.Compile.default_options with
         strategy = Pimcomp.Compile.Puma_like;
         mode = Pimcomp.Mode.High_throughput }
     in
     (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program)

let window_invariance =
  QCheck.Test.make
    ~name:"windows >= batches are all equivalent to unbounded" ~count:20
    QCheck.(triple (int_range 0 9) (int_range 0 9) (int_range 1 12))
    (fun (s1, s2, batches) ->
      (* v1 qcheck shrinks int_range toward 0, escaping the range *)
      QCheck.assume (s1 >= 0 && s2 >= 0 && batches >= 1);
      let program = Lazy.force tiny_ht in
      let run window =
        fst
          (Pimsim.Batch.run_stream ~parallelism:20 ~window ~detect:false hw
             program ~batches)
      in
      let unbounded = run 0 in
      (* an in-flight bound of [batches] (or more) can never bind, so
         the schedule must collapse to the unbounded one bit-for-bit *)
      run (batches + s1) = unbounded && run (batches + s2) = unbounded)

(* --- detector on == off for a forced early period (qcheck over seeds) - *)

let detector_equals_off_on_dyadic =
  QCheck.Test.make
    ~name:"detector-on == detector-off on dyadic-timing micro programs"
    ~count:15
    QCheck.(pair (int_range 2 5) (int_range 24 48))
    (fun (windows, batches) ->
      QCheck.assume (windows >= 1 && batches >= 24);
      let mvm =
        instr
          (Pimcomp.Isa.Mvm
             { ag = 0; windows; xbars = 1; input_bytes = 8; output_bytes = 8 })
      in
      let vec =
        instr ~deps:[ 0 ]
          (Pimcomp.Isa.Vec { kind = Pimcomp.Isa.Vadd; elements = 32 })
      in
      let program = mk_program ~core_count:1 ~num_ags:1 [| [| mvm; vec |] |] in
      let off, _ =
        Pimsim.Batch.run_stream ~parallelism:20 ~detect:false hw_dyadic program
          ~batches
      in
      let on_, stats =
        Pimsim.Batch.run_stream ~parallelism:20 hw_dyadic program ~batches
      in
      stats.Pimsim.Engine.fired_at <> None
      && strip_dyn on_.Pimsim.Batch.metrics = strip_dyn off.Pimsim.Batch.metrics
      && dyn_close 1e-9 on_.Pimsim.Batch.metrics off.Pimsim.Batch.metrics)

(* --- overflow guards -------------------------------------------------- *)

let test_overflow_guards () =
  let program = micro_pipeline () in
  (match Pimsim.Batch.replicate program ~batches:(max_int / 2) with
  | _ -> Alcotest.fail "replicate must reject overflowing batch counts"
  | exception Invalid_argument _ -> ());
  (match Pimsim.Batch.replicate program ~batches:0 with
  | _ -> Alcotest.fail "replicate must reject batches <= 0"
  | exception Invalid_argument _ -> ());
  let arena = Pimsim.Engine.arena ~parallelism:20 hw program in
  (match Pimsim.Engine.stream arena ~batches:(max_int / 2) with
  | _ -> Alcotest.fail "stream must reject overflowing batch counts"
  | exception Invalid_argument _ -> ());
  (match Pimsim.Engine.stream arena ~batches:(-1) with
  | _ -> Alcotest.fail "stream must reject batches <= 0"
  | exception Invalid_argument _ -> ());
  match Pimsim.Engine.stream arena ~window:(-1) ~batches:2 with
  | _ -> Alcotest.fail "stream must reject negative windows"
  | exception Invalid_argument _ -> ()

(* --- replicate strips the per-stream memory story --------------------- *)

let test_replicate_strips_memory () =
  let program = compile_zoo ~mode:Pimcomp.Mode.High_throughput "squeezenet" in
  let b = Pimsim.Batch.replicate program ~batches:3 in
  Alcotest.(check int) "trace stripped" 0 (Array.length b.Pimcomp.Isa.mem_trace);
  Alcotest.(check bool)
    "demand peaks zeroed" true
    (Array.for_all (( = ) 0) b.Pimcomp.Isa.memory.Pimcomp.Isa.local_peak_bytes);
  Alcotest.(check bool)
    "resident peaks zeroed" true
    (Array.for_all (( = ) 0)
       b.Pimcomp.Isa.memory.Pimcomp.Isa.local_resident_peak_bytes);
  Alcotest.(check int)
    "spill zeroed" 0 b.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes;
  Alcotest.(check int)
    "load bytes scaled"
    (3 * program.Pimcomp.Isa.memory.Pimcomp.Isa.global_load_bytes)
    b.Pimcomp.Isa.memory.Pimcomp.Isa.global_load_bytes;
  Alcotest.(check int)
    "store bytes scaled"
    (3 * program.Pimcomp.Isa.memory.Pimcomp.Isa.global_store_bytes)
    b.Pimcomp.Isa.memory.Pimcomp.Isa.global_store_bytes;
  Alcotest.(check int)
    "stripped program verifies" 0
    (List.length (Pimcomp.Verify.run ~config:hw b))

(* --- constant-memory claim: bounded window => state independent of N -- *)

let test_window_stays_bounded () =
  let program = Lazy.force tiny_ht in
  let stats batches =
    snd
      (Pimsim.Batch.run_stream ~parallelism:20 ~detect:false hw program
         ~batches)
  in
  let s8 = stats 8 and s64 = stats 64 and s256 = stats 256 in
  Alcotest.(check int)
    "slot pool independent of batch count (8 vs 64)"
    s8.Pimsim.Engine.peak_slots s64.Pimsim.Engine.peak_slots;
  Alcotest.(check int)
    "slot pool independent of batch count (64 vs 256)"
    s64.Pimsim.Engine.peak_slots s256.Pimsim.Engine.peak_slots;
  Alcotest.(check int)
    "state words independent of batch count (8 vs 256)"
    s8.Pimsim.Engine.state_words s256.Pimsim.Engine.state_words;
  Alcotest.(check bool)
    "slot pool bounded by the window" true
    (s256.Pimsim.Engine.peak_slots
    <= Pimsim.Batch.default_window program)

(* --- per-inference figures over a stream ----------------------------- *)

(* The metrics of N instances carry the batch's throughput, and the
   per-inference latency does not grow with N. *)
let test_per_inference () =
  List.iter
    (fun name ->
      let program = compile_zoo ~mode:Pimcomp.Mode.High_throughput name in
      List.iter
        (fun window ->
          let run batches =
            let r, _ =
              Pimsim.Batch.run_stream ~parallelism:20 ~window hw program
                ~batches
            in
            Alcotest.(check int64)
              (Fmt.str "%s w=%d N=%d: metrics throughput" name window batches)
              (Int64.bits_of_float r.Pimsim.Batch.throughput_ips)
              (Int64.bits_of_float
                 r.Pimsim.Batch.metrics.Pimsim.Metrics.throughput_ips);
            r.Pimsim.Batch.metrics.Pimsim.Metrics.latency_ns
          in
          let l8 = run 8 and l64 = run 64 in
          Alcotest.(check bool)
            (Fmt.str "%s w=%d: latency at N=64 (%g) <= at N=8 (%g)" name
               window l64 l8)
            true (l64 <= l8))
        [ 0; Pimsim.Batch.default_window program ])
    [ "tiny"; "lenet" ]

let () =
  Alcotest.run "stream"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo: streaming == materialised (detect off)"
            `Slow test_zoo_differential;
          Alcotest.test_case "zoo: detector-on counters exact, timing tight"
            `Slow test_zoo_detector_sanity;
        ] );
      ( "detector",
        [
          Alcotest.test_case "dyadic closure bitwise exact" `Quick
            test_dyadic_closure_exact;
          Alcotest.test_case "resnet18 closure exact (dyadic)" `Slow
            test_resnet_closure_exact;
          QCheck_alcotest.to_alcotest detector_equals_off_on_dyadic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest window_invariance;
          Alcotest.test_case "window slots bounded" `Quick
            test_window_stays_bounded;
          Alcotest.test_case "per-inference throughput and latency" `Quick
            test_per_inference;
        ] );
      ( "guards",
        [
          Alcotest.test_case "overflow guards" `Quick test_overflow_guards;
          Alcotest.test_case "replicate strips memory" `Quick
            test_replicate_strips_memory;
        ] );
    ]
