(* Tests for the discrete-event engine: hand-built micro-programs with
   exactly predictable timings, structural-conflict serialisation,
   rendezvous latency, deadlock detection, determinism and energy
   accounting. *)

let hw = Pimhw.Config.puma_like

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

let run ?(parallelism = 20) p = Pimsim.Engine.run ~parallelism hw p

let test_single_mvm_latency () =
  let p =
    mk_program ~core_count:1 ~num_ags:1
      [| [| instr (Pimcomp.Isa.Mvm
                     { ag = 0; windows = 1; xbars = 1; input_bytes = 0;
                       output_bytes = 0 }) |] |]
  in
  let m = run p in
  Alcotest.(check (float 1e-6)) "one MVM takes T_MVM" 100.0
    m.Pimsim.Metrics.makespan_ns;
  Alcotest.(check bool) "not deadlocked" false m.Pimsim.Metrics.deadlocked

let test_structural_conflict () =
  (* two independent MVMs on the SAME AG serialise; on different AGs
     they overlap *)
  let mvm ag =
    instr (Pimcomp.Isa.Mvm
             { ag; windows = 1; xbars = 1; input_bytes = 0; output_bytes = 0 })
  in
  let same = mk_program ~core_count:1 ~num_ags:1 [| [| mvm 0; mvm 0 |] |] in
  let diff = mk_program ~core_count:1 ~num_ags:2 [| [| mvm 0; mvm 1 |] |] in
  let t_same = (run same).Pimsim.Metrics.makespan_ns in
  let t_diff = (run ~parallelism:20 diff).Pimsim.Metrics.makespan_ns in
  Alcotest.(check (float 1e-6)) "same AG serialises" 200.0 t_same;
  (* different AGs: second issues T_interval = 5 ns later *)
  Alcotest.(check (float 1e-6)) "different AGs overlap" 105.0 t_diff

let test_issue_bandwidth () =
  (* at parallelism 1 the issue interval is T_MVM, so even different AGs
     serialise *)
  let mvm ag =
    instr (Pimcomp.Isa.Mvm
             { ag; windows = 1; xbars = 1; input_bytes = 0; output_bytes = 0 })
  in
  let p = mk_program ~core_count:1 ~num_ags:2 [| [| mvm 0; mvm 1 |] |] in
  let m = run ~parallelism:1 p in
  Alcotest.(check (float 1e-6)) "P=1 serialises issues" 200.0
    m.Pimsim.Metrics.makespan_ns

let test_dependency_ordering () =
  (* dependent VECs on one core execute back to back *)
  let v = instr (Pimcomp.Isa.Vec { kind = Pimcomp.Isa.Vadd; elements = 48 }) in
  let v2 =
    instr ~deps:[ 0 ]
      (Pimcomp.Isa.Vec { kind = Pimcomp.Isa.Vadd; elements = 48 })
  in
  let p = mk_program ~core_count:1 ~num_ags:1 [| [| v; v2 |] |] in
  let m = run p in
  Alcotest.(check (float 1e-6)) "two chained vecs" 2.0
    m.Pimsim.Metrics.makespan_ns

let test_rendezvous_latency () =
  let send =
    instr (Pimcomp.Isa.Send { dst = 1; bytes = 64; tag = 1 })
  in
  let recv =
    instr (Pimcomp.Isa.Recv { src = 0; bytes = 64; tag = 1 })
  in
  let p = mk_program [| [| send |]; [| recv |] |] in
  let m = run p in
  (* mesh of 2 cores: 1 hop = 1.5 ns + 8 flits * 1 ns = 9.5 ns *)
  Alcotest.(check (float 1e-6)) "message latency" 9.5
    m.Pimsim.Metrics.makespan_ns;
  Alcotest.(check int) "one message" 1 m.Pimsim.Metrics.messages

let test_recv_waits_for_send_deps () =
  (* the send is gated by a slow MVM; the recv must observe that *)
  let mvm =
    instr (Pimcomp.Isa.Mvm
             { ag = 0; windows = 3; xbars = 1; input_bytes = 0;
               output_bytes = 0 })
  in
  let send =
    instr ~deps:[ 0 ] (Pimcomp.Isa.Send { dst = 1; bytes = 8; tag = 1 })
  in
  let recv = instr (Pimcomp.Isa.Recv { src = 0; bytes = 8; tag = 1 }) in
  let p = mk_program [| [| mvm; send |]; [| recv |] |] in
  let m = run p in
  Alcotest.(check bool) "recv after mvm + flight" true
    (m.Pimsim.Metrics.makespan_ns >= 300.0)

let test_deadlock_detection () =
  (* a recv whose send never exists *)
  let recv = instr (Pimcomp.Isa.Recv { src = 0; bytes = 8; tag = 42 }) in
  let p = mk_program [| [||]; [| recv |] |] in
  let m = run p in
  Alcotest.(check bool) "deadlock reported" true m.Pimsim.Metrics.deadlocked;
  Alcotest.(check int) "nothing executed on core 1" 0
    m.Pimsim.Metrics.instrs_executed

let test_global_memory_bandwidth () =
  (* streaming dominates for large transfers: 51200 B at 51.2 GB/s =
     1000 ns plus the 30 ns access latency *)
  let p =
    mk_program ~core_count:1
      [| [| instr (Pimcomp.Isa.Load { bytes = 51200 }) |] |]
  in
  let m = run p in
  Alcotest.(check (float 1e-3)) "bandwidth-limited load" 1030.0
    m.Pimsim.Metrics.makespan_ns;
  Alcotest.(check int) "bytes counted" 51200 m.Pimsim.Metrics.global_load_bytes

let test_bank_conflicts () =
  (* two cores on the same bank serialise; on different banks they
     overlap.  Cores c and c+8 share a bank (8 banks). *)
  let load = instr (Pimcomp.Isa.Load { bytes = 51200 }) in
  let same_bank = Array.make 9 [||] in
  same_bank.(0) <- [| load |];
  same_bank.(8) <- [| load |];
  let p_same = mk_program ~core_count:9 same_bank in
  let diff_bank = Array.make 9 [||] in
  diff_bank.(0) <- [| load |];
  diff_bank.(1) <- [| load |];
  let p_diff = mk_program ~core_count:9 diff_bank in
  let t_same = (run p_same).Pimsim.Metrics.makespan_ns in
  let t_diff = (run p_diff).Pimsim.Metrics.makespan_ns in
  Alcotest.(check (float 1e-3)) "same bank serialises" 2030.0 t_same;
  Alcotest.(check (float 1e-3)) "different banks overlap" 1030.0 t_diff

let test_energy_accounting () =
  let mvm =
    instr (Pimcomp.Isa.Mvm
             { ag = 0; windows = 2; xbars = 3; input_bytes = 10;
               output_bytes = 10 })
  in
  let p = mk_program ~core_count:1 ~num_ags:1 [| [| mvm |] |] in
  let m = run p in
  let em = Pimhw.Energy_model.create hw in
  Alcotest.(check (float 1e-6)) "MVM dynamic energy"
    (2.0 *. 3.0 *. em.Pimhw.Energy_model.mvm_energy_pj)
    m.Pimsim.Metrics.energy.Pimsim.Metrics.mvm_pj;
  Alcotest.(check bool) "static energy positive" true
    (Pimsim.Metrics.static_pj m.Pimsim.Metrics.energy > 0.0)

let test_determinism () =
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params;
      core_count = Some 8 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let m1 = run r.Pimcomp.Compile.program in
  let m2 = run r.Pimcomp.Compile.program in
  Alcotest.(check (float 1e-9)) "identical makespans"
    m1.Pimsim.Metrics.makespan_ns m2.Pimsim.Metrics.makespan_ns;
  Alcotest.(check (float 1e-9)) "identical energy"
    (Pimsim.Metrics.total_pj m1.Pimsim.Metrics.energy)
    (Pimsim.Metrics.total_pj m2.Pimsim.Metrics.energy)

(* Any well-formed random schedule terminates without deadlock and
   respects the dependency ordering in its finish times. *)
let random_programs_terminate =
  QCheck.Test.make ~name:"random compiled programs terminate" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Nnir.Zoo.tiny () in
      let table = Pimcomp.Partition.of_graph hw g in
      let rng = Pimcomp.Rng.create ~seed in
      let chrom =
        Pimcomp.Chromosome.random_initial rng table ~core_count:6
          ~max_node_num_in_core:8 ~extra_replica_attempts:3 ()
      in
      let layout = Pimcomp.Layout.of_chromosome chrom in
      let ht = Pimcomp.Schedule_ht.schedule layout in
      let ll = Pimcomp.Schedule_ll.schedule layout in
      let m1 = run ht and m2 = run ll in
      (not m1.Pimsim.Metrics.deadlocked) && not m2.Pimsim.Metrics.deadlocked)

(* --- failure injection: corrupted programs must be caught by the
   checker or surface as a deadlock, never a crash or a hang ---------- *)

let compiled_ll_program () =
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count = Some 8;
      mode = Pimcomp.Mode.Low_latency }
  in
  (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program

let drop_instr (p : Pimcomp.Isa.t) ~core ~index =
  (* replace an instruction with a 0-element VEC, stranding whatever
     rendezvous or dependency it carried *)
  {
    p with
    Pimcomp.Isa.cores =
      Array.mapi
        (fun c instrs ->
          if c <> core then instrs
          else
            Array.mapi
              (fun i (instr : Pimcomp.Isa.instr) ->
                if i <> index then instr
                else
                  {
                    instr with
                    Pimcomp.Isa.op =
                      Pimcomp.Isa.Vec { kind = Pimcomp.Isa.Vmove; elements = 0 };
                  })
              instrs)
        p.Pimcomp.Isa.cores;
  }

let injection_never_crashes =
  QCheck.Test.make ~name:"corruption is caught or deadlocks, never crashes"
    ~count:40
    QCheck.(pair (int_range 0 7) (int_range 0 10_000))
    (fun (core, raw_index) ->
      let p = compiled_ll_program () in
      let n = Array.length p.Pimcomp.Isa.cores.(core) in
      QCheck.assume (n > 0);
      let index = raw_index mod n in
      let corrupted = drop_instr p ~core ~index in
      match Pimcomp.Verify.run ~config:hw corrupted with
      | _ :: _ -> true (* verifier caught it *)
      | [] ->
          (* still structurally valid (the dropped op carried no
             rendezvous): the run must complete or flag a deadlock *)
          let m = run corrupted in
          m.Pimsim.Metrics.instrs_executed <= m.Pimsim.Metrics.instrs_total)

let test_dropped_send_deadlocks () =
  let p = compiled_ll_program () in
  (* find a SEND and neutralise it *)
  let found = ref None in
  Array.iteri
    (fun core instrs ->
      Array.iteri
        (fun idx (i : Pimcomp.Isa.instr) ->
          match (i.Pimcomp.Isa.op, !found) with
          | Pimcomp.Isa.Send _, None -> found := Some (core, idx)
          | _ -> ())
        instrs)
    p.Pimcomp.Isa.cores;
  match !found with
  | None -> () (* no messages in this mapping; nothing to test *)
  | Some (core, index) ->
      let corrupted = drop_instr p ~core ~index in
      Alcotest.(check bool) "verifier flags unmatched recv" true
        (List.exists
           (fun (v : Pimcomp.Verify.violation) ->
             v.Pimcomp.Verify.kind = Pimcomp.Verify.Unmatched_recv)
           (Pimcomp.Verify.run ~config:hw corrupted));
      let m = run corrupted in
      Alcotest.(check bool) "simulator deadlocks instead of hanging" true
        m.Pimsim.Metrics.deadlocked

let test_batch_replication () =
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count = Some 8 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let program = r.Pimcomp.Compile.program in
  let doubled = Pimsim.Batch.replicate program ~batches:3 in
  Alcotest.(check int) "replicated program verifies" 0
    (List.length (Pimcomp.Verify.run ~config:hw doubled));
  Alcotest.(check int) "3x instructions"
    (3 * Pimcomp.Isa.num_instrs program)
    (Pimcomp.Isa.num_instrs doubled)

let test_batch_steady_state () =
  (* the marginal cost of an extra HT inference must be between the
     theoretical steady-state interval and the full single-inference
     makespan, and batching must beat running inferences back-to-back
     serially *)
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count = Some 8 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let b = Pimsim.Batch.run ~parallelism:20 hw r.Pimcomp.Compile.program ~batches:4 in
  Alcotest.(check bool) "batched run completes" false
    b.Pimsim.Batch.metrics.Pimsim.Metrics.deadlocked;
  Alcotest.(check bool) "steady interval <= single makespan" true
    (b.Pimsim.Batch.steady_interval_ns
    <= b.Pimsim.Batch.single_ns +. 1e-6);
  Alcotest.(check bool) "total < serial execution" true
    (b.Pimsim.Batch.total_ns < 4.0 *. b.Pimsim.Batch.single_ns);
  Alcotest.(check bool) "steady interval positive" true
    (b.Pimsim.Batch.steady_interval_ns > 0.0)

let test_duplicate_send_rejected () =
  (* two SENDs on the same rendezvous tag: the dense tag table must
     refuse the second injection instead of silently overwriting the
     first message's arrival time *)
  let send = instr (Pimcomp.Isa.Send { dst = 1; bytes = 8; tag = 1 }) in
  let recv = instr (Pimcomp.Isa.Recv { src = 0; bytes = 8; tag = 1 }) in
  let p = mk_program [| [| send; send |]; [| recv |] |] in
  match run p with
  | _ -> Alcotest.fail "duplicate SEND on one tag must be rejected"
  | exception Invalid_argument _ -> ()

(* --- differential: flat-arena Engine vs the reference interpreter ----- *)

let compile_puma ?core_count ~mode g =
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count;
      mode }
  in
  (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program

let compile_zoo ~mode name =
  compile_puma ~mode
    (Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name)

(* Every zoo network compiled PUMA-like at its minimum input size, in
   both modes — shared between the batch and differential suites. *)
let zoo_programs =
  lazy
    (List.concat_map
       (fun name ->
         List.map
           (fun mode -> (name, mode, compile_zoo ~mode name))
           Pimcomp.Mode.all)
       Nnir.Zoo.names)

let collect_events run_fn =
  let events = ref [] in
  let on_schedule ~core ~index ~start ~finish =
    events := (core, index, start, finish) :: !events
  in
  let m = run_fn ~on_schedule in
  (* the engines may schedule same-instant events in different internal
     orders; the set of (core, index, start, finish) windows is the
     observable contract, so compare order-insensitively *)
  (m, List.sort compare !events)

(* Also checks that runs on one arena leave it as they found it:
   [Engine.exec] on an arena that has already run an [exec], and then a
   [stream], returns the metrics of a fresh [Engine.run]. *)
let engines_agree ?(parallelisms = [ 1; 7; 20 ]) program =
  List.for_all
    (fun parallelism ->
      let m_new, ev_new =
        collect_events (fun ~on_schedule ->
            Pimsim.Engine.run ~parallelism ~on_schedule hw program)
      in
      let m_ref, ev_ref =
        collect_events (fun ~on_schedule ->
            Pimsim.Engine_ref.run ~parallelism ~on_schedule hw program)
      in
      let arena = Pimsim.Engine.arena ~parallelism hw program in
      ignore (Pimsim.Engine.exec arena);
      let after_exec = Pimsim.Engine.exec arena in
      ignore (Pimsim.Engine.stream arena ~batches:2);
      let after_stream = Pimsim.Engine.exec arena in
      m_new = m_ref && ev_new = ev_ref && after_exec = m_new
      && after_stream = m_new)
    parallelisms

let test_differential_zoo () =
  List.iter
    (fun (name, mode, program) ->
      Alcotest.(check bool)
        (Fmt.str "%s %s: engines bit-identical" name
           (Pimcomp.Mode.to_string mode))
        true (engines_agree program))
    (Lazy.force zoo_programs);
  (* tiny at its native size, mapped onto an 8-core machine *)
  List.iter
    (fun mode ->
      let program = compile_puma ~core_count:8 ~mode (Nnir.Zoo.tiny ()) in
      Alcotest.(check bool)
        (Fmt.str "tiny on 8 cores %s: engines bit-identical"
           (Pimcomp.Mode.to_string mode))
        true
        (engines_agree ~parallelisms:[ 4; 20 ] program))
    Pimcomp.Mode.all

let random_programs_differential =
  QCheck.Test.make
    ~name:"random programs: engines bit-identical (metrics + events)"
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Nnir.Zoo.tiny () in
      let table = Pimcomp.Partition.of_graph hw g in
      let rng = Pimcomp.Rng.create ~seed in
      let chrom =
        Pimcomp.Chromosome.random_initial rng table ~core_count:6
          ~max_node_num_in_core:8 ~extra_replica_attempts:3 ()
      in
      let layout = Pimcomp.Layout.of_chromosome chrom in
      List.for_all engines_agree
        [
          Pimcomp.Schedule_ht.schedule layout;
          Pimcomp.Schedule_ll.schedule layout;
        ])

(* Each run allocates its own state, so two domains may run one arena at
   once and get what the same runs give one after the other.  Each job
   repeats its run so that the two domains overlap: on an arena that
   holds run state, the overlapping runs corrupt each other's queues. *)
let test_arena_shared_across_domains () =
  let program = compile_zoo ~mode:Pimcomp.Mode.Low_latency "resnet18" in
  let arena = Pimsim.Engine.arena ~parallelism:20 hw program in
  let run = function
    | `Exec -> (Pimsim.Engine.exec arena, None)
    | `Stream ->
        let m, stats = Pimsim.Engine.stream arena ~batches:2 in
        (m, Some stats)
  in
  let repeat job = List.init 3 (fun _ -> run job) in
  List.iter
    (fun (label, jobs) ->
      let sequential = Array.map repeat jobs in
      Alcotest.(check bool)
        (label ^ " on two domains equal the sequential runs")
        true
        (Pimutil.Domain_pool.map ~domains:2 repeat jobs = sequential))
    [
      ("exec, exec", [| `Exec; `Exec |]);
      ("exec, stream", [| `Exec; `Stream |]);
    ]

let test_batch_zoo_coverage () =
  List.iter
    (fun (name, mode, program) ->
      let label = Fmt.str "%s %s" name (Pimcomp.Mode.to_string mode) in
      let b = Pimsim.Batch.replicate program ~batches:2 in
      Alcotest.(check int)
        (label ^ ": replicated program verifies")
        0
        (List.length (Pimcomp.Verify.run ~config:hw b));
      let m_new = Pimsim.Engine.run ~parallelism:20 hw b in
      let m_ref = Pimsim.Engine_ref.run ~parallelism:20 hw b in
      Alcotest.(check bool)
        (label ^ ": batched metrics identical across engines")
        true (m_new = m_ref))
    (Lazy.force zoo_programs)

let test_trace_complete_and_ordered () =
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params;
      core_count = Some 8;
      mode = Pimcomp.Mode.Low_latency }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let program = r.Pimcomp.Compile.program in
  let metrics, trace = Pimsim.Trace.run ~parallelism:20 hw program in
  Alcotest.(check int) "one event per instruction"
    (Pimcomp.Isa.num_instrs program)
    (Pimsim.Trace.length trace);
  (* sorted by start, finish >= start, bounded by makespan *)
  let prev = ref neg_infinity in
  Array.iter
    (fun (e : Pimsim.Trace.event) ->
      Alcotest.(check bool) "sorted" true (e.start_ns >= !prev);
      prev := e.start_ns;
      Alcotest.(check bool) "window sane" true
        (e.finish_ns >= e.start_ns
        && e.finish_ns <= metrics.Pimsim.Metrics.makespan_ns +. 1e-6))
    (Pimsim.Trace.events trace);
  (* trace timing agrees with the plain run *)
  let m2 = run ~parallelism:20 program in
  Alcotest.(check (float 1e-9)) "same makespan" m2.Pimsim.Metrics.makespan_ns
    metrics.Pimsim.Metrics.makespan_ns

let test_trace_respects_deps () =
  let g = Nnir.Zoo.tiny () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count = Some 8 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let program = r.Pimcomp.Compile.program in
  let _, trace = Pimsim.Trace.run ~parallelism:20 hw program in
  let finish = Array.map (fun c -> Array.make (Array.length c) 0.0)
      program.Pimcomp.Isa.cores
  in
  let start = Array.map (fun c -> Array.make (Array.length c) 0.0)
      program.Pimcomp.Isa.cores
  in
  Array.iter
    (fun (e : Pimsim.Trace.event) ->
      finish.(e.core).(e.index) <- e.finish_ns;
      start.(e.core).(e.index) <- e.start_ns)
    (Pimsim.Trace.events trace);
  Array.iteri
    (fun core instrs ->
      Array.iteri
        (fun idx (i : Pimcomp.Isa.instr) ->
          List.iter
            (fun d ->
              Alcotest.(check bool) "dep finished before start" true
                (finish.(core).(d) <= start.(core).(idx) +. 1e-6))
            i.Pimcomp.Isa.deps)
        instrs)
    program.Pimcomp.Isa.cores

let test_trace_profile_and_csv () =
  let g = Nnir.Zoo.lenet ~input_size:12 () in
  let options =
    { Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      core_count = Some 6 }
  in
  let r = Pimcomp.Compile.compile ~options hw g in
  let _, trace = Pimsim.Trace.run hw r.Pimcomp.Compile.program in
  let profile = Pimsim.Trace.profile trace in
  Alcotest.(check int) "one profile row per core" 6 (List.length profile);
  Alcotest.(check bool) "some MVM time recorded" true
    (List.exists (fun p -> p.Pimsim.Trace.mvm_ns > 0.0) profile);
  let csv = Pimsim.Trace.to_csv trace in
  Alcotest.(check int) "csv row per event + header"
    (Pimsim.Trace.length trace + 2)
    (List.length (String.split_on_char '\n' csv));
  let svg = Pimsim.Trace.to_svg trace in
  Alcotest.(check bool) "svg has a rect per event" true
    (List.length
       (String.split_on_char '\n' svg
       |> List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "<rect"))
    = Pimsim.Trace.length trace)

let () =
  Alcotest.run "sim"
    [
      ( "micro",
        [
          Alcotest.test_case "single MVM" `Quick test_single_mvm_latency;
          Alcotest.test_case "structural conflict" `Quick
            test_structural_conflict;
          Alcotest.test_case "issue bandwidth" `Quick test_issue_bandwidth;
          Alcotest.test_case "dependency ordering" `Quick
            test_dependency_ordering;
          Alcotest.test_case "rendezvous latency" `Quick
            test_rendezvous_latency;
          Alcotest.test_case "recv waits" `Quick test_recv_waits_for_send_deps;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "gmem bandwidth" `Quick
            test_global_memory_bandwidth;
          Alcotest.test_case "bank conflicts" `Quick test_bank_conflicts;
          Alcotest.test_case "energy accounting" `Quick test_energy_accounting;
          Alcotest.test_case "duplicate send rejected" `Quick
            test_duplicate_send_rejected;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest random_programs_terminate;
        ] );
      ( "failure-injection",
        [
          QCheck_alcotest.to_alcotest injection_never_crashes;
          Alcotest.test_case "dropped send deadlocks" `Quick
            test_dropped_send_deadlocks;
        ] );
      ( "batch",
        [
          Alcotest.test_case "replication well-formed" `Quick
            test_batch_replication;
          Alcotest.test_case "steady state" `Quick test_batch_steady_state;
          Alcotest.test_case "zoo coverage" `Quick test_batch_zoo_coverage;
        ] );
      ( "differential",
        [
          Alcotest.test_case "zoo networks" `Quick test_differential_zoo;
          Alcotest.test_case "arena shared across domains" `Quick
            test_arena_shared_across_domains;
          QCheck_alcotest.to_alcotest random_programs_differential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "complete and ordered" `Quick
            test_trace_complete_and_ordered;
          Alcotest.test_case "respects deps" `Quick test_trace_respects_deps;
          Alcotest.test_case "profile and csv" `Quick
            test_trace_profile_and_csv;
        ] );
    ]
