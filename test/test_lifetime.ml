(* Tests for the lifetime-aware buffer placement optimiser: plan
   determinism, placement never worse than AG-reuse, planned spilling
   under a tight scratchpad, the spill budget, and text round-trips of
   lifetime programs (freeag trace events, rpeaks). *)

let layout_of ~name ~mode:_ =
  let graph = Nnir.Zoo.build name ~input_size:(Nnir.Zoo.min_input_size name) in
  (graph, Pimhw.Config.default)

let compile ?(config = Pimhw.Config.default) ~allocator ~mode name =
  let graph, _ = layout_of ~name ~mode in
  let options =
    {
      Pimcomp.Compile.default_options with
      mode;
      allocator;
      strategy = Pimcomp.Compile.Puma_like;
    }
  in
  (graph, Pimcomp.Compile.compile ~options config graph)

let modes = [ Pimcomp.Mode.High_throughput; Pimcomp.Mode.Low_latency ]

let resident (p : Pimcomp.Isa.t) =
  p.Pimcomp.Isa.memory.Pimcomp.Isa.local_resident_peak_bytes

(* Every strategy's compiled program — lifetime included — passes the
   full static verifier, whose replay independently recomputes peaks
   (and, for lifetime, the whole placement plan). *)
let test_all_strategies_verify () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          List.iter
            (fun allocator ->
              let graph, r = compile ~allocator ~mode name in
              Alcotest.(check (list string))
                (Fmt.str "%s %s %s verifies" name
                   (Pimcomp.Mode.to_string mode)
                   (Pimcomp.Memalloc.strategy_name allocator))
                []
                (List.map
                   (Fmt.str "%a" Pimcomp.Verify.pp_violation)
                   (Pimcomp.Verify.run ~graph ~config:Pimhw.Config.default
                      r.Pimcomp.Compile.program)))
            Pimcomp.Memalloc.[ Naive; Add_reuse; Ag_reuse; Lifetime ])
        modes)
    [ "tiny"; "lenet" ]

let test_not_worse_than_ag_reuse () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          let _, ag = compile ~allocator:Pimcomp.Memalloc.Ag_reuse ~mode name in
          let _, lt = compile ~allocator:Pimcomp.Memalloc.Lifetime ~mode name in
          let sum p = Array.fold_left ( + ) 0 (resident p) in
          let label =
            Fmt.str "%s %s" name (Pimcomp.Mode.to_string mode)
          in
          Alcotest.(check bool)
            (label ^ ": lifetime footprint <= AG-reuse")
            true
            (sum lt.Pimcomp.Compile.program <= sum ag.Pimcomp.Compile.program))
        modes)
    [ "tiny"; "lenet"; "squeezenet" ]

let test_freeag_only_under_lifetime () =
  let has_freeag p =
    Array.exists
      (function Pimcomp.Isa.Free_ag_slot _ -> true | _ -> false)
      p.Pimcomp.Isa.mem_trace
  in
  let _, ag =
    compile ~allocator:Pimcomp.Memalloc.Ag_reuse
      ~mode:Pimcomp.Mode.Low_latency "tiny"
  in
  let _, lt =
    compile ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.Low_latency "tiny"
  in
  Alcotest.(check bool) "legacy trace has no freeag" false
    (has_freeag ag.Pimcomp.Compile.program);
  Alcotest.(check bool) "lifetime trace has freeag deaths" true
    (has_freeag lt.Pimcomp.Compile.program)

let test_plan_determinism () =
  let _, lt =
    compile ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "lenet"
  in
  let p = lt.Pimcomp.Compile.program in
  let plan () =
    Pimcomp.Lifetime.plan_of_trace ~core_count:p.Pimcomp.Isa.core_count
      ~capacity:(Some Pimhw.Config.default.Pimhw.Config.local_memory_bytes)
      p.Pimcomp.Isa.mem_trace
  in
  Alcotest.(check bool) "same trace, same plan" true (plan () = plan ());
  (* and the whole compilation is deterministic *)
  let _, lt2 =
    compile ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "lenet"
  in
  Alcotest.(check bool) "recompilation is bit-identical" true
    (lt.Pimcomp.Compile.program = lt2.Pimcomp.Compile.program)

(* Hand-built trace: two 100B buffers alive at once against a 150B
   scratchpad — exactly one must spill, costing a store+load round trip
   per allocation event. *)
let test_hand_planned_spill () =
  let trace =
    [|
      Pimcomp.Isa.Alloc { core = 0; bytes = 100; request = Pimcomp.Memalloc.Fresh };
      Pimcomp.Isa.Alloc { core = 0; bytes = 100; request = Pimcomp.Memalloc.Fresh };
      Pimcomp.Isa.Free { core = 0; bytes = 100 };
      Pimcomp.Isa.Free { core = 0; bytes = 100 };
    |]
  in
  let plan =
    Pimcomp.Lifetime.plan_of_trace ~core_count:1 ~capacity:(Some 150) trace
  in
  Alcotest.(check int) "one buffer spills" 1
    plan.Pimcomp.Lifetime.spilled_buffers;
  Alcotest.(check int) "round-trip traffic" 200 plan.Pimcomp.Lifetime.spill;
  Alcotest.(check bool) "resident fits" true
    (plan.Pimcomp.Lifetime.resident.(0) <= 150);
  Alcotest.(check int) "demand is the unclamped sum" 200
    (Pimcomp.Memalloc.demand_peak ~core:0
       (Pimcomp.Lifetime.replay Pimcomp.Memalloc.Lifetime ~core_count:1
          ~capacity:None trace));
  (* without the capacity nothing spills and both buffers coexist *)
  let free = Pimcomp.Lifetime.plan_of_trace ~core_count:1 ~capacity:None trace in
  Alcotest.(check int) "no spill unconstrained" 0 free.Pimcomp.Lifetime.spill;
  Alcotest.(check int) "placement packs both" 200
    free.Pimcomp.Lifetime.resident.(0)

let tight_config =
  { Pimhw.Config.default with Pimhw.Config.local_memory_bytes = 4096 }

(* A scratchpad smaller than the largest single request: infeasible for
   the legacy disciplines, a valid spilling program under lifetime. *)
let test_tight_memory_spilling () =
  Alcotest.(check bool) "AG-reuse rejects the tight scratchpad" true
    (match
       compile ~config:tight_config ~allocator:Pimcomp.Memalloc.Ag_reuse
         ~mode:Pimcomp.Mode.High_throughput "squeezenet"
     with
    | _ -> false
    | exception Pimcomp.Memalloc.Doesnt_fit _ -> true);
  let graph, lt =
    compile ~config:tight_config ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "squeezenet"
  in
  let p = lt.Pimcomp.Compile.program in
  Alcotest.(check bool) "spills planned" true
    (p.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes > 0);
  Alcotest.(check bool) "resident fits the scratchpad" true
    (Array.for_all (fun r -> r <= 4096) (resident p));
  Alcotest.(check (list string)) "verifies" []
    (List.map
       (Fmt.str "%a" Pimcomp.Verify.pp_violation)
       (Pimcomp.Verify.run ~graph ~config:tight_config p))

(* The demand peaks [Lifetime.optimise] stamps come from its profiling
   pass, the resident peaks and spill from its plan; [Verify] rebuilds
   all three from the trace alone, so a report that drifts from any of
   them is caught. *)
let test_report_drift_detected () =
  let graph, lt =
    compile ~config:tight_config ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "squeezenet"
  in
  let p = lt.Pimcomp.Compile.program in
  let memory = p.Pimcomp.Isa.memory in
  let bump = Array.mapi (fun c b -> if c = 0 then b + 1024 else b) in
  let drifts label (memory : Pimcomp.Isa.memory_report) ~core =
    let vs =
      Pimcomp.Verify.run ~graph ~config:tight_config
        { p with Pimcomp.Isa.memory }
    in
    Alcotest.(check bool)
      (label ^ " reports memory-drift")
      true
      (List.exists
         (fun (v : Pimcomp.Verify.violation) ->
           v.Pimcomp.Verify.kind = Pimcomp.Verify.Memory_drift
           && v.Pimcomp.Verify.core = core)
         vs)
  in
  drifts "inflated local peak"
    {
      memory with
      Pimcomp.Isa.local_peak_bytes = bump memory.Pimcomp.Isa.local_peak_bytes;
    }
    ~core:(Some 0);
  drifts "inflated resident peak"
    {
      memory with
      Pimcomp.Isa.local_resident_peak_bytes =
        bump memory.Pimcomp.Isa.local_resident_peak_bytes;
    }
    ~core:(Some 0);
  drifts "spill + 2"
    { memory with Pimcomp.Isa.spill_bytes = memory.Pimcomp.Isa.spill_bytes + 2 }
    ~core:None

let test_spill_budget () =
  let options allocator spill_budget =
    {
      Pimcomp.Compile.default_options with
      mode = Pimcomp.Mode.High_throughput;
      allocator;
      spill_budget;
      strategy = Pimcomp.Compile.Puma_like;
    }
  in
  let graph =
    Nnir.Zoo.build "squeezenet"
      ~input_size:(Nnir.Zoo.min_input_size "squeezenet")
  in
  Alcotest.(check bool) "zero budget rejects the spilling program" true
    (match
       Pimcomp.Compile.compile
         ~options:(options Pimcomp.Memalloc.Lifetime (Some 0))
         tight_config graph
     with
    | _ -> false
    | exception Pimcomp.Memalloc.Doesnt_fit _ -> true);
  match
    Pimcomp.Compile.compile
      ~options:(options Pimcomp.Memalloc.Lifetime None)
      tight_config graph
  with
  | r ->
      Alcotest.(check bool) "unlimited budget compiles" true
        (r.Pimcomp.Compile.program.Pimcomp.Isa.memory.Pimcomp.Isa.spill_bytes
        > 0)
  | exception Pimcomp.Memalloc.Doesnt_fit m ->
      Alcotest.failf "unlimited budget rejected: %s" m

let test_text_roundtrip () =
  (* lifetime programs round-trip through the text format, freeag
     events, resident peaks and all *)
  let check_roundtrip label p =
    let p' = Pimcomp.Isa_text.of_string (Pimcomp.Isa_text.to_string p) in
    if p <> p' then Alcotest.failf "%s: text round-trip changed the program"
        label
  in
  let _, ll =
    compile ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.Low_latency "tiny"
  in
  check_roundtrip "tiny LL lifetime" ll.Pimcomp.Compile.program;
  let _, tight =
    compile ~config:tight_config ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "squeezenet"
  in
  check_roundtrip "tight HT lifetime (spilling)"
    tight.Pimcomp.Compile.program

let test_simulates () =
  let _, lt =
    compile ~config:tight_config ~allocator:Pimcomp.Memalloc.Lifetime
      ~mode:Pimcomp.Mode.High_throughput "squeezenet"
  in
  let m =
    Pimsim.Engine.run
      ~parallelism:Pimsim.Engine.default_parallelism tight_config
      lt.Pimcomp.Compile.program
  in
  Alcotest.(check bool) "no deadlock" false m.Pimsim.Metrics.deadlocked;
  Alcotest.(check bool) "spill traffic hits the global memory model" true
    (m.Pimsim.Metrics.global_load_bytes > 0
    && m.Pimsim.Metrics.global_store_bytes > 0)

let () =
  Alcotest.run "lifetime"
    [
      ( "placement",
        [
          Alcotest.test_case "all strategies verify" `Quick
            test_all_strategies_verify;
          Alcotest.test_case "not worse than AG-reuse" `Quick
            test_not_worse_than_ag_reuse;
          Alcotest.test_case "freeag only under lifetime" `Quick
            test_freeag_only_under_lifetime;
          Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
          Alcotest.test_case "hand-planned spill" `Quick
            test_hand_planned_spill;
        ] );
      ( "spilling",
        [
          Alcotest.test_case "tight memory spills validly" `Quick
            test_tight_memory_spilling;
          Alcotest.test_case "report drift detected" `Quick
            test_report_drift_detected;
          Alcotest.test_case "spill budget enforced" `Quick test_spill_budget;
          Alcotest.test_case "text round-trip" `Quick test_text_roundtrip;
          Alcotest.test_case "spilling program simulates" `Quick
            test_simulates;
        ] );
    ]
