(* Tests for the design-space synthesiser: Design_space enumeration and
   scaling, archive/dominance semantics, determinism and
   prune/memoise-invariance of the frontier (stub evaluator), bounded
   infeasibility, and an end-to-end compile+simulate search that must
   be bit-identical for any pool domain count. *)

module Ds = Pimhw.Design_space
module Synth = Pimcomp.Synth

let small_axes =
  {
    Ds.xbar_size_axis = [ 64; 128 ];
    xbars_per_core_axis = [ 8; 16 ];
    core_count_axis = [ 4; 9 ];
    local_memory_kb_axis = [ 32; 64 ];
    vfus_per_core_axis = [ 12 ];
  }

let stub_networks =
  [| ("a", Nnir.Zoo.tiny ()); ("b", Nnir.Zoo.mlp ()) |]

(* A pure analytic evaluator: no compile, instant, deterministic.
   Bigger machines are faster but burn more power, so the frontier is
   a genuine trade-off curve.  It agrees with the compiler (and hence
   with the analytic pre-filter) on feasibility — the premise of the
   prune-invariance contract — by consulting the partition table. *)
let stub_eval (jobs : Synth.job array) =
  Array.map
    (fun (j : Synth.job) ->
      let _, graph = stub_networks.(j.Synth.network) in
      let table = Pimcomp.Partition.of_graph j.Synth.config graph in
      let supply = Pimhw.Config.total_crossbars j.Synth.config in
      let max_per_ag =
        Array.fold_left
          (fun acc (i : Pimcomp.Partition.info) -> max acc i.Pimcomp.Partition.xbars_per_ag)
          0 (Pimcomp.Partition.entries table)
      in
      if
        Pimcomp.Partition.min_xbars table > supply
        || max_per_ag > j.Synth.config.Pimhw.Config.xbars_per_core
      then Synth.Eval_infeasible "stub: weights do not fit"
      else
        let xbars = float_of_int supply in
        let net_weight = float_of_int (j.Synth.network + 1) in
        Synth.Eval_ok
          {
            time_ns = net_weight *. 1e6 /. xbars;
            energy_pj = net_weight *. Pimhw.Config.chip_power_mw j.Synth.config;
          })
    jobs

let run_stub ?(params = { Synth.default_params with generations = 4 }) () =
  Synth.run ~params ~axes:small_axes ~networks:stub_networks ~eval:stub_eval ()

(* ---------------- Design_space ---------------- *)

let test_enumerate () =
  let points = Ds.enumerate small_axes in
  Alcotest.(check int)
    "cardinality matches cross product" (Ds.cardinality small_axes)
    (List.length points);
  Alcotest.(check int) "2*2*2*2*1 grid" 16 (List.length points);
  let uniq = List.sort_uniq compare points in
  Alcotest.(check int) "no duplicate points" 16 (List.length uniq)

let test_to_config_valid () =
  (* Config.validate accepts every point the enumerator can emit, for
     both the small grid and the default axes. *)
  List.iter
    (fun axes ->
      List.iter
        (fun p ->
          Ds.validate_point p;
          let config = Ds.to_config p in
          Pimhw.Config.validate config;
          Alcotest.(check int)
            (Ds.point_name p ^ " crossbar supply")
            (Ds.crossbar_supply p)
            (Pimhw.Config.total_crossbars config))
        (Ds.enumerate axes))
    [ small_axes; Ds.default_axes ]

let test_to_config_scaling () =
  let base = Pimhw.Config.puma_like in
  let p =
    {
      Ds.xbar_size = base.Pimhw.Config.xbar_rows;
      xbars_per_core = base.Pimhw.Config.xbars_per_core;
      core_count = base.Pimhw.Config.core_count;
      local_memory_kb = base.Pimhw.Config.local_memory_bytes / 1024;
      vfus_per_core = base.Pimhw.Config.vfus_per_core;
    }
  in
  Alcotest.(check bool) "identity point reproduces Table I" true
    (Ds.to_config p = base);
  let double_mem = Ds.to_config { p with Ds.local_memory_kb = 128 } in
  Alcotest.(check (float 1e-9))
    "scratchpad power scales linearly with capacity"
    (2.0 *. base.Pimhw.Config.local_memory_power_mw)
    double_mem.Pimhw.Config.local_memory_power_mw

let test_axis_access () =
  let p = List.hd (Ds.enumerate small_axes) in
  for axis = 0 to Ds.axis_count - 1 do
    List.iter
      (fun v ->
        Alcotest.(check int)
          (Printf.sprintf "axis %d roundtrip" axis)
          v
          (Ds.axis_value (Ds.with_axis p axis v) axis))
      (Ds.axis_values small_axes axis)
  done

(* ---------------- dominance and frontier ---------------- *)

let obj time_ns energy_pj area_mm2 = { Synth.time_ns; energy_pj; area_mm2 }

let test_dominates () =
  Alcotest.(check bool) "strictly better" true
    (Synth.dominates (obj 1. 1. 1.) (obj 2. 2. 2.));
  Alcotest.(check bool) "better on one axis" true
    (Synth.dominates (obj 1. 2. 2.) (obj 2. 2. 2.));
  Alcotest.(check bool) "equal does not dominate" false
    (Synth.dominates (obj 1. 1. 1.) (obj 1. 1. 1.));
  Alcotest.(check bool) "trade-off does not dominate" false
    (Synth.dominates (obj 1. 3. 1.) (obj 2. 2. 2.))

let check_non_dominated frontier =
  List.iter
    (fun (a : Synth.frontier_point) ->
      List.iter
        (fun (b : Synth.frontier_point) ->
          if a != b then
            Alcotest.(check bool)
              (Printf.sprintf "%s not dominated by %s"
                 (Ds.point_name a.Synth.point)
                 (Ds.point_name b.Synth.point))
              false
              (Synth.dominates b.Synth.objectives a.Synth.objectives))
        frontier)
    frontier

(* Both seed rounds: the axes grid, and the random points that
   `pimcomp synth --no-grid-seed` asks for (a different frontier). *)
let seed_rounds =
  List.map
    (fun grid_seed ->
      { Synth.default_params with generations = 4; grid_seed })
    [ true; false ]

let test_frontier_non_dominated () =
  List.iter
    (fun params ->
      let r = run_stub ~params () in
      Alcotest.(check bool)
        (Printf.sprintf "grid_seed=%b: frontier non-empty"
           params.Synth.grid_seed)
        true (r.Synth.frontier <> []);
      check_non_dominated r.Synth.frontier)
    seed_rounds

let test_deterministic () =
  List.iter
    (fun params ->
      let a = run_stub ~params () and b = run_stub ~params () in
      Alcotest.(check bool)
        (Printf.sprintf "grid_seed=%b: same seed, bit-identical frontier"
           params.Synth.grid_seed)
        true
        (a.Synth.frontier = b.Synth.frontier))
    seed_rounds

let test_prune_memoise_invariance () =
  (* prune/memoise only change cost, never the result. *)
  let base_params = { Synth.default_params with generations = 4 } in
  let reference = (run_stub ~params:base_params ()).Synth.frontier in
  List.iter
    (fun (prune, memoise) ->
      let r =
        run_stub ~params:{ base_params with Synth.prune; memoise } ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "prune=%b memoise=%b frontier unchanged" prune memoise)
        true
        (r.Synth.frontier = reference))
    [ (true, false); (false, true); (false, false) ]

let test_memoisation_saves_work () =
  let r_memo = run_stub () in
  let r_naive =
    run_stub
      ~params:
        { Synth.default_params with generations = 4; memoise = false }
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "memoised eval jobs (%d) < naive (%d)"
       r_memo.Synth.stats.Synth.eval_jobs r_naive.Synth.stats.Synth.eval_jobs)
    true
    (r_memo.Synth.stats.Synth.eval_jobs < r_naive.Synth.stats.Synth.eval_jobs);
  Alcotest.(check bool) "memo hits recorded" true
    (r_memo.Synth.stats.Synth.memo_hits > 0)

let test_stats_consistency () =
  let r = run_stub () in
  let s = r.Synth.stats in
  Alcotest.(check int) "every candidate accounted for"
    s.Synth.considered
    (s.Synth.evaluated + s.Synth.memo_hits + s.Synth.pruned_capacity
   + s.Synth.pruned_area);
  Alcotest.(check int) "jobs = evaluated x networks"
    (s.Synth.evaluated * Array.length stub_networks)
    s.Synth.eval_jobs

(* ---------------- bounded failures ---------------- *)

let test_infeasible_recorded () =
  (* Evaluator declares every 64-wide crossbar point infeasible for
     network 1: the search must record the points and keep going. *)
  let eval (jobs : Synth.job array) =
    Array.map
      (fun (j : Synth.job) ->
        if j.Synth.network = 1 && j.Synth.point.Ds.xbar_size = 64 then
          Synth.Eval_infeasible "stub: does not fit"
        else
          match stub_eval [| j |] with [| e |] -> e | _ -> assert false)
      jobs
  in
  let r =
    Synth.run
      ~params:{ Synth.default_params with generations = 2 }
      ~axes:small_axes ~networks:stub_networks ~eval ()
  in
  Alcotest.(check bool) "infeasible points recorded" true
    (r.Synth.stats.Synth.infeasible > 0);
  Alcotest.(check bool) "search still produced a frontier" true
    (r.Synth.frontier <> []);
  List.iter
    (fun (fp : Synth.frontier_point) ->
      Alcotest.(check bool) "no infeasible point on the frontier" true
        (fp.Synth.point.Ds.xbar_size <> 64))
    r.Synth.frontier;
  match r.Synth.infeasible_points with
  | (_, reason) :: _ ->
      Alcotest.(check bool) "reason names the network" true
        (String.length reason > 0)
  | [] -> Alcotest.fail "expected infeasible log entries"

exception Boom

let test_evaluator_exception_aborts () =
  let eval _ = raise Boom in
  match
    Synth.run
      ~params:{ Synth.default_params with generations = 0 }
      ~axes:small_axes ~networks:stub_networks ~eval ()
  with
  | _ -> Alcotest.fail "evaluator exception must propagate"
  | exception Boom -> ()

(* ---------------- end-to-end compile + simulate ---------------- *)

let e2e_axes =
  (* Supplies of 1..64 crossbars: the 1-crossbar corner cannot hold
     even the tiny network, so both the analytic pre-filter (prune on)
     and the compiler (prune off) must reject it — with an identical
     frontier either way. *)
  {
    Ds.xbar_size_axis = [ 64 ];
    xbars_per_core_axis = [ 1; 16 ];
    core_count_axis = [ 1; 4 ];
    local_memory_kb_axis = [ 64 ];
    vfus_per_core_axis = [ 12 ];
  }

let e2e_networks = [| ("tiny", Nnir.Zoo.tiny ()) |]

let e2e_options =
  {
    Pimcomp.Compile.default_options with
    strategy = Pimcomp.Compile.Puma_like;
    mode = Pimcomp.Mode.High_throughput;
  }

let run_e2e ~domains ~prune =
  let pool = Pimutil.Domain_pool.Persistent.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pimutil.Domain_pool.Persistent.shutdown pool)
    (fun () ->
      Synth.run
        ~params:{ Synth.default_params with generations = 2; prune }
        ~options:e2e_options ~axes:e2e_axes ~networks:e2e_networks
        ~eval:(Pimsim.Synth_eval.evaluator ~pool ~networks:e2e_networks ())
        ())

(* Only infeasibility is data: a compile that fails on bad options is a
   bug the search must not file as an infeasible design point. *)
let test_e2e_bad_options_abort () =
  let point =
    {
      Ds.xbar_size = 64;
      xbars_per_core = 16;
      core_count = 4;
      local_memory_kb = 64;
      vfus_per_core = 12;
    }
  in
  let job =
    {
      Synth.point;
      config = Ds.to_config point;
      options = { e2e_options with core_count = Some 0 };
      network = 0;
    }
  in
  match Pimsim.Synth_eval.evaluator ~networks:e2e_networks () [| job |] with
  | _ -> Alcotest.fail "a compile with zero cores was not re-raised"
  | exception
      (Pimcomp.Compile.Job_error
         { index = 0; graph = "tiny"; exn = Invalid_argument _ } as e) ->
      (* the registered printer names the job's index and graph *)
      let printed = Printexc.to_string e in
      let prefix = "job 0 (tiny) failed: " in
      Alcotest.(check string) printed prefix
        (String.sub printed 0 (min (String.length prefix) (String.length printed)))

let test_e2e_search () =
  let r = run_e2e ~domains:1 ~prune:true in
  Alcotest.(check bool) "frontier non-empty" true (r.Synth.frontier <> []);
  check_non_dominated r.Synth.frontier;
  Alcotest.(check bool) "hopeless corner pruned analytically" true
    (r.Synth.stats.Synth.pruned_capacity > 0)

let test_e2e_prune_invariance () =
  let pruned = run_e2e ~domains:1 ~prune:true in
  let naive = run_e2e ~domains:1 ~prune:false in
  Alcotest.(check bool) "pruned and naive frontiers identical" true
    (pruned.Synth.frontier = naive.Synth.frontier);
  Alcotest.(check bool) "naive run hit real compile infeasibility" true
    (naive.Synth.stats.Synth.infeasible > 0)

let test_e2e_domain_independence () =
  let one = run_e2e ~domains:1 ~prune:true in
  let four = run_e2e ~domains:4 ~prune:true in
  Alcotest.(check bool) "frontier bit-identical for 1 vs 4 domains" true
    (one.Synth.frontier = four.Synth.frontier);
  Alcotest.(check bool) "search counters identical too" true
    (let strip (s : Synth.stats) =
       { s with Synth.wall_seconds = 0.0; eval_seconds = 0.0 }
     in
     strip one.Synth.stats = strip four.Synth.stats)

(* The [synth --json] document, read back: every frontier point's name
   and objectives bit for bit, and every search count. *)
let test_e2e_json_report () =
  let module J = Pimutil.Json in
  let r = run_e2e ~domains:1 ~prune:true in
  let doc =
    J.of_string
      (J.to_string
         (Synth.to_json ~mode:e2e_options.Pimcomp.Compile.mode
            ~seed:Synth.default_params.Synth.seed r))
  in
  let field key v =
    match J.member key v with
    | Some x -> x
    | None -> Alcotest.failf "no %S in the document" key
  in
  let list = function
    | J.List l -> l
    | v -> Alcotest.failf "not a list: %s" (J.to_string v)
  in
  (* %.17g prints an integral float as an int *)
  let bits = function
    | J.Float f -> Int64.bits_of_float f
    | J.Int i -> Int64.bits_of_float (float_of_int i)
    | v -> Alcotest.failf "not a number: %s" (J.to_string v)
  in
  let points = list (field "frontier" doc) in
  Alcotest.(check int) "frontier points" (List.length r.Synth.frontier)
    (List.length points);
  List.iter2
    (fun (fp : Synth.frontier_point) p ->
      let name = Ds.point_name fp.Synth.point in
      Alcotest.(check string)
        "name" name
        (J.string_field "name" (field "point" p));
      let o = fp.Synth.objectives in
      List.iter
        (fun (key, v) ->
          Alcotest.(check int64) (name ^ " " ^ key) (Int64.bits_of_float v)
            (bits (field key p)))
        [
          ("time_ns", o.Synth.time_ns);
          ("energy_pj", o.Synth.energy_pj);
          ("area_mm2", o.Synth.area_mm2);
        ])
    r.Synth.frontier points;
  let s = r.Synth.stats and stats = field "stats" doc in
  List.iter
    (fun (key, n) -> Alcotest.(check int) key n (J.int_field key stats))
    [
      ("considered", s.Synth.considered);
      ("evaluated", s.Synth.evaluated);
      ("eval_jobs", s.Synth.eval_jobs);
      ("memo_hits", s.Synth.memo_hits);
      ("pruned_capacity", s.Synth.pruned_capacity);
      ("pruned_area", s.Synth.pruned_area);
      ("infeasible", s.Synth.infeasible);
      ("dominated", s.Synth.dominated);
      ("generations", s.Synth.generations);
    ];
  Alcotest.(check int) "infeasible points"
    (List.length r.Synth.infeasible_points)
    (List.length (list (field "infeasible" doc)));
  Alcotest.(check int) "pruned points" (List.length r.Synth.pruned_points)
    (J.int_field "pruned" doc)

let () =
  Alcotest.run "synth"
    [
      ( "design_space",
        [
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "to_config validates" `Quick test_to_config_valid;
          Alcotest.test_case "to_config scaling" `Quick test_to_config_scaling;
          Alcotest.test_case "axis access" `Quick test_axis_access;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "non-dominated" `Quick test_frontier_non_dominated;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "prune/memoise invariance" `Quick
            test_prune_memoise_invariance;
          Alcotest.test_case "memoisation saves work" `Quick
            test_memoisation_saves_work;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
        ] );
      ( "failures",
        [
          Alcotest.test_case "infeasible recorded" `Quick
            test_infeasible_recorded;
          Alcotest.test_case "evaluator exception aborts" `Quick
            test_evaluator_exception_aborts;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "search" `Quick test_e2e_search;
          Alcotest.test_case "prune invariance" `Quick
            test_e2e_prune_invariance;
          Alcotest.test_case "domain independence" `Quick
            test_e2e_domain_independence;
          Alcotest.test_case "bad options abort" `Quick
            test_e2e_bad_options_abort;
          Alcotest.test_case "json report" `Quick test_e2e_json_report;
        ] );
    ]
