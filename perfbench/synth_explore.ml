(* synth-explore: PIMSYN-style design-space search, in this process.  An
   op is one Synth.run at `pimcomp synth` defaults (HT, PUMA-like
   mapping, the default 81-point axes, 8 generations x 12 children,
   pruning and memo on) for one paper network and search seed, with
   Synth_eval.evaluator and no worker pool.  The GA never runs:
   schedule, verify and engine do the work, and memo hits measure the
   repeated share, so schedule, verify and engine changes show here and
   a GA change must not. *)

module C = Pimcomp.Compile
module S = Pimcomp.Synth

type op = { net : int; search_seed : int }

type state = { networks : (string * Nnir.Graph.t) array; order : Random.State.t }

(* Two search seeds (the CLI default and the next), fixed for the same
   reason as compile-cold's GA seeds: the search seed changes how many
   candidates reach the evaluator, hence the cost of a search. *)
let search_seeds = [| 42; 43 |]
let epoch_seconds = 7.5

let options search_seed =
  { C.default_options with strategy = C.Puma_like; seed = search_seed }

let search ~eval s op =
  let networks = [| s.networks.(op.net) |] in
  S.run
    ~params:{ S.default_params with seed = op.search_seed }
    ~options:(options op.search_seed) ~axes:Pimhw.Design_space.default_axes
    ~networks ~eval:(eval networks) ()

let untraced_eval networks = Pimsim.Synth_eval.evaluator ~networks ()

(* Synth_eval's evaluation (compile_program without a cache, then
   Engine.run) made of spanned calls. *)
let traced_eval networks jobs =
  Array.mapi
    (fun slot (job : S.job) ->
      let name, graph = networks.(job.S.network) in
      try
        let program, _ = Staged.compile ~options:job.S.options job.S.config graph in
        let metrics =
          Staged.engine_run ~parallelism:job.S.options.C.parallelism
            job.S.config program
        in
        if metrics.Pimsim.Metrics.deadlocked then
          S.Eval_infeasible "simulation deadlocked"
        else
          S.Eval_ok
            {
              time_ns = Util.model_time_ns metrics;
              energy_pj = Pimsim.Metrics.total_pj metrics.Pimsim.Metrics.energy;
            }
      with
      | Pimcomp.Chromosome.Infeasible reason
      | Pimcomp.Memalloc.Doesnt_fit reason
      | Invalid_argument reason ->
          S.Eval_infeasible reason
      | exn -> raise (C.Job_error { index = slot; graph = name; exn }))
    jobs

(* The five paper networks at the CLI's default input size. *)
let setup_state ~seed =
  {
    networks =
      Array.of_list
        (List.map
           (fun net ->
             ( net,
               Nnir.Zoo.build
                 ~input_size:(Nnir.Zoo.scaled_input_size ~factor:4 net)
                 net ))
           Nnir.Zoo.paper_benchmarks);
    order = Util.rng ~seed ~salt:3;
  }

(* Every (network, search seed) pair, once. *)
let pairs s =
  List.concat_map
    (fun net ->
      List.map (fun search_seed -> { net; search_seed }) (Array.to_list search_seeds))
    (List.init (Array.length s.networks) Fun.id)

(* An epoch searches every pair once, in seeded order. *)
let next_epoch s () = Util.shuffled s.order (Array.of_list (pairs s))

let warm_up s =
  ignore (search ~eval:untraced_eval s { net = 2; search_seed = search_seeds.(0) })

let setup_only ~seed ~cli:_ = warm_up (setup_state ~seed)

(* The search counts that must repeat exactly for a (network, seed). *)
let counts (st : S.stats) =
  Printf.sprintf "considered=%d evaluated=%d jobs=%d memo_hits=%d pruned=%d/%d infeasible=%d dominated=%d"
    st.S.considered st.S.evaluated st.S.eval_jobs st.S.memo_hits
    st.S.pruned_capacity st.S.pruned_area st.S.infeasible st.S.dominated

let non_dominated frontier =
  List.for_all
    (fun (a : S.frontier_point) ->
      List.for_all
        (fun (b : S.frontier_point) -> not (S.dominates b.S.objectives a.S.objectives))
        frontier)
    frontier

type result = { op : op; seconds : float; stats : S.stats; errors : string list }

(* Checks a search: its frontier is non-dominated, and a repeat of a
   (network, seed) returns the first search's frontier and counts. *)
let check distinct op (r : S.result) =
  (if non_dominated r.S.frontier then [] else [ "frontier has a dominated point" ])
  @
  match Hashtbl.find_opt distinct op with
  | Some (f, c) when f <> r.S.frontier || c <> counts r.S.stats ->
      [ "same network and seed gave a different search result" ]
  | Some _ -> []
  | None ->
      Hashtbl.replace distinct op (r.S.frontier, counts r.S.stats);
      []

let run_op s distinct op =
  let r, seconds = Util.timed (fun () -> search ~eval:untraced_eval s op) in
  { op; seconds; stats = r.S.stats; errors = check distinct op r }

let sum_seconds = List.fold_left (fun acc (r : result) -> acc +. r.seconds) 0.

let run ~seed ~cli:_ ~seconds ~trace ~t_start =
  let s = setup_state ~seed in
  warm_up s;
  let setup_s = Util.now () -. t_start in
  let distinct = Hashtbl.create 16 in
  let gc0 = Util.major_collections () in
  let results =
    Util.run_epochs
      ~epochs:
        (Util.epochs ~seconds:(if trace then seconds /. 2. else seconds) ~epoch_seconds)
      (next_epoch s) (run_op s distinct)
  in
  let majors = Util.major_collections () - gc0 in
  let n = List.length results in
  let failed = List.length (List.filter (fun (r : result) -> r.errors <> []) results) in
  let errors = List.concat_map (fun (r : result) -> r.errors) results in
  let repeat_ops =
    List.mapi
      (fun i (r : result) ->
        Printf.sprintf "op %d %s seed=%d %s" i (fst s.networks.(r.op.net))
          r.op.search_seed (counts r.stats))
      results
  in
  if not trace then begin
    (* Modelled metrics over the frontiers of all ten searches (an epoch
       runs each); program metrics over the distinct frontier programs. *)
    let frontiers = List.map (fun op -> (op, fst (Hashtbl.find distinct op))) (pairs s) in
    let points =
      List.sort_uniq compare
        (List.concat_map
           (fun (op, f) ->
             List.map (fun (fp : S.frontier_point) -> (op.net, fp.S.point)) f)
           frontiers)
    in
    let programs =
      List.map
        (fun (net, point) ->
          (C.compile
             ~options:(S.candidate_options (options 0) point)
             (Pimhw.Design_space.to_config point)
             (snd s.networks.(net)))
            .C.program)
        points
    in
    let objectives =
      List.concat_map
        (fun (_, f) -> List.map (fun (fp : S.frontier_point) -> fp.S.objectives) f)
        frontiers
    in
    let times = List.map (fun (r : result) -> 1000. *. r.seconds) results in
    let p, tail_ms, beyond = Util.tail times in
    {
      Util.setup_s;
      attempted = n;
      failed;
      errors;
      metrics =
        [
          ("ops_per_s", float_of_int n /. sum_seconds results);
          ("op_p50_ms", Util.median times);
          ("op_tail_ms", tail_ms);
          ("rss_peak_mb", Util.rss_peak_mb "self");
        ]
        @ Util.modelled
            ~inferences:
              (List.map (fun o -> (o.S.time_ns, o.S.energy_pj /. 1e6)) objectives)
            ~programs;
      notes =
        [
          Printf.sprintf "op_tail_ms is p%d over %d ops (%d beyond it)" p n beyond;
          Printf.sprintf "%d major GCs over %d ops" majors n;
        ];
      repeat_ops;
      repeat_end =
        List.map
          (fun (op, f) ->
            Printf.sprintf "%s seed=%d frontier=%s" (fst s.networks.(op.net))
              op.search_seed
              (Digest.to_hex (Digest.string (Marshal.to_string f []))))
          frontiers
        @ List.map
            (fun p -> Digest.to_hex (Digest.string (Marshal.to_string p [])))
            programs;
    }
  end
  else begin
    (* Traced phase: the same searches with the spanned evaluator; each
       must return the untraced frontier. *)
    Spans.reset ();
    let traced =
      List.mapi
        (fun i (r : result) ->
          let t =
            Spans.op i (fun () ->
                Spans.span "synth.run" (fun () -> search ~eval:traced_eval s r.op))
          in
          let f, c = Hashtbl.find distinct r.op in
          ( t.S.stats,
            if t.S.frontier <> f || counts t.S.stats <> c then
              [ Printf.sprintf "traced op %d: traced evaluator changed the search" i ]
            else [] ))
        results
    in
    let a = Spans.attribute () in
    let sum f = List.fold_left (fun acc (st, _) -> acc + f st) 0 traced in
    let considered = sum (fun st -> st.S.considered) in
    {
      Util.setup_s = 0.;
      attempted = n;
      failed = List.length (List.filter (fun (_, e) -> e <> []) traced);
      errors = errors @ List.concat_map snd traced;
      metrics =
        Spans.layer_metrics a
        @ [
            ( "synth.candidates_per_s",
              Util.div (float_of_int considered) (Spans.total "synth.run") );
            ("synth.evaluated_ratio", Util.fdiv (sum (fun st -> st.S.evaluated)) considered);
            ("synth.memo_hit_ratio", Util.fdiv (sum (fun st -> st.S.memo_hits)) considered);
            ("gc.major_per_op", Util.fdiv majors n);
            ( "trace.overhead_pct",
              100. *. (Util.div a.Spans.op_seconds (sum_seconds results) -. 1.) );
          ];
      notes = [];
      repeat_ops = Spans.fingerprint ();
      repeat_end = [];
    }
  end
