(* Multi-objective hardware design-space search (PIMSYN-style): grid
   seed + mutation-based evolution over Design_space axes, analytic
   pre-filters, point-memoised batched evaluations, and an
   incremental non-dominated archive.  All randomness flows from the
   seed through split streams and results are folded in slot order, so
   the frontier is bit-identical for any evaluator domain count. *)

module Ds = Pimhw.Design_space

type params = {
  generations : int;
  children : int;
  seed : int;
  grid_seed : bool;
  area_budget_mm2 : float option;
  prune : bool;
  memoise : bool;
}

let default_params =
  {
    generations = 8;
    children = 12;
    seed = 42;
    grid_seed = true;
    area_budget_mm2 = None;
    prune = true;
    memoise = true;
  }

type job = {
  point : Ds.point;
  config : Pimhw.Config.t;
  options : Compile.options;
  network : int;
}

type evaluation =
  | Eval_ok of { time_ns : float; energy_pj : float }
  | Eval_infeasible of string

type objectives = { time_ns : float; energy_pj : float; area_mm2 : float }

let dominates a b =
  a.time_ns <= b.time_ns && a.energy_pj <= b.energy_pj
  && a.area_mm2 <= b.area_mm2
  && (a.time_ns < b.time_ns || a.energy_pj < b.energy_pj
    || a.area_mm2 < b.area_mm2)

type frontier_point = {
  point : Ds.point;
  objectives : objectives;
  per_network : (string * float * float) array;
}

type stats = {
  considered : int;
  evaluated : int;
  eval_jobs : int;
  memo_hits : int;
  pruned_capacity : int;
  pruned_area : int;
  infeasible : int;
  dominated : int;
  generations : int;
  wall_seconds : float;
  eval_seconds : float;
}

type result = {
  frontier : frontier_point list;
  stats : stats;
  infeasible_points : (Ds.point * string) list;
  pruned_points : (Ds.point * string) list;
}

let candidate_options (options : Compile.options) (p : Ds.point) :
    Compile.options =
  { options with core_count = Some p.Ds.core_count }

(* Per-candidate evaluation outcome, after aggregation over the
   network set. *)
type outcome =
  | Ok_point of objectives * (string * float * float) array
  | Infeasible_point of string

(* What to do with one generated candidate, decided in submission
   order before the generation's evaluator batch runs. *)
type decision =
  | Memoised of outcome
  | Pruned of string * [ `Capacity | `Area ]
  | Queued of int (* first job slot in this generation's batch *)
  | Same_as of int (* candidate index earlier in this generation *)

(* The replication-1 feasibility facts about one network at one
   crossbar geometry; mirrors the checks Chromosome.random_initial
   enforces, so pruning on them never rejects a compilable point. *)
type footprint = { min_xbars : int; max_xbars_per_ag : int }

let footprint_of ~config graph =
  let table = Partition.of_graph config graph in
  let max_per_ag =
    Array.fold_left
      (fun acc (info : Partition.info) -> max acc info.Partition.xbars_per_ag)
      0 (Partition.entries table)
  in
  { min_xbars = Partition.min_xbars table; max_xbars_per_ag = max_per_ag }

let geomean values =
  let n = Array.length values in
  if n = 0 then 0.0
  else exp (Array.fold_left (fun acc v -> acc +. log v) 0.0 values /. float_of_int n)

let mutate rng axes p =
  let moves = if Rng.bool rng then 2 else 1 in
  let q = ref p in
  for _ = 1 to moves do
    let axis = Rng.int rng Ds.axis_count in
    let values = Array.of_list (Ds.axis_values axes axis) in
    if Array.length values > 1 then begin
      let cur = Ds.axis_value !q axis in
      let idx = ref (-1) in
      Array.iteri (fun i v -> if v = cur then idx := i) values;
      let next =
        if !idx < 0 then Rng.int rng (Array.length values)
        else if Rng.bool rng then min (Array.length values - 1) (!idx + 1)
        else max 0 (!idx - 1)
      in
      q := Ds.with_axis !q axis values.(next)
    end
  done;
  !q

let random_point rng axes =
  let p = ref (List.hd (Ds.enumerate axes)) in
  for axis = 0 to Ds.axis_count - 1 do
    p := Ds.with_axis !p axis (Rng.pick_list rng (Ds.axis_values axes axis))
  done;
  !p

let search ~params ~options ~axes ~networks ~eval =
  let n_nets = Array.length networks in
  (* Counters *)
  let considered = ref 0 and evaluated = ref 0 and eval_jobs = ref 0 in
  let memo_hits = ref 0 and pruned_capacity = ref 0 and pruned_area = ref 0 in
  let infeasible = ref 0 and dominated = ref 0 in
  let eval_seconds = ref 0.0 in
  let infeasible_log = ref [] and pruned_log = ref [] in
  (* Evaluation memo, keyed by the design point (lookups only — never
     iterated, so the table's internal order cannot leak into the
     result).  Within one run the point is the whole of what an
     evaluation depends on: [Ds.to_config] sets one config field per
     axis, so distinct points give distinct configs, [candidate_options]
     derives the options from the point, and the network set is fixed. *)
  let memo : (Ds.point, outcome) Hashtbl.t = Hashtbl.create 256 in
  (* Replication-1 footprints per (network, xbar geometry); the
     partition table depends only on the crossbar dimensions, so one
     entry serves every candidate sharing an xbar size. *)
  let footprints : (int * int, footprint) Hashtbl.t = Hashtbl.create 16 in
  let footprint net_index xbar_size ~config =
    let key = (net_index, xbar_size) in
    match Hashtbl.find_opt footprints key with
    | Some f -> f
    | None ->
        let _, graph = networks.(net_index) in
        let f = footprint_of ~config graph in
        Hashtbl.add footprints key f;
        f
  in
  (* Analytic pre-filters: only reject candidates the compiler itself
     would reject (capacity) or that the explicit budget excludes. *)
  let prefilter (p : Ds.point) ~config =
    let supply = Ds.crossbar_supply p in
    let rec check_nets i =
      if i >= n_nets then None
      else
        let name, _ = networks.(i) in
        let f = footprint i p.Ds.xbar_size ~config in
        if f.min_xbars > supply then
          Some
            ( Printf.sprintf
                "capacity: %s needs %d crossbars at replication 1, point \
                 supplies %d"
                name f.min_xbars supply,
              `Capacity )
        else if f.max_xbars_per_ag > p.Ds.xbars_per_core then
          Some
            ( Printf.sprintf
                "capacity: an array group of %s spans %d crossbars, a core \
                 has %d"
                name f.max_xbars_per_ag p.Ds.xbars_per_core,
              `Capacity )
        else check_nets (i + 1)
    in
    match check_nets 0 with
    | Some _ as r -> r
    | None -> (
        match params.area_budget_mm2 with
        | Some budget ->
            let area = Pimhw.Config.chip_area_mm2 config in
            if area > budget then
              Some
                ( Printf.sprintf "area %.2f mm2 exceeds budget %.2f mm2" area
                    budget,
                  `Area )
            else None
        | None -> None)
  in
  let over_budget area =
    match params.area_budget_mm2 with
    | Some budget -> area > budget
    | None -> false
  in
  (* Incremental non-dominated archive.  Insertion is idempotent on
     the design point: a revisited candidate (memo hit, or a naive-mode
     re-evaluation) never duplicates an archive entry, so the frontier
     is invariant under [prune]/[memoise].  Once a point is evicted it
     stays dominated forever — dominance is transitive, so an evictor's
     own evictor still dominates the original — hence the dominated
     check below also keeps evicted points out for good. *)
  let archive = ref [] in
  let insert fp =
    if List.exists (fun q -> q.point = fp.point) !archive then ()
    else if
      List.exists (fun q -> dominates q.objectives fp.objectives) !archive
    then incr dominated
    else begin
      let kept, evicted =
        List.partition
          (fun q -> not (dominates fp.objectives q.objectives))
          !archive
      in
      dominated := !dominated + List.length evicted;
      archive := kept @ [ fp ]
    end
  in
  (* One generation: decide each candidate's fate in order, run the
     evaluator once over the queued jobs, then fold outcomes back in
     the same candidate order. *)
  let run_generation candidates =
    (* First pass, in submission order: memo lookup, pre-filters, and
       within-generation duplicate detection (a duplicate of a queued
       twin is pointed at it instead of re-queued).  Job slots are
       assigned here so the evaluator sees one flat batch. *)
    let jobs = ref [] and n_jobs = ref 0 in
    let batch_slot : (Ds.point, int) Hashtbl.t = Hashtbl.create 16 in
    let decisions =
      List.mapi
        (fun i (p : Ds.point) ->
          incr considered;
          let config = Ds.to_config p in
          let options = candidate_options options p in
          let memoised =
            if params.memoise then Hashtbl.find_opt memo p else None
          in
          match memoised with
          | Some outcome ->
              incr memo_hits;
              (p, config, Memoised outcome)
          | None -> (
              let pruned =
                if params.prune then prefilter p ~config else None
              in
              match pruned with
              | Some (reason, kind) ->
                  (match kind with
                  | `Capacity -> incr pruned_capacity
                  | `Area -> incr pruned_area);
                  pruned_log := (p, reason) :: !pruned_log;
                  (p, config, Pruned (reason, kind))
              | None -> (
                  let twin =
                    if params.memoise then Hashtbl.find_opt batch_slot p
                    else None
                  in
                  match twin with
                  | Some j -> (p, config, Same_as j)
                  | None ->
                      let base_slot = !n_jobs in
                      for net = 0 to n_nets - 1 do
                        jobs :=
                          { point = p; config; options; network = net }
                          :: !jobs;
                        incr n_jobs
                      done;
                      incr evaluated;
                      if params.memoise then Hashtbl.add batch_slot p i;
                      (p, config, Queued base_slot))))
        candidates
    in
    let job_array = Array.of_list (List.rev !jobs) in
    eval_jobs := !eval_jobs + Array.length job_array;
    let results =
      if Array.length job_array = 0 then [||]
      else begin
        let r, seconds = Pimutil.Clock.timed (fun () -> eval job_array) in
        eval_seconds := !eval_seconds +. seconds;
        if Array.length r <> Array.length job_array then
          invalid_arg
            (Printf.sprintf
               "Synth.run: evaluator returned %d results for %d jobs"
               (Array.length r) (Array.length job_array));
        r
      end
    in
    (* Fold outcomes back in candidate order. *)
    let outcomes = Array.make (List.length decisions) None in
    List.iteri
      (fun i (p, config, d) ->
        let outcome =
          match d with
          | Memoised o -> Some o
          | Pruned _ -> None
          | Same_as j ->
              incr memo_hits;
              outcomes.(j)
          | Queued base_slot ->
              let rec collect net acc =
                if net >= n_nets then
                  let per_net = Array.of_list (List.rev acc) in
                  let times = Array.map (fun (_, t, _) -> t) per_net in
                  let energies = Array.map (fun (_, _, e) -> e) per_net in
                  Some
                    (Ok_point
                       ( {
                           time_ns = geomean times;
                           energy_pj = geomean energies;
                           area_mm2 = Pimhw.Config.chip_area_mm2 config;
                         },
                         per_net ))
                else
                  let name, _ = networks.(net) in
                  match results.(base_slot + net) with
                  | Eval_ok { time_ns; energy_pj } ->
                      collect (net + 1) ((name, time_ns, energy_pj) :: acc)
                  | Eval_infeasible reason ->
                      Some
                        (Infeasible_point
                           (Printf.sprintf "%s: %s" name reason))
              in
              collect 0 []
        in
        outcomes.(i) <- outcome;
        (match (d, outcome) with
        | Queued _, Some o when params.memoise -> Hashtbl.replace memo p o
        | _ -> ());
        match outcome with
        | None -> ()
        | Some (Infeasible_point reason) ->
            (match d with
            | Queued _ ->
                incr infeasible;
                infeasible_log := (p, reason) :: !infeasible_log
            | _ -> ())
        | Some (Ok_point (objectives, per_net)) ->
            if over_budget objectives.area_mm2 then begin
              (* Naive mode evaluates over-budget points; the budget
                 still excludes them from the frontier so that pruning
                 never changes the result. *)
              match d with
              | Queued _ ->
                  incr pruned_area;
                  pruned_log :=
                    ( p,
                      Printf.sprintf "area %.2f mm2 exceeds budget"
                        objectives.area_mm2 )
                    :: !pruned_log
              | _ -> ()
            end
            else insert { point = p; objectives; per_network = per_net })
      decisions
  in
  (* Seed round. *)
  let rng = Rng.create ~seed:params.seed in
  let seed_candidates =
    if params.grid_seed then Ds.enumerate axes
    else begin
      let r = Rng.split rng in
      List.init params.children (fun _ -> random_point r axes)
    end
  in
  run_generation seed_candidates;
  (* Evolution rounds: parents drawn from the current archive. *)
  for _gen = 1 to params.generations do
    let gen_rng = Rng.split rng in
    let parents = Array.of_list !archive in
    let candidates =
      List.init params.children (fun _ ->
          if Array.length parents = 0 then random_point gen_rng axes
          else
            let parent = Rng.pick gen_rng parents in
            mutate gen_rng axes parent.point)
    in
    run_generation candidates
  done;
  let frontier =
    List.sort
      (fun a b ->
        let c = compare a.objectives.time_ns b.objectives.time_ns in
        if c <> 0 then c
        else
          let c = compare a.objectives.energy_pj b.objectives.energy_pj in
          if c <> 0 then c
          else
            let c = compare a.objectives.area_mm2 b.objectives.area_mm2 in
            if c <> 0 then c else compare a.point b.point)
      !archive
  in
  {
    frontier;
    stats =
      {
        considered = !considered;
        evaluated = !evaluated;
        eval_jobs = !eval_jobs;
        memo_hits = !memo_hits;
        pruned_capacity = !pruned_capacity;
        pruned_area = !pruned_area;
        infeasible = !infeasible;
        dominated = !dominated;
        generations = params.generations + 1;
        wall_seconds = 0.0 (* stamped by [run] *);
        eval_seconds = !eval_seconds;
      };
    infeasible_points = List.rev !infeasible_log;
    pruned_points = List.rev !pruned_log;
  }

let run ?(params = default_params)
    ?(options = { Compile.default_options with strategy = Compile.Puma_like })
    ~axes ~networks ~eval () =
  if Array.length networks = 0 then invalid_arg "Synth.run: no networks";
  if params.generations < 0 then invalid_arg "Synth.run: negative generations";
  if params.children <= 0 then invalid_arg "Synth.run: children must be positive";
  Ds.validate_axes axes;
  let result, wall_seconds =
    Pimutil.Clock.timed (fun () ->
        search ~params ~options ~axes ~networks ~eval)
  in
  { result with stats = { result.stats with wall_seconds } }

(* --- reports ------------------------------------------------------------ *)

module J = Pimutil.Json

let pp_frontier ppf frontier =
  Fmt.pf ppf "%-22s | %12s %12s %10s@\n" "point" "time us" "energy uJ"
    "area mm2";
  List.iter
    (fun fp ->
      Fmt.pf ppf "%-22s | %12.2f %12.2f %10.2f@\n" (Ds.point_name fp.point)
        (fp.objectives.time_ns /. 1e3)
        (fp.objectives.energy_pj /. 1e6)
        fp.objectives.area_mm2)
    frontier

let point_json (p : Ds.point) =
  J.Obj
    [
      ("name", J.String (Ds.point_name p));
      ("xbar_size", J.Int p.Ds.xbar_size);
      ("xbars_per_core", J.Int p.Ds.xbars_per_core);
      ("core_count", J.Int p.Ds.core_count);
      ("local_memory_kb", J.Int p.Ds.local_memory_kb);
      ("vfus_per_core", J.Int p.Ds.vfus_per_core);
    ]

let frontier_json frontier =
  J.List
    (List.map
       (fun fp ->
         J.Obj
           [
             ("point", point_json fp.point);
             ("time_ns", J.Float fp.objectives.time_ns);
             ("energy_pj", J.Float fp.objectives.energy_pj);
             ("area_mm2", J.Float fp.objectives.area_mm2);
             ( "per_network",
               J.List
                 (Array.to_list
                    (Array.map
                       (fun (name, time_ns, energy_pj) ->
                         J.Obj
                           [
                             ("network", J.String name);
                             ("time_ns", J.Float time_ns);
                             ("energy_pj", J.Float energy_pj);
                           ])
                       fp.per_network)) );
           ])
       frontier)

let candidates_per_sec s =
  if s.wall_seconds > 0.0 then float_of_int s.considered /. s.wall_seconds
  else 0.0

let stats_json s =
  J.Obj
    [
      ("considered", J.Int s.considered);
      ("evaluated", J.Int s.evaluated);
      ("eval_jobs", J.Int s.eval_jobs);
      ("memo_hits", J.Int s.memo_hits);
      ("pruned_capacity", J.Int s.pruned_capacity);
      ("pruned_area", J.Int s.pruned_area);
      ("infeasible", J.Int s.infeasible);
      ("dominated", J.Int s.dominated);
      ("generations", J.Int s.generations);
      ("wall_seconds", J.Float s.wall_seconds);
      ("eval_seconds", J.Float s.eval_seconds);
      ("candidates_per_sec", J.Float (candidates_per_sec s));
    ]

let to_json ~mode ~seed r =
  J.Obj
    [
      ("mode", J.String (Mode.to_string mode));
      ("seed", J.Int seed);
      ("frontier", frontier_json r.frontier);
      ("stats", stats_json r.stats);
      ( "infeasible",
        J.List
          (List.map
             (fun (p, reason) ->
               J.Obj [ ("point", point_json p); ("reason", J.String reason) ])
             r.infeasible_points) );
      ("pruned", J.Int (List.length r.pruned_points));
    ]
