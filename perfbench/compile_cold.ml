(* compile-cold: the paper's Table II path, in this process.  An op takes
   a paper network's .nnt text through Text_format.of_string and then
   Compile.compile at CLI defaults (GA 100 x 200, AG-reuse, verify on);
   about one op in five also takes the `compile --emit-isa` -> `verify
   prog.isa` path (Isa_text print, parse, Verify.run).  No op shares
   work with another and neither cache nor engine runs, so a GA change
   shows here and only here. *)

module C = Pimcomp.Compile

let hw = Pimhw.Config.puma_like

type job = { net : string; mode : Pimcomp.Mode.t; text : string }
type op = { job : int; ga_seed : int; export : bool }

type state = { jobs : job array; order : Random.State.t }

(* Two GA seeds (the CLI default and the next) keep the distinct
   programs at twenty, so each is simulated once for the modelled
   metrics.  They are fixed rather than drawn from the workload seed:
   the GA seed changes the programs, and with them compile cost and the
   modelled metrics, by about 10%, which would make runs on different
   workload seeds incomparable. *)
let ga_seeds = [| 42; 43 |]

let options job ga_seed = { C.default_options with mode = job.mode; seed = ga_seed }

let mode_name = Pimcomp.Mode.to_string

(* Five paper networks at the CLI's default (factor-4) input size, x HT
   and LL. *)
let setup_state ~seed =
  let jobs =
    Array.of_list
      (List.concat_map
         (fun net ->
           let graph =
             Nnir.Zoo.build
               ~input_size:(Nnir.Zoo.scaled_input_size ~factor:4 net)
               net
           in
           let text = Nnir.Text_format.to_string graph in
           List.map
             (fun mode -> { net; mode; text })
             [ Pimcomp.Mode.High_throughput; Pimcomp.Mode.Low_latency ])
         Nnir.Zoo.paper_benchmarks)
  in
  { jobs; order = Util.rng ~seed ~salt:1 }

let rounds_per_epoch = 5
let epoch_seconds = 20.

(* An epoch is five rounds, in seeded order; a round compiles every job
   once with the round's GA seed (alternating).  Each job also exports
   in exactly one round -- both modes of one network per round -- so
   one op in five exports. *)
let next_epoch s () =
  let n = Array.length s.jobs in
  Util.shuffled s.order
    (Array.concat
       (List.init rounds_per_epoch (fun r ->
            Array.init n (fun job ->
                {
                  job;
                  ga_seed = ga_seeds.(r mod Array.length ga_seeds);
                  export = job * rounds_per_epoch / n = r;
                }))))

(* What the run keeps of an op.  Programs are kept once per distinct
   (job, GA seed), in [distinct], marshalled: flat strings keep the
   retained heap small and unscanned, so the heap peak and GC work of
   later ops do not depend on the order the seed gave the ops. *)
type result = {
  op : op;
  seconds : float;
  instrs : int;
  evals : int;
  failed_mutations : int;
  errors : string list;
}

let evaluations = function
  | Some g -> (g.Pimcomp.Genetic.evaluations, g.Pimcomp.Genetic.failed_mutations)
  | None -> (0, 0)

(* Checks an op's output: an exported program must survive the .isa
   round trip unchanged and pass Verify, and a repeat of a (job, GA
   seed) must equal its first compile bit for bit. *)
let check distinct op program exported =
  let key = (op.job, op.ga_seed) in
  (match exported with
  | Some (back, _) when back <> program ->
      [ ".isa round trip changed the program" ]
  | Some (_, (_ :: _ as vs)) ->
      [ Format.asprintf "exported program fails Verify: %a" Pimcomp.Verify.report vs ]
  | _ -> [])
  @
  let bytes = Marshal.to_string program [] in
  match Hashtbl.find_opt distinct key with
  | Some b when b <> bytes -> [ "same job and GA seed compiled to a different program" ]
  | Some _ -> []
  | None ->
      Hashtbl.replace distinct key bytes;
      []

let run_op s distinct op =
  let job = s.jobs.(op.job) in
  let (program, ga, exported), seconds =
    Util.timed (fun () ->
        let graph = Nnir.Text_format.of_string job.text in
        let r = C.compile ~options:(options job op.ga_seed) hw graph in
        let exported =
          if op.export then
            let back =
              Pimcomp.Isa_text.of_string (Pimcomp.Isa_text.to_string r.C.program)
            in
            Some (back, Pimcomp.Verify.run ~config:hw back)
          else None
        in
        (r.C.program, r.C.ga, exported))
  in
  let evals, failed_mutations = evaluations ga in
  {
    op;
    seconds;
    instrs = Pimcomp.Isa.num_instrs program;
    evals;
    failed_mutations;
    errors = check distinct op program exported;
  }

let traced_op s i op =
  let job = s.jobs.(op.job) in
  Spans.op i (fun () ->
      let graph =
        Spans.span "nnir.parse" (fun () -> Nnir.Text_format.of_string job.text)
      in
      let program, ga = Staged.compile ~options:(options job op.ga_seed) hw graph in
      let exported =
        if op.export then
          let text =
            Spans.span "isa_text.print" (fun () ->
                Pimcomp.Isa_text.to_string program)
          in
          let back =
            Spans.span "isa_text.parse" (fun () -> Pimcomp.Isa_text.of_string text)
          in
          Spans.count "isa_text.instrs" (Pimcomp.Isa.num_instrs program);
          Some (back, Staged.verify hw back)
        else None
      in
      (program, ga, exported))

let warm_up s =
  ignore (run_op s (Hashtbl.create 1) { job = 4; ga_seed = ga_seeds.(0); export = true })

let setup_only ~seed ~cli:_ = warm_up (setup_state ~seed)

let op_line s i (r : result) =
  let job = s.jobs.(r.op.job) in
  Printf.sprintf "op %d %s %s ga_seed=%d export=%b instrs=%d evals=%d failed=%d"
    i job.net (mode_name job.mode) r.op.ga_seed r.op.export r.instrs r.evals
    r.failed_mutations

let sum_seconds = List.fold_left (fun acc (r : result) -> acc +. r.seconds) 0.

let run ~seed ~cli:_ ~seconds ~trace ~t_start =
  let s = setup_state ~seed in
  warm_up s;
  let setup_s = Util.now () -. t_start in
  let distinct = Hashtbl.create 32 in
  let gc0 = Util.major_collections () in
  let results =
    Util.run_epochs
      ~epochs:
        (Util.epochs ~seconds:(if trace then seconds /. 2. else seconds) ~epoch_seconds)
      (next_epoch s) (run_op s distinct)
  in
  let majors = Util.major_collections () - gc0 in
  let n = List.length results in
  let repeat_ops = List.mapi (op_line s) results in
  if not trace then begin
    (* Modelled metrics over the twenty distinct programs (an epoch
       compiles each). *)
    let programs =
      List.concat_map
        (fun job ->
          List.map
            (fun g ->
              ((job, g), (Marshal.from_string (Hashtbl.find distinct (job, g)) 0 : Pimcomp.Isa.t)))
            (Array.to_list ga_seeds))
        (List.init (Array.length s.jobs) Fun.id)
    in
    let sims = List.map (fun (key, p) -> (key, p, Pimsim.Engine.run hw p)) programs in
    let results =
      List.map
        (fun (r : result) ->
          let _, _, m =
            List.find (fun (key, _, _) -> key = (r.op.job, r.op.ga_seed)) sims
          in
          if m.Pimsim.Metrics.deadlocked then
            { r with errors = "program deadlocks in simulation" :: r.errors }
          else r)
        results
    in
    let times = List.map (fun (r : result) -> 1000. *. r.seconds) results in
    let p, tail_ms, beyond = Util.tail times in
    {
      Util.setup_s;
      attempted = n;
      failed = List.length (List.filter (fun (r : result) -> r.errors <> []) results);
      errors = List.concat_map (fun (r : result) -> r.errors) results;
      metrics =
        [
          ("ops_per_s", float_of_int n /. sum_seconds results);
          ("op_p50_ms", Util.median times);
          ("op_tail_ms", tail_ms);
          ("rss_peak_mb", Util.rss_peak_mb "self");
        ]
        @ Util.modelled
            ~inferences:
              (List.map (fun (_, _, m) -> (Util.model_time_ns m, Util.energy_uj m)) sims)
            ~programs:(List.map snd programs);
      notes =
        [
          Printf.sprintf "op_tail_ms is p%d over %d ops (%d beyond it)" p n beyond;
          Printf.sprintf "%d major GCs over %d ops" majors n;
        ];
      repeat_ops;
      repeat_end =
        List.map
          (fun ((job, g), p, m) ->
            Printf.sprintf "%s %s ga_seed=%d program=%s time=%h energy=%h"
              s.jobs.(job).net (mode_name s.jobs.(job).mode) g
              (Digest.to_hex (Digest.string (Marshal.to_string p [])))
              (Util.model_time_ns m) (Util.energy_uj m))
          sims;
    }
  end
  else begin
    (* Traced phase: the same ops through the recomposed pipeline, each
       checked against the untraced op. *)
    Spans.reset ();
    let traced =
      List.mapi
        (fun i (r : result) ->
          let program, ga, exported = traced_op s i r.op in
          let evals, failed = evaluations ga in
          let errors =
            (if Marshal.to_string program [] <> Hashtbl.find distinct (r.op.job, r.op.ga_seed)
             then
               [ Printf.sprintf "traced op %d: recomposed compile differs from Compile.compile" i ]
             else [])
            @ (if (evals, failed) <> (r.evals, r.failed_mutations) then
                 [ Printf.sprintf "traced op %d: GA evaluation count differs" i ]
               else [])
            @ check distinct r.op program exported
          in
          (r, errors))
        results
    in
    let a = Spans.attribute () in
    {
      Util.setup_s = 0.;
      attempted = n;
      failed = List.length (List.filter (fun (_, e) -> e <> []) traced);
      errors = List.concat_map snd traced;
      metrics =
        Spans.layer_metrics a
        @ [
            ("gc.major_per_op", Util.fdiv majors n);
            ( "trace.overhead_pct",
              100. *. (Util.div a.Spans.op_seconds (sum_seconds results) -. 1.) );
          ];
      notes = [];
      repeat_ops = Spans.fingerprint ();
      repeat_end = [];
    }
  end
