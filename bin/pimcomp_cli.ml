(* pimcomp — command-line front end for the PIMCOMP compilation
   framework.

     pimcomp networks                          list the model zoo
     pimcomp table1                            print the hardware table
     pimcomp compile vgg16 --mode LL ...       compile and report
     pimcomp simulate vgg16 --mode HT ...      compile + cycle-accurate sim
     pimcomp sweep resnet18 -P 4,8,16,32 ...   parallelism sweep over domains
     pimcomp verify alexnet --mode LL          static program verification
     pimcomp export squeezenet --format dot    emit .nnt / .dot

   Networks can be zoo names or paths to .nnt files (the textual model
   format; see Nnir.Text_format). *)

open Cmdliner

(* --- shared argument definitions ------------------------------------------ *)

(* Every compile-option flag takes its default from here (or from
   Genetic.default_params), as do serve's JSON fields. *)
let defaults = Pimcomp.Compile.default_options

(* Mapping strategies by their CLI and serve name. *)
let strategy_name = function
  | Pimcomp.Compile.Genetic_algorithm _ -> "ga"
  | Puma_like -> "puma"
  | Random_search _ -> "random"

let network_arg =
  let doc = "Zoo network name or path to a .nnt model file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NETWORK" ~doc)

let input_size_arg =
  let doc =
    "Input resolution (pixels).  Defaults to the network's native size \
     divided by 4 to keep simulations fast; pass the native size for \
     full-scale compilation."
  in
  Arg.(value & opt (some int) None & info [ "input-size"; "s" ] ~doc)

let mode_arg =
  let doc = "Compilation mode: HT (high throughput) or LL (low latency)." in
  let mode_conv =
    Arg.conv
      ( (fun s ->
          match Pimcomp.Mode.of_string s with
          | m -> Ok m
          | exception Invalid_argument msg -> Error (`Msg msg)),
        fun ppf m -> Pimcomp.Mode.pp ppf m )
  in
  Arg.(value & opt mode_conv defaults.mode & info [ "mode"; "m" ] ~doc)

let parallelism_arg =
  let doc = "Parallelism degree: AGs allowed to compute simultaneously." in
  Arg.(value & opt int defaults.parallelism & info [ "parallelism"; "p" ] ~doc)

let batches_arg =
  let doc =
    "Simulate this many back-to-back pipelined inferences through the \
     constant-memory streaming engine (steady-state period detection on). \
     Default 1: a single cold-start inference."
  in
  Arg.(value & opt int 1 & info [ "batches" ] ~doc)

let cores_arg =
  let doc = "Number of cores (default: smallest machine that fits)." in
  Arg.(value & opt (some int) None & info [ "cores" ] ~doc)

let allocator_arg =
  let doc = "Local-memory allocator: naive, add-reuse, ag-reuse or lifetime." in
  let alloc_conv =
    Arg.conv
      ( (fun s ->
          match Pimcomp.Memalloc.strategy_of_string s with
          | a -> Ok a
          | exception Invalid_argument msg -> Error (`Msg msg)),
        fun ppf a -> Fmt.string ppf (Pimcomp.Memalloc.strategy_name a) )
  in
  Arg.(value & opt alloc_conv defaults.allocator & info [ "allocator" ] ~doc)

let spill_budget_arg =
  let doc =
    "Cap (bytes) on the spill traffic the lifetime allocator may plan; \
     compilation fails if the program cannot fit the scratchpad within the \
     budget.  Unlimited by default; ignored by the legacy allocators."
  in
  Arg.(value & opt (some int) None & info [ "spill-budget" ] ~doc)

let strategy_arg =
  let doc = "Mapping strategy: ga, puma or random." in
  Arg.(
    value
    & opt string (strategy_name defaults.strategy)
    & info [ "strategy" ] ~doc)

let seed_arg =
  let doc = "Random seed for the genetic algorithm." in
  Arg.(value & opt int defaults.seed & info [ "seed" ] ~doc)

let generations_arg =
  let doc = "GA iterations (population is 100, as in the paper)." in
  Arg.(
    value
    & opt int Pimcomp.Genetic.default_params.iterations
    & info [ "generations" ] ~doc)

let fast_arg =
  let doc = "Use the reduced GA setting (population 24) for quick runs." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let ga_islands_arg =
  let doc =
    "Run the GA as a domain-parallel island model with this many islands \
     (the mapping depends only on the seed and the island/migration \
     parameters, never on the machine's core count)."
  in
  Arg.(value & opt (some int) None & info [ "ga-islands" ] ~docv:"N" ~doc)

let ga_migration_arg =
  let doc =
    "Island-GA migration: generations between ring migrations, optionally \
     followed by the number of migrants (INTERVAL or INTERVAL,K).  Implies \
     the island model with the default island count unless --ga-islands is \
     also given."
  in
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "ga-migration" ] ~docv:"INTERVAL[,K]" ~doc)

let verbose_arg =
  let doc = "Print replication decisions and the mapping." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let simplify_arg =
  let doc = "Run graph canonicalisation (identity/flatten removal) first." in
  Arg.(value & flag & info [ "simplify" ] ~doc)

let objective_arg =
  let doc = "GA objective: time or edp (energy-delay product)." in
  Arg.(
    value
    & opt string (Pimcomp.Fitness.objective_name defaults.objective)
    & info [ "objective" ] ~doc)

let verify_flag_arg =
  let on =
    Arg.info [ "verify" ]
      ~doc:
        "Statically verify the compiled program (dependency shape, \
         send/recv rendezvous, memory accounting) before reporting.  On \
         by default."
  in
  let off =
    Arg.info [ "no-verify" ]
      ~doc:"Skip the static program verifier after scheduling."
  in
  Arg.(value & vflag true [ (true, on); (false, off) ])

let emit_isa_arg =
  let doc = "Write the compiled instruction stream (ISA dump) to a file." in
  Arg.(value & opt (some string) None & info [ "emit-isa" ] ~doc)

let emit_trace_arg =
  let doc =
    "Write the simulation event trace (CSV, or a Gantt SVG when the file \
     name ends in .svg; implies simulation)."
  in
  Arg.(value & opt (some string) None & info [ "emit-trace" ] ~doc)

(* --- helpers --------------------------------------------------------------- *)

let load_network name input_size =
  if Sys.file_exists name && Filename.check_suffix name ".nnt" then
    Nnir.Text_format.of_file name
  else if List.mem name Nnir.Zoo.names then
    let size =
      match input_size with
      | Some s -> s
      | None -> Nnir.Zoo.scaled_input_size ~factor:4 name
    in
    Nnir.Zoo.build ~input_size:size name
  else
    raise
      (Invalid_argument
         (Fmt.str "unknown network %S (zoo: %s, or a .nnt file)" name
            (String.concat ", " Nnir.Zoo.names)))

let islands_of_flags islands migration =
  match (islands, migration) with
  | None, None -> None
  | _ ->
      let base = Pimcomp.Genetic.default_island_params in
      let base =
        match islands with
        | Some n when n < 1 ->
            raise (Invalid_argument "--ga-islands must be >= 1")
        | Some n -> { base with Pimcomp.Genetic.islands = n }
        | None -> base
      in
      Some
        (match migration with
        | None -> base
        | Some [ interval ] ->
            { base with Pimcomp.Genetic.migration_interval = interval }
        | Some [ interval; k ] ->
            {
              base with
              Pimcomp.Genetic.migration_interval = interval;
              migration_size = k;
            }
        | Some _ ->
            raise
              (Invalid_argument "--ga-migration expects INTERVAL or INTERVAL,K"))

let objective_of_string = function
  | "time" -> Pimcomp.Fitness.Minimize_time
  | "edp" | "energy-delay" -> Pimcomp.Fitness.Minimize_energy_delay
  | s -> raise (Invalid_argument (Fmt.str "unknown objective %S" s))

(* The one place the commands' flags and serve's JSON fields become
   compile options.  An argument left out keeps its [defaults] value, so
   the CLI and serve compile the same program for the same request. *)
let compile_options ?mode ?parallelism ?cores ?allocator ?spill_budget
    ?strategy ?seed ?generations ?(fast = false) ?objective ?islands
    ?migration ?verify () =
  let params =
    if fast then Pimcomp.Genetic.fast_params
    else
      let p = Pimcomp.Genetic.default_params in
      { p with iterations = Option.value generations ~default:p.iterations }
  in
  let strategy =
    match Option.value strategy ~default:(strategy_name defaults.strategy) with
    | "ga" -> Pimcomp.Compile.Genetic_algorithm params
    | "puma" -> Pimcomp.Compile.Puma_like
    | "random" -> Pimcomp.Compile.Random_search params
    | s -> invalid_arg (Fmt.str "unknown strategy %S" s)
  in
  let or_default field default = if field = None then default else field in
  {
    defaults with
    mode = Option.value mode ~default:defaults.mode;
    parallelism = Option.value parallelism ~default:defaults.parallelism;
    core_count = or_default cores defaults.core_count;
    allocator = Option.value allocator ~default:defaults.allocator;
    spill_budget = or_default spill_budget defaults.spill_budget;
    seed = Option.value seed ~default:defaults.seed;
    strategy;
    objective = Option.value objective ~default:defaults.objective;
    ga_islands =
      or_default (islands_of_flags islands migration) defaults.ga_islands;
    verify = Option.value verify ~default:defaults.verify;
  }

(* The one-line message for every failure bad input can cause, shared
   by the commands and the serve daemon's requests.  Anything else is a
   bug and is re-raised. *)
let error_message = function
  | Invalid_argument msg | Failure msg | Pimutil.Json.Parse_error msg -> msg
  | Nnir.Text_format.Parse_error { line; message } ->
      Fmt.str ".nnt parse error, line %d: %s" line message
  | Nnir.Shape_infer.Shape_error msg -> "shape error: " ^ msg
  | Nnir.Graph.Invalid_graph msg -> "invalid graph: " ^ msg
  | Pimcomp.Isa_text.Parse_error { line; message } ->
      Fmt.str ".isa parse error, line %d: %s" line message
  | Pimcomp.Memalloc.Doesnt_fit msg -> "doesn't fit: " ^ msg
  | Pimcomp.Chromosome.Infeasible msg -> "infeasible: " ^ msg
  | Pimcomp.Artifact.Corrupt msg -> "corrupt artifact: " ^ msg
  | Sys_error msg -> msg
  | Pimcomp.Compile.Job_error _ as exn -> Printexc.to_string exn
  | exn -> raise exn

(* [error_message] for one of many requests or targets: a bug is that
   item's internal error, and the items after it are still answered. *)
let failure_message exn =
  try error_message exn
  with exn -> "internal error: " ^ Printexc.to_string exn

let wrap f = try Ok (f ()) with exn -> Error (`Msg (error_message exn))

(* --- cache plumbing --------------------------------------------------------- *)

let cache_dir_arg =
  let doc =
    "Content-addressed compile cache directory.  Programs are looked up \
     by a digest of (graph, options, hardware) before compiling; an \
     entry is verified on its first load by each process, so hits are \
     indistinguishable from fresh compiles."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let cache_max_mb_arg =
  let doc =
    "Cache size budget in MiB; least-recently-used entries are evicted \
     when a store exceeds it (default: unbounded)."
  in
  Arg.(value & opt (some int) None & info [ "cache-max-mb" ] ~docv:"MB" ~doc)

let open_cache dir max_mb =
  Option.map
    (fun dir ->
      Pimcomp.Cache.open_dir
        ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) max_mb)
        dir)
    dir

(* --- commands -------------------------------------------------------------- *)

let networks_cmd =
  let run () =
    Fmt.pr "%-14s %-12s %-10s %s@." "name" "default px" "min px" "notes";
    List.iter
      (fun name ->
        Fmt.pr "%-14s %-12d %-10d %s@." name
          (Nnir.Zoo.default_input_size name)
          (Nnir.Zoo.min_input_size name)
          (if List.mem name Nnir.Zoo.paper_benchmarks then
             "paper benchmark"
           else ""))
      Nnir.Zoo.names;
    Ok ()
  in
  Cmd.v
    (Cmd.info "networks" ~doc:"List the model zoo.")
    Term.(term_result (const run $ const ()))

let table1_cmd =
  let run () =
    Fmt.pr "%a@." Pimhw.Config.pp_table Pimhw.Config.puma_like;
    Ok ()
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Print the hardware configuration (the paper's Table I).")
    Term.(term_result (const run $ const ()))

let compile_term simulate =
  let run network input_size mode parallelism batches cores allocator
      spill_budget
      strategy seed generations fast ga_islands ga_migration verbose simplify
      objective verify emit_isa emit_trace cache_dir cache_max_mb =
    wrap (fun () ->
        (* the engine's [on_schedule] hook sees one inference *)
        if emit_trace <> None && batches <> 1 then
          invalid_arg
            (Fmt.str
               "--emit-trace records a single inference; it cannot be \
                combined with --batches %d"
               batches);
        let graph = load_network network input_size in
        let graph =
          if simplify then begin
            let r = Nnir.Simplify.run graph in
            if r.Nnir.Simplify.removed > 0 then
              Fmt.pr "simplified away %d nodes@." r.Nnir.Simplify.removed;
            r.Nnir.Simplify.graph
          end
          else graph
        in
        Fmt.pr "%a@.@." Nnir.Stats.pp_summary (Nnir.Stats.of_graph graph);
        let options =
          compile_options ~mode ~parallelism ?cores ~allocator ?spill_budget
            ~strategy ~seed ~generations ~fast
            ~objective:(objective_of_string objective)
            ?islands:ga_islands ?migration:ga_migration ~verify ()
        in
        let hw = Pimhw.Config.puma_like in
        let cache = open_cache cache_dir cache_max_mb in
        let served = Pimcomp.Compile.compile_program ~options ?cache hw graph in
        let program () = Lazy.force served.Pimcomp.Compile.program in
        (match served.Pimcomp.Compile.origin with
        | Cache_off result | Cache_miss { result; _ } ->
            Fmt.pr "%a@." Pimcomp.Report.pp_summary result;
            if verbose then begin
              Fmt.pr "@.replication:@.%a@." Pimcomp.Report.pp_replication
                result;
              Fmt.pr "@.mapping:@.%a@." Pimcomp.Chromosome.pp
                result.Pimcomp.Compile.chromosome
            end
        | Cache_hit _ ->
            (* The full compile record was never built — the program
               itself came off disk, already verified. *)
            let s = served.Pimcomp.Compile.summary in
            Fmt.pr "%s: %d cores, %d instructions (cache hit)@."
              s.Pimcomp.Cache.graph_name s.Pimcomp.Cache.cores
              s.Pimcomp.Cache.instructions);
        (match (cache, served.Pimcomp.Compile.origin) with
        | Some cache, (Cache_miss { key; _ } | Cache_hit { key; _ }) ->
            Fmt.pr "cache %s: key %s in %.3f s  (%a)@."
              (Pimcomp.Compile.outcome_name served.Pimcomp.Compile.origin)
              key served.Pimcomp.Compile.seconds Pimcomp.Cache.pp_stats
              (Pimcomp.Cache.stats cache)
        | _ -> ());
        (match emit_isa with
        | Some path ->
            Pimcomp.Isa_text.to_file path (program ());
            Fmt.pr "wrote instruction stream to %s@." path
        | None -> ());
        (match emit_trace with
        | Some path ->
            let metrics, trace =
              Pimsim.Trace.run ~parallelism hw (program ())
            in
            let payload =
              if Filename.check_suffix path ".svg" then
                Pimsim.Trace.to_svg trace
              else Pimsim.Trace.to_csv trace
            in
            Pimutil.Atomic_io.write_text path payload;
            Fmt.pr "wrote %d trace events to %s@.@.%a@."
              (Pimsim.Trace.length trace) path Pimsim.Metrics.pp metrics
        | None when simulate -> (
            match
              Pimsim.Simulate.run ~parallelism ~batches hw (program ())
            with
            | Pimsim.Simulate.Single metrics ->
                Fmt.pr "@.%a@." Pimsim.Metrics.pp metrics
            | Pimsim.Simulate.Stream (r, _stats) ->
                Fmt.pr "@.%a@.@.%a@." Pimsim.Batch.pp r Pimsim.Metrics.pp
                  r.Pimsim.Batch.metrics)
        | None -> ()))
  in
  (* only [simulate] runs the engine, so only it takes [--batches] *)
  let batches = if simulate then batches_arg else Term.const 1 in
  Term.(
    term_result
      (const run $ network_arg $ input_size_arg $ mode_arg $ parallelism_arg
     $ batches
     $ cores_arg $ allocator_arg $ spill_budget_arg $ strategy_arg $ seed_arg
     $ generations_arg
     $ fast_arg $ ga_islands_arg $ ga_migration_arg $ verbose_arg
     $ simplify_arg $ objective_arg $ verify_flag_arg $ emit_isa_arg
     $ emit_trace_arg $ cache_dir_arg $ cache_max_mb_arg))

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a network and print the compilation report.")
    (compile_term false)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Compile a network and run the cycle-accurate simulator.")
    (compile_term true)

let sweep_cmd =
  let parallelisms_arg =
    let doc = "Comma-separated parallelism degrees to sweep." in
    Arg.(
      value
      & opt (list int) [ 4; 8; 16; 32 ]
      & info [ "parallelisms"; "P" ] ~docv:"P1,P2,..." ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains for the sweep (default: the host's recommended \
       domain count)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc)
  in
  let run network input_size strategy seed generations fast allocator domains
      parallelisms =
    wrap (fun () ->
        let graph = load_network network input_size in
        let hw = Pimhw.Config.puma_like in
        let options =
          compile_options ~allocator ~strategy ~seed ~generations ~fast ()
        in
        let points =
          Array.of_list
            (List.concat_map
               (fun mode -> List.map (fun p -> (mode, p)) parallelisms)
               Pimcomp.Mode.all)
        in
        (* Each point is an independent seeded compile+simulate; the
           domain pool returns them in point order, identical to a
           sequential run. *)
        let results, dt =
          Pimutil.Clock.timed (fun () ->
              Pimutil.Domain_pool.map ?domains
                (fun (mode, parallelism) ->
                  let options = { options with mode; parallelism } in
                  let r = Pimcomp.Compile.compile ~options hw graph in
                  Pimsim.Engine.run ~parallelism hw r.Pimcomp.Compile.program)
                points)
        in
        Fmt.pr "%-4s %5s | %12s %12s %12s@." "mode" "P" "thr inf/s" "lat us"
          "energy uJ";
        Array.iteri
          (fun i (m : Pimsim.Metrics.t) ->
            let mode, p = points.(i) in
            Fmt.pr "%-4s %5d | %12.0f %12.1f %12.1f@."
              (Pimcomp.Mode.to_string mode)
              p m.Pimsim.Metrics.throughput_ips
              (m.Pimsim.Metrics.latency_ns /. 1e3)
              (Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy /. 1e6))
          results;
        Fmt.pr "@.%d points in %.2f s on %d domains@." (Array.length points)
          dt
          (match domains with
          | Some d -> max 1 d
          | None -> Pimutil.Domain_pool.default_domains ()))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Compile and simulate a network across parallelism degrees and \
          both modes, fanned out over OCaml domains.")
    Term.(
      term_result
        (const run $ network_arg $ input_size_arg $ strategy_arg $ seed_arg
       $ generations_arg $ fast_arg $ allocator_arg $ domains_arg
       $ parallelisms_arg))

let jobs_arg =
  let doc =
    "Worker domains for fanning independent compiles out in parallel \
     (default: the host's recommended domain count).  Results are \
     bit-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let verify_cmd =
  let run targets input_size mode allocator strategy seed generations fast
      jobs =
    wrap (fun () ->
        let hw = Pimhw.Config.puma_like in
        (* "zoo" expands to the whole model zoo — the verifier sweep. *)
        let targets =
          List.concat_map
            (fun t -> if t = "zoo" then Nnir.Zoo.names else [ t ])
            targets
        in
        let options =
          compile_options ~verify:false ~mode ~allocator ~strategy ~seed
            ~generations ~fast ()
        in
        (* One job per target, fanned across --jobs domains: an .isa dump
           parses, anything else loads and compiles, and then the program
           is verified.  A target that fails to load or compile fails
           alone, so every other target still gets its verdict. *)
        let check target =
          match
            if Sys.file_exists target && Filename.check_suffix target ".isa"
            then (Pimcomp.Isa_text.of_file target, None)
            else
              let r =
                Pimcomp.Compile.compile ~options hw
                  (load_network target input_size)
              in
              (r.Pimcomp.Compile.program, Some r.Pimcomp.Compile.graph)
          with
          | exception exn -> Error (Fmt.str "%s: %s" target (failure_message exn))
          | program, graph -> (
              match Pimcomp.Verify.run ?graph ~config:hw program with
              | [] ->
                  Ok
                    (Fmt.str "%s: verified: %d cores, %d instructions, no \
                              violations"
                       target program.Pimcomp.Isa.core_count
                       (Pimcomp.Isa.num_instrs program))
              | vs -> Error (Fmt.str "%s:@.%a" target Pimcomp.Verify.report vs))
        in
        let verdicts =
          Pimutil.Domain_pool.map ?domains:jobs check (Array.of_list targets)
        in
        let failed = ref 0 in
        Array.iter
          (function
            | Ok line -> Fmt.pr "%s@." line
            | Error text ->
                incr failed;
                Fmt.epr "%s@." text)
          verdicts;
        if !failed > 0 then
          raise (Invalid_argument (Fmt.str "%d target(s) failed" !failed)))
  in
  let targets_arg =
    let doc =
      "Zoo network names, .nnt model files, compiled .isa dumps, or the \
       literal \"zoo\" for every zoo network."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify compiled programs: structural \
          well-formedness, send/recv rendezvous soundness and \
          deadlock-freedom, and memory accounting.  Each TARGET is one \
          job across --jobs domains: networks are compiled first, .isa \
          dumps are parsed directly.  A failing target is named on \
          stderr, the others are still checked, and the command exits 124.")
    Term.(
      term_result
        (const run $ targets_arg $ input_size_arg $ mode_arg $ allocator_arg
       $ strategy_arg $ seed_arg $ generations_arg $ fast_arg $ jobs_arg))

let export_cmd =
  let format_arg =
    let doc = "Output format: nnt (textual model) or dot (Graphviz)." in
    Arg.(value & opt string "nnt" & info [ "format"; "f" ] ~doc)
  in
  let output_arg =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~doc)
  in
  let run network input_size format output =
    wrap (fun () ->
        let graph = load_network network input_size in
        let text =
          match format with
          | "nnt" -> Nnir.Text_format.to_string graph
          | "dot" -> Nnir.Graph.to_dot graph
          | f -> raise (Invalid_argument (Fmt.str "unknown format %S" f))
        in
        match output with
        | None -> print_string text
        | Some path ->
            Pimutil.Atomic_io.write_text path text;
            Fmt.pr "wrote %s@." path)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a network as .nnt or Graphviz .dot.")
    Term.(
      term_result
        (const run $ network_arg $ input_size_arg $ format_arg $ output_arg))

(* --- serve: persistent compile daemon -------------------------------------- *)

(* One JSON object per line in, one per line out, in request order.
   Lines that arrive together form a batch and compile concurrently on
   the warm domain pool.  Ops: ping, stats, shutdown, compile, verify,
   simulate — see README.md for the field reference. *)
module Serve = struct
  module J = Pimutil.Json

  let error msg = J.Obj [ ("ok", J.Bool false); ("error", J.String msg) ]

  (* From the summary alone: a recalled hit's program is decoded only
     for the ops that run it. *)
  let program_fields (served : Pimcomp.Compile.served) =
    let s = served.Pimcomp.Compile.summary in
    [
      ("ok", J.Bool true);
      ("graph", J.String s.Pimcomp.Cache.graph_name);
      ( "outcome",
        J.String (Pimcomp.Compile.outcome_name served.Pimcomp.Compile.origin)
      );
      ( "key",
        match served.Pimcomp.Compile.origin with
        | Cache_miss { key; _ } | Cache_hit { key; _ } -> J.String key
        | Cache_off _ -> J.Null );
      ("seconds", J.Float served.Pimcomp.Compile.seconds);
      ("cores", J.Int s.Pimcomp.Cache.cores);
      ("instructions", J.Int s.Pimcomp.Cache.instructions);
    ]

  (* Heavy ops run on pool domains; everything here must only touch the
     request's own data plus the domain-safe cache handle and simulation
     record.  [verify] always compiles with the verifier on: a miss
     verifies in [Compile.compile] and a hit in [Cache.find], and a
     violation surfaces as the compile error.  A [simulate] hit on bytes
     the daemon has already simulated at the same batch count is
     answered from [sims]. *)
  let run_heavy ~hw ~cache ~sims op req =
    let graph =
      load_network
        (J.string_field "network" req)
        (J.opt_int_field "input_size" req)
    in
    (* A field the request leaves out keeps its compile default. *)
    let field read key =
      Option.map (fun _ -> read key req) (J.member key req)
    in
    let parse of_string key = Option.map of_string (field J.string_field key) in
    let options =
      compile_options
        ?mode:(parse Pimcomp.Mode.of_string "mode")
        ?parallelism:(field J.int_field "parallelism")
        ?cores:(J.opt_int_field "cores" req)
        ?allocator:(parse Pimcomp.Memalloc.strategy_of_string "allocator")
        ?spill_budget:(J.opt_int_field "spill_budget" req)
        ?strategy:(field J.string_field "strategy")
        ?seed:(field J.int_field "seed")
        ?generations:(field J.int_field "generations")
        ?fast:(field J.bool_field "fast")
        ?objective:(parse objective_of_string "objective")
        ?verify:
          (if op = "verify" then Some true else field J.bool_field "verify")
        ()
    in
    let served = Pimcomp.Compile.compile_program ~options ?cache hw graph in
    match op with
    | "compile" -> J.Obj (program_fields served)
    | "verify" -> J.Obj (program_fields served @ [ ("violations", J.Int 0) ])
    | "simulate" ->
        let per_inference (m : Pimsim.Metrics.t) =
          [
            ("latency_ns", J.Float m.Pimsim.Metrics.latency_ns);
            ("throughput_ips", J.Float m.Pimsim.Metrics.throughput_ips);
            ( "energy_pj",
              J.Float (Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy) );
          ]
        in
        let fields =
          match
            Pimsim.Simulate.served sims
              ~parallelism:options.Pimcomp.Compile.parallelism
              ~batches:(J.int_field ~default:1 "batches" req)
              hw served
          with
          | Pimsim.Simulate.Single m -> per_inference m
          | Pimsim.Simulate.Stream ((r : Pimsim.Batch.result), stats) ->
              [
                ("batches", J.Int r.batches);
                ("total_ns", J.Float r.total_ns);
                ("steady_interval_ns", J.Float r.steady_interval_ns);
              ]
              @ per_inference r.metrics
              @ [
                  ( "simulated_instances",
                    J.Int stats.Pimsim.Engine.simulated_instances );
                  ( "extrapolated_instances",
                    J.Int stats.Pimsim.Engine.extrapolated_instances );
                ]
        in
        J.Obj (program_fields served @ fields)
    | op -> error (Fmt.str "unknown op %S" op)

  let stats_response ~cache ~sims =
    let cache_fields =
      match cache with
      | None -> [ ("cache", J.Bool false) ]
      | Some cache ->
          ("cache", J.Bool true)
          :: ("dir", J.String (Pimcomp.Cache.dir cache))
          :: List.map
               (fun (name, n) -> (name, J.Int n))
               (Pimcomp.Cache.stats_fields (Pimcomp.Cache.stats cache))
    in
    let c = Pimsim.Simulate.counts sims in
    J.Obj
      ((("ok", J.Bool true) :: cache_fields)
      @ [
          ("simulated", J.Int c.Pimsim.Simulate.simulated);
          ("sim_recalled", J.Int c.Pimsim.Simulate.recalled);
        ])

  (* A batch of request lines -> response lines (same order) + verdict.
     Light ops answer inline; heavy ops fan out over the pool, in
     segments that end at each [stats] line, so a stats answer counts
     every request before it in its batch and none after it.  Every
     failure is attributed to its own request line — one bad request
     never poisons its batchmates or the daemon.  An exception that
     [error_message] does not know is a bug: it is answered as an
     internal error, and the daemon keeps serving. *)
  let handle ~hw ~cache ~sims ~pool lines =
    let classified =
      List.map
        (fun line ->
          match J.of_string line with
          | exception J.Parse_error msg -> `Done (error msg)
          | req -> (
              match J.string_field ~default:"" "op" req with
              | "ping" -> `Done (J.Obj [ ("ok", J.Bool true) ])
              | "stats" -> `Stats
              | "shutdown" -> `Stop (J.Obj [ ("ok", J.Bool true) ])
              | ("compile" | "verify" | "simulate") as op -> `Heavy (op, req)
              | "" -> `Done (error "missing op")
              | op -> `Done (error (Fmt.str "unknown op %S" op))))
        lines
    in
    let responses = Array.make (List.length classified) J.Null in
    (* (line index, op, request) of the heavy requests not yet run,
       newest first *)
    let segment = ref [] in
    let run_segment () =
      let heavy = Array.of_list (List.rev !segment) in
      segment := [];
      let results =
        Pimutil.Domain_pool.Persistent.run pool
          (fun (_, op, req) ->
            try run_heavy ~hw ~cache ~sims op req
            with exn -> error (failure_message exn))
          heavy
      in
      Array.iteri (fun k (i, _, _) -> responses.(i) <- results.(k)) heavy
    in
    let stop = ref false in
    List.iteri
      (fun i c ->
        match c with
        | `Done json -> responses.(i) <- json
        | `Stop json ->
            stop := true;
            responses.(i) <- json
        | `Heavy (op, req) -> segment := (i, op, req) :: !segment
        | `Stats ->
            run_segment ();
            responses.(i) <- stats_response ~cache ~sims)
      classified;
    run_segment ();
    (Array.to_list (Array.map J.to_string responses),
     if !stop then Pimutil.Line_server.Stop else
       Pimutil.Line_server.Continue)

  let run_stdio ~hw ~cache ~sims ~pool =
    Pimutil.Line_server.serve ~input:Unix.stdin ~output:Unix.stdout
      ~handle:(handle ~hw ~cache ~sims ~pool)

  let run_socket ~hw ~cache ~sims ~pool path =
    if Sys.file_exists path then Sys.remove path;
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 16;
        Fmt.epr "pimcomp serve: listening on %s@." path;
        let stopped = ref false in
        while not !stopped do
          let client, _ = Unix.accept sock in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close client with Unix.Unix_error _ -> ())
            (fun () ->
              (* Track shutdown so it also ends the accept loop. *)
              let handle lines =
                let responses, verdict = handle ~hw ~cache ~sims ~pool lines in
                if verdict = Pimutil.Line_server.Stop then stopped := true;
                (responses, verdict)
              in
              Pimutil.Line_server.serve ~input:client ~output:client ~handle)
        done)
end

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix domain socket instead of stdin/stdout.  Clients \
       connect one at a time; a shutdown op ends the daemon."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let run cache_dir cache_max_mb socket jobs =
    wrap (fun () ->
        let hw = Pimhw.Config.puma_like in
        let cache = open_cache cache_dir cache_max_mb in
        let sims = Pimsim.Simulate.record () in
        let pool = Pimcomp.Sched_common.warm_pool jobs in
        (* A client that hangs up must end only its own conversation. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Fun.protect
          ~finally:(fun () -> Pimutil.Domain_pool.Persistent.shutdown pool)
          (fun () ->
            match socket with
            | None -> Serve.run_stdio ~hw ~cache ~sims ~pool
            | Some path -> Serve.run_socket ~hw ~cache ~sims ~pool path))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run as a persistent compile daemon: JSON requests, one per \
          line, answered in order; lines that arrive together compile \
          concurrently on a warm domain pool.  Ops: ping, stats, \
          shutdown, compile, verify, simulate.  With --cache, programs \
          are served from the content-addressed artifact cache when \
          possible (the daemon verifies each entry on its first load \
          and recalls those exact bytes by a keyed MAC after that).")
    Term.(
      term_result
        (const run $ cache_dir_arg $ cache_max_mb_arg $ socket_arg $ jobs_arg))

(* --- cache: inspect / maintain a cache directory ---------------------------- *)

let cache_cmd =
  let action_arg =
    let doc = "Action: stats, list, clear or evict." in
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("list", `List);
                            ("clear", `Clear); ("evict", `Evict) ])) None
      & info [] ~docv:"ACTION" ~doc)
  in
  let dir_arg =
    let doc = "Cache directory." in
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let run action dir max_mb =
    wrap (fun () ->
        let cache =
          match open_cache (Some dir) max_mb with
          | Some c -> c
          | None -> assert false
        in
        match action with
        | `Stats ->
            (* what the directory holds: a fresh handle counts no hits *)
            let { Pimcomp.Cache.entries; bytes; _ } = Pimcomp.Cache.stats cache in
            Fmt.pr "entries %d  bytes %d@." entries bytes
        | `List ->
            List.iter
              (fun (key, graph, bytes, _mtime) ->
                Fmt.pr "%s %-14s %d@." key graph bytes)
              (Pimcomp.Cache.list cache)
        | `Clear ->
            Fmt.pr "removed %d entries@." (Pimcomp.Cache.clear cache)
        | `Evict ->
            if max_mb = None then
              raise (Invalid_argument "evict requires --cache-max-mb");
            Fmt.pr "evicted %d entries@." (Pimcomp.Cache.trim cache))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain a compile-cache directory: stats, list \
          (newest first), clear, or evict down to --cache-max-mb.")
    Term.(term_result (const run $ action_arg $ dir_arg $ cache_max_mb_arg))

(* --- synth: multi-objective hardware design-space search -------------------- *)

let synth_cmd =
  let networks_arg =
    let doc =
      "Networks to synthesise hardware for: zoo names or .nnt files \
       (\"zoo\" expands to the whole zoo; default: the paper's benchmark \
       set)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"NETWORK" ~doc)
  in
  let axis_arg names ~docv ~doc default =
    Arg.(value & opt (list int) default & info names ~docv ~doc)
  in
  let xbar_sizes_arg =
    axis_arg [ "xbar-sizes" ] ~docv:"N,..."
      ~doc:"Candidate crossbar sizes (square arrays)."
      Pimhw.Design_space.default_axes.Pimhw.Design_space.xbar_size_axis
  in
  let xbars_per_core_arg =
    axis_arg [ "xbars-per-core" ] ~docv:"N,..."
      ~doc:"Candidate crossbars-per-core counts."
      Pimhw.Design_space.default_axes.Pimhw.Design_space.xbars_per_core_axis
  in
  let core_counts_arg =
    axis_arg [ "core-counts" ] ~docv:"N,..."
      ~doc:
        "Candidate core counts (the NoC mesh shape follows from the \
         count: nearest square, ragged last row)."
      Pimhw.Design_space.default_axes.Pimhw.Design_space.core_count_axis
  in
  let local_kb_arg =
    axis_arg [ "local-kb" ] ~docv:"N,..."
      ~doc:"Candidate local scratchpad capacities in kB."
      Pimhw.Design_space.default_axes.Pimhw.Design_space.local_memory_kb_axis
  in
  let vfus_arg =
    axis_arg [ "vfus" ] ~docv:"N,..."
      ~doc:"Candidate VFU-per-core counts."
      Pimhw.Design_space.default_axes.Pimhw.Design_space.vfus_per_core_axis
  in
  let search_generations_arg =
    let doc = "Evolution generations after the grid-seed round." in
    Arg.(
      value
      & opt int Pimcomp.Synth.default_params.generations
      & info [ "search-generations" ] ~docv:"N" ~doc)
  in
  let children_arg =
    let doc = "Candidates bred per evolution generation." in
    Arg.(
      value
      & opt int Pimcomp.Synth.default_params.children
      & info [ "children" ] ~docv:"N" ~doc)
  in
  let area_budget_arg =
    let doc = "Reject candidates whose chip area exceeds this many mm2." in
    Arg.(value & opt (some float) None & info [ "area-budget" ] ~docv:"MM2" ~doc)
  in
  let no_grid_seed_arg =
    let doc =
      "Seed the search with random points instead of the full axes grid."
    in
    Arg.(value & flag & info [ "no-grid-seed" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Warm worker domains evaluating candidates (default: the host's \
       recommended domain count).  The frontier is bit-identical \
       whatever the value."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Write the frontier and search stats to this JSON file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let synth_strategy_arg =
    let doc =
      "Per-candidate mapping strategy: puma (default — a full GA per \
       candidate would drown the search), ga or random."
    in
    Arg.(value & opt string "puma" & info [ "strategy" ] ~doc)
  in
  let run networks input_size mode parallelism allocator strategy seed
      generations fast objective domains xbar_sizes xbars_per_core core_counts
      local_kb vfus search_generations children area_budget no_grid_seed
      json_path cache_dir cache_max_mb =
    wrap (fun () ->
        let names =
          match networks with
          | [] -> Nnir.Zoo.paper_benchmarks
          | l ->
              List.concat_map
                (fun t -> if t = "zoo" then Nnir.Zoo.names else [ t ])
                l
        in
        let networks =
          Array.of_list
            (List.map
               (fun name ->
                 let graph = load_network name input_size in
                 (Nnir.Graph.name graph, graph))
               names)
        in
        let axes =
          {
            Pimhw.Design_space.xbar_size_axis = xbar_sizes;
            xbars_per_core_axis = xbars_per_core;
            core_count_axis = core_counts;
            local_memory_kb_axis = local_kb;
            vfus_per_core_axis = vfus;
          }
        in
        let options =
          compile_options ~mode ~parallelism ~allocator ~strategy ~seed
            ~generations ~fast ~objective:(objective_of_string objective) ()
        in
        let params =
          {
            Pimcomp.Synth.default_params with
            generations = search_generations;
            children;
            seed;
            grid_seed = not no_grid_seed;
            area_budget_mm2 = area_budget;
          }
        in
        let cache = open_cache cache_dir cache_max_mb in
        let pool = Pimcomp.Sched_common.warm_pool domains in
        let pool_domains = Pimutil.Domain_pool.Persistent.domain_count pool in
        let result =
          Fun.protect
            ~finally:(fun () -> Pimutil.Domain_pool.Persistent.shutdown pool)
            (fun () ->
              Pimcomp.Synth.run ~params ~options ~axes ~networks
                ~eval:(Pimsim.Synth_eval.evaluator ~pool ?cache ~networks ())
                ())
        in
        let s = result.Pimcomp.Synth.stats in
        Fmt.pr "Pareto frontier (%d points over %d candidates, %s mode):@."
          (List.length result.Pimcomp.Synth.frontier)
          s.Pimcomp.Synth.considered
          (Pimcomp.Mode.to_string mode);
        Fmt.pr "%a" Pimcomp.Synth.pp_frontier result.Pimcomp.Synth.frontier;
        Fmt.pr
          "@.%d considered: %d evaluated (%d jobs), %d memo hits, %d pruned \
           (capacity), %d pruned (area), %d infeasible@."
          s.Pimcomp.Synth.considered s.Pimcomp.Synth.evaluated
          s.Pimcomp.Synth.eval_jobs s.Pimcomp.Synth.memo_hits
          s.Pimcomp.Synth.pruned_capacity s.Pimcomp.Synth.pruned_area
          s.Pimcomp.Synth.infeasible;
        Fmt.pr "%.2f s wall (%.2f s evaluating) on %d domains: %.1f \
                candidates/s@."
          s.Pimcomp.Synth.wall_seconds s.Pimcomp.Synth.eval_seconds
          pool_domains
          (Pimcomp.Synth.candidates_per_sec s);
        List.iter
          (fun (p, reason) ->
            Fmt.pr "infeasible %s: %s@."
              (Pimhw.Design_space.point_name p)
              reason)
          result.Pimcomp.Synth.infeasible_points;
        match json_path with
        | None -> ()
        | Some path ->
            let json = Pimcomp.Synth.to_json ~mode ~seed result in
            Pimutil.Atomic_io.write_text path
              (Pimutil.Json.to_string json ^ "\n");
            Fmt.pr "@.wrote %s@." path)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Search the hardware design space (crossbar size x crossbars per \
          core x cores x local memory x VFUs) for Pareto-optimal \
          configurations over time, energy and chip area for a set of \
          networks.  Candidates are pre-filtered by analytic bounds, \
          evaluated (compile + simulate) on warm worker domains, and \
          memoised by content digest; the frontier is deterministic in \
          the seed whatever the domain count.")
    Term.(
      term_result
        (const run $ networks_arg $ input_size_arg $ mode_arg
       $ parallelism_arg $ allocator_arg $ synth_strategy_arg $ seed_arg
       $ generations_arg $ fast_arg $ objective_arg $ domains_arg
       $ xbar_sizes_arg $ xbars_per_core_arg $ core_counts_arg $ local_kb_arg
       $ vfus_arg $ search_generations_arg $ children_arg $ area_budget_arg
       $ no_grid_seed_arg $ json_arg
       $ cache_dir_arg $ cache_max_mb_arg))

let main_cmd =
  let doc = "PIMCOMP: compilation framework for crossbar-based PIM DNN accelerators" in
  Cmd.group
    (Cmd.info "pimcomp" ~version:"1.0.0" ~doc)
    [
      networks_cmd; table1_cmd; compile_cmd; simulate_cmd; sweep_cmd;
      verify_cmd; export_cmd; serve_cmd; cache_cmd; synth_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
