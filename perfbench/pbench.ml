(* The repository benchmark.

     pbench --workload W --seed N --seconds S --trace 0|1 --cli PIMCOMP

   runs workload W (compile-cold, serve-warm or synth-explore) from seed
   N for about S seconds and prints, as its last stdout line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a separate traced run with
   --trace 1.  PIMCOMP is the pimcomp CLI binary the serve-warm workload
   spawns.  BENCHMARK.md describes the workloads and every metric. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("rss_peak_mb", "MiB");
    ("model_time_ns_geo", "model-ns");
    ("model_energy_uj_geo", "model-uJ");
    ("program_instrs", "instrs");
    ("local_peak_kb", "KiB");
  ]

(* Layers that do not run on a workload report 0. *)
let per_layer =
  [
    ("genetic.ms", "ms/op");
    ("genetic.evals_per_s", "1/s");
    ("genetic.waste_ratio", "ratio");
    ("genetic.alloc_mb", "MiB/op");
    ("schedule.ms", "ms/op");
    ("schedule.instrs_per_ms", "instrs/ms");
    ("schedule.alloc_mb", "MiB/op");
    ("verify.ms", "ms/op");
    ("verify.instrs_per_ms", "instrs/ms");
    ("isa_text.ms", "ms/op");
    ("isa_text.instrs_per_ms", "instrs/ms");
    ("cache.key_ms", "ms");
    ("cache.find_ms", "ms");
    ("artifact.load_ms", "ms");
    ("cache.store_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("serve.overhead_ms", "ms");
    ("serve.hit_rtt_ms", "ms");
    ("serve.sim_rtt_ms", "ms");
    ("serve.stream_rtt_ms", "ms");
    ("serve.miss_rtt_ms", "ms");
    ("engine.exec_ms", "ms/op");
    ("engine.stream_ms", "ms/op");
    ("engine.instrs_per_s", "instrs/s");
    ("engine.extrapolated_share", "ratio");
    ("engine.alloc_mb", "MiB/op");
    ("synth.self_ms", "ms/op");
    ("synth.candidates_per_s", "1/s");
    ("synth.evaluated_ratio", "ratio");
    ("synth.memo_hit_ratio", "ratio");
    ("nnir.parse_ms", "ms/op");
    ("partition.ms", "ms/op");
    ("gc.major_per_op", "1/op");
    ("trace.overhead_pct", "%");
    ("unattributed.ms", "ms/op");
  ]
  @ List.map
      (fun l -> ("share." ^ l ^ "_pct", "%"))
      (Spans.layers @ [ "unattributed" ])

type workload = {
  setup_only : seed:int -> cli:string -> unit;
  run :
    seed:int ->
    cli:string ->
    seconds:float ->
    trace:bool ->
    t_start:float ->
    Util.outcome;
}

let workloads =
  [
    ( "compile-cold",
      { setup_only = Compile_cold.setup_only; run = Compile_cold.run } );
    ("serve-warm", { setup_only = Serve_warm.setup_only; run = Serve_warm.run });
    ( "synth-explore",
      { setup_only = Synth_explore.setup_only; run = Synth_explore.run } );
  ]

let usage () =
  prerr_endline
    "usage: pbench --workload compile-cold|serve-warm|synth-explore --seed N \
     --seconds S --trace 0|1 --cli PIMCOMP [--setup-only]";
  exit 2

(* set-up samples from fresh processes: [n] runs of this binary with
   --setup-only, each printing its own process-start-to-ready time. *)
let child_setups ~n args =
  List.init n (fun _ ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list ((Sys.executable_name :: args) @ [ "--setup-only" ]))
          Unix.stdin wr Unix.stderr
      in
      Unix.close wr;
      let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
      Unix.close rd;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Scanf.sscanf out "setup %f" Fun.id
      | _ -> failwith "pbench: a --setup-only child failed")

let () =
  let t_start = Util.now () in
  (* A dead serve daemon must show as failed requests, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and cli = ref "" and setup_only = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--cli" :: c :: rest -> cli := c; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  if not (Sys.file_exists !cli) then usage ();
  let seed = !seed and cli = !cli and seconds = !seconds in
  if !setup_only then begin
    w.setup_only ~seed ~cli;
    Printf.printf "setup %.17g\n" (Util.now () -. t_start)
  end
  else begin
    let traced = !trace = 1 in
    let args =
      [ "--workload"; !workload; "--seed"; string_of_int seed; "--cli"; cli ]
    in
    (* Set-up time is the median of three fresh-process samples: two
       children, then this process's own. *)
    let children, child_seconds =
      if traced then ([], 0.) else Util.timed (fun () -> child_setups ~n:2 args)
    in
    let o = w.run ~seed ~cli ~seconds ~trace:traced ~t_start:(t_start +. child_seconds) in
    let metrics =
      if traced then per_layer
      else end_to_end
    in
    let values =
      if traced then o.Util.metrics
      else ("setup_s", Util.median (o.Util.setup_s :: children)) :: o.Util.metrics
    in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name metrics) then
          failwith ("pbench: unlisted metric " ^ name))
      values;
    if not traced then
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name values) then
            failwith ("pbench: end-to-end metric not measured: " ^ name))
        metrics;
    let repeat_errors =
      Util.repeat_check
        ~key:(Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace)
        ~binaries:[ Sys.executable_name; cli ]
        ~ops:o.Util.repeat_ops ~whole:o.Util.repeat_end
    in
    let errors = o.Util.errors @ repeat_errors in
    List.iter (fun e -> prerr_endline ("check failed: " ^ e)) errors;
    List.iter print_endline o.Util.notes;
    if traced then begin
      let path =
        Filename.concat Util.work_root
          (Printf.sprintf "spans-%s-seed%d.json" !workload seed)
      in
      Spans.to_json path;
      Printf.printf "spans written to %s\n" path
    end;
    let module J = Pimutil.Json in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool (errors = []));
              ("attempted", J.Int o.Util.attempted);
              ("failed", J.Int (o.Util.failed + List.length repeat_errors));
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (name, unit) ->
                       ( name,
                         J.Obj
                           [
                             ( "value",
                               J.Float
                                 (Option.value ~default:0.
                                    (List.assoc_opt name values)) );
                             ("unit", J.String unit);
                           ] ))
                     metrics) );
            ]))
  end
