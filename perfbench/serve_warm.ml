(* serve-warm: the path repeat users wait on.  One `pimcomp serve --cache
   <fresh dir> --jobs 1` process, one client connection (its stdio), one
   request outstanding.  Set-up exports the five paper networks as .nnt
   files and warms the cache with their ten HT/LL compiles.  Requests are
   mostly cache hits (compile, verify, simulate, and a 64-inference
   stream on HT entries) beside a few misses with fresh GA seeds, each a
   full compile plus Cache.store, so a change that speeds hits by slowing
   stores or streams shows. *)

module C = Pimcomp.Compile
module J = Pimutil.Json

let hw = Pimhw.Config.puma_like
let parallelism = Pimsim.Engine.default_parallelism
let stream_batches = 64

type entry = { net : string; mode : Pimcomp.Mode.t; path : string }
type kind = Compile_hit | Verify_hit | Simulate_hit | Stream | Miss of int
type op = { kind : kind; entry : int }

(* An epoch of 200 requests, 20 per entry: 11 compile hits, 3 verify
   hits, 4 simulate hits and 1 stream on an HT entry (5 simulate hits on
   an LL entry), and 1 miss — 55/15/22.5/2.5/5% overall. *)
let per_entry mode =
  [ (Compile_hit, 11); (Verify_hit, 3) ]
  @ (match mode with
    | Pimcomp.Mode.High_throughput -> [ (Simulate_hit, 4); (Stream, 1) ]
    | Pimcomp.Mode.Low_latency -> [ (Simulate_hit, 5) ])
  @ [ (Miss 0, 1) ]

type daemon = {
  pid : int;
  to_d : out_channel;
  from_d : in_channel;
  mutable alive : bool;
}

type warm = { key : string; instructions : int }

type state = {
  dir : string;
  entries : entry array;
  daemon : daemon;
  warm : warm array;
  order : Random.State.t;
  mutable epoch : int;
}

let epoch_seconds = 15.

let spawn cli cache_dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--cache"; cache_dir; "--jobs"; "1" |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_d = Unix.out_channel_of_descr in_w;
    from_d = Unix.in_channel_of_descr out_r;
    alive = true;
  }

(* One round trip; [None] once the daemon has died. *)
let request d line =
  if not d.alive then None
  else
    try
      output_string d.to_d line;
      output_char d.to_d '\n';
      flush d.to_d;
      Some (J.of_string (input_line d.from_d))
    with End_of_file | Sys_error _ | J.Parse_error _ ->
      d.alive <- false;
      None

let stop_daemon d =
  if d.alive then ignore (request d {|{"op":"shutdown"}|});
  close_out_noerr d.to_d;
  close_in_noerr d.from_d;
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
      (* Give it a moment to exit on the shutdown, then make sure. *)
      Unix.sleepf 0.2;
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  d.alive <- false

let options ?(seed = C.default_options.C.seed) e =
  { C.default_options with mode = e.mode; seed }

let line ?(extra = []) op e =
  J.to_string
    (J.Obj
       ([
          ("op", J.String op);
          ("network", J.String e.path);
          ("mode", J.String (Pimcomp.Mode.to_string e.mode));
        ]
       @ extra))

let request_line s op =
  let e = s.entries.(op.entry) in
  match op.kind with
  | Compile_hit -> line "compile" e
  | Verify_hit -> line "verify" e
  | Simulate_hit -> line "simulate" e
  | Stream -> line ~extra:[ ("batches", J.Int stream_batches) ] "simulate" e
  | Miss seed -> line ~extra:[ ("seed", J.Int seed) ] "compile" e

let field name r = Option.value ~default:J.Null (J.member name r)

let number name r =
  match field name r with
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> nan

let start ~seed ~cli =
  let st = Util.rng ~seed ~salt:2 in
  let dir = Util.fresh_dir "serve" in
  let entries =
    Array.of_list
      (List.concat_map
         (fun net ->
           let path = Filename.concat dir (net ^ ".nnt") in
           Nnir.Text_format.to_file path
             (Nnir.Zoo.build
                ~input_size:(Nnir.Zoo.scaled_input_size ~factor:4 net)
                net);
           List.map
             (fun mode -> { net; mode; path })
             [ Pimcomp.Mode.High_throughput; Pimcomp.Mode.Low_latency ])
         Nnir.Zoo.paper_benchmarks)
  in
  let daemon = spawn cli (Filename.concat dir "cache") in
  try
    let warm =
      Array.map
        (fun e ->
          match request daemon (line "compile" e) with
          | Some r when field "outcome" r = J.String "miss" -> (
              match (field "key" r, field "instructions" r) with
              | J.String key, J.Int instructions -> { key; instructions }
              | _ -> failwith "serve-warm: warm-up response lacks key/instructions")
          | _ -> failwith "serve-warm: cache warm-up compile failed")
        entries
    in
    let s = { dir; entries; daemon; warm; order = st; epoch = 0 } in
    (* Untimed warm-up: one request of each hit kind. *)
    List.iter
      (fun kind ->
        if request daemon (request_line s { kind; entry = 0 }) = None then
          failwith "serve-warm: warm-up request failed")
      [ Compile_hit; Verify_hit; Simulate_hit; Stream ];
    s
  with e ->
    stop_daemon daemon;
    Util.rm_rf dir;
    raise e

let finish s =
  stop_daemon s.daemon;
  Util.rm_rf s.dir

let setup_only ~seed ~cli = finish (start ~seed ~cli)

(* Each miss gets a fresh GA seed, 1000 + the epoch's index, so it is a
   full compile plus a store; like every other input but the order, the
   seed does not depend on the workload seed. *)
let next_epoch s () =
  s.epoch <- s.epoch + 1;
  let ops =
    List.concat
      (List.mapi
         (fun entry e ->
           List.concat_map
             (fun (kind, n) ->
               List.init n (fun _ ->
                   match kind with
                   | Miss _ -> { kind = Miss (1000 + s.epoch); entry }
                   | _ -> { kind; entry }))
             (per_entry e.mode))
         (Array.to_list s.entries))
  in
  Util.shuffled s.order (Array.of_list ops)

type result = { op : op; rtt : float; response : J.t option }

let run_op s op =
  let line = request_line s op in
  let response, rtt = Util.timed (fun () -> request s.daemon line) in
  { op; rtt; response }

(* In-process simulation of each entry's cached program: the reference
   for every simulate response and the modelled metrics. *)
type reference = {
  program : Pimcomp.Isa.t;
  single : Pimsim.Metrics.t;
  stream : (Pimsim.Batch.result * Pimsim.Engine.stream_stats) option;
}

let references s =
  Array.mapi
    (fun i e ->
      let program =
        (Pimcomp.Artifact.of_file
           (Filename.concat (Filename.concat s.dir "cache") (s.warm.(i).key ^ ".pimart")))
          .Pimcomp.Artifact.program
      in
      {
        program;
        single = Pimsim.Engine.run ~parallelism hw program;
        stream =
          (if e.mode = Pimcomp.Mode.High_throughput then
             Some (Pimsim.Batch.run_stream ~parallelism hw program ~batches:stream_batches)
           else None);
      })
    s.entries

let single_fields (m : Pimsim.Metrics.t) =
  [
    ("latency_ns", m.Pimsim.Metrics.latency_ns);
    ("throughput_ips", m.Pimsim.Metrics.throughput_ips);
    ("energy_pj", Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy);
  ]

let stream_fields ((r : Pimsim.Batch.result), (st : Pimsim.Engine.stream_stats)) =
  [
    ("batches", float_of_int r.Pimsim.Batch.batches);
    ("total_ns", r.Pimsim.Batch.total_ns);
    ("steady_interval_ns", r.Pimsim.Batch.steady_interval_ns);
    ("latency_ns", r.Pimsim.Batch.metrics.Pimsim.Metrics.latency_ns);
    ("throughput_ips", r.Pimsim.Batch.throughput_ips);
    ("energy_pj", Pimsim.Metrics.total_pj r.Pimsim.Batch.metrics.Pimsim.Metrics.energy);
    ("simulated_instances", float_of_int st.Pimsim.Engine.simulated_instances);
    ("extrapolated_instances", float_of_int st.Pimsim.Engine.extrapolated_instances);
  ]

(* Every response is ok; a hit carries the key and instruction count of
   the miss that stored it; a miss stores a new key; a verify finds no
   violation; simulate fields equal the in-process reference. *)
let check s refs (r : result) =
  match r.response with
  | None -> [ "no response: the daemon has died" ]
  | Some resp ->
      let w = s.warm.(r.op.entry) and rf = refs.(r.op.entry) in
      let expect what ok = if ok then [] else [ what ] in
      let same fields =
        List.concat_map
          (fun (name, v) ->
            expect
              (Printf.sprintf "%s differs from the in-process simulation" name)
              (Int64.equal (Int64.bits_of_float (number name resp)) (Int64.bits_of_float v)))
          fields
      in
      let hit () =
        expect "hit expected" (field "outcome" resp = J.String "hit")
        @ expect "hit key differs from the stored one" (field "key" resp = J.String w.key)
        @ expect "hit instruction count differs"
            (field "instructions" resp = J.Int w.instructions)
      in
      expect "response not ok" (field "ok" resp = J.Bool true)
      @
      match r.op.kind with
      | Compile_hit -> hit ()
      | Verify_hit -> hit () @ expect "violations reported" (field "violations" resp = J.Int 0)
      | Simulate_hit -> hit () @ same (single_fields rf.single)
      | Stream -> hit () @ same (stream_fields (Option.get rf.stream))
      | Miss _ ->
          expect "miss expected" (field "outcome" resp = J.String "miss")
          @ expect "miss reused a warm key" (field "key" resp <> J.String w.key)

(* --- traced replay -------------------------------------------------------- *)

(* The response the daemon's run_heavy would give, built from the
   calls it makes, each spanned.  The cache lookup and the decode/verify
   split of a hit are spanned separately. *)
let replay_op s cache i op =
  Spans.op i (fun () ->
      let e = s.entries.(op.entry) in
      let options =
        match op.kind with Miss seed -> options ~seed e | _ -> options e
      in
      let graph =
        Spans.span "nnir.read" (fun () -> Nnir.Text_format.of_file e.path)
      in
      let key, program, found =
        Spans.span "cache.compile_program" (fun () ->
            let key = Spans.span "cache.key" (fun () -> C.cache_key ~options hw graph) in
            let found =
              Spans.span "cache.find" (fun () ->
                  Pimcomp.Cache.find cache ~key ~graph ~config:hw ())
            in
            let find = Spans.last_id () in
            match found with
            | Some program -> (key, program, Some find)
            | None ->
                let program, _ = Staged.compile ~options hw graph in
                Spans.span "cache.store" (fun () -> Pimcomp.Cache.store cache ~key program);
                (key, program, None))
      in
      Option.iter
        (fun find ->
        let art =
          Spans.span ~decomposes:find "artifact.load" (fun () ->
              Pimcomp.Artifact.of_file
                (Filename.concat (Pimcomp.Cache.dir cache) (key ^ ".pimart")))
        in
        ignore
          (Spans.span ~decomposes:find "verify.run" (fun () ->
               Pimcomp.Verify.run ~graph ~config:hw art.Pimcomp.Artifact.program));
        Spans.count "verify.instrs" (Pimcomp.Isa.num_instrs program))
        found;
      let base =
        [
          ("ok", J.Bool true);
          ("graph", J.String program.Pimcomp.Isa.graph_name);
          ("outcome", J.String (if found = None then "miss" else "hit"));
          ("key", J.String key);
          ("cores", J.Int program.Pimcomp.Isa.core_count);
          ("instructions", J.Int (Pimcomp.Isa.num_instrs program));
        ]
      in
      let floats = List.map (fun (k, v) -> (k, J.Float v)) in
      let extra =
        match op.kind with
        | Compile_hit | Miss _ -> []
        | Verify_hit ->
            [ ("violations", J.Int (List.length (Staged.verify ~graph hw program))) ]
        | Simulate_hit -> floats (single_fields (Staged.engine_run ~parallelism hw program))
        | Stream ->
            floats
              (stream_fields
                 (Staged.engine_stream ~parallelism hw program ~batches:stream_batches))
      in
      J.Obj (base @ extra))

(* Both sides as the daemon prints them, without the timing field.  The
   round trip through text also makes an integral float and an int
   compare equal. *)
let canonical json =
  match J.of_string (J.to_string json) with
  | J.Obj kvs -> List.sort compare (List.filter (fun (k, _) -> k <> "seconds") kvs)
  | _ -> []

let run ~seed ~cli ~seconds ~trace ~t_start =
  let s = start ~seed ~cli in
  Fun.protect
    ~finally:(fun () -> finish s)
    (fun () ->
      let setup_s = Util.now () -. t_start in
      (* The daemon's peak RSS is taken over the timed requests: reset
         its high-water mark now that set-up is done. *)
      Out_channel.with_open_text
        (Printf.sprintf "/proc/%d/clear_refs" s.daemon.pid)
        (fun oc -> output_string oc "5");
      let results =
        Util.run_epochs
          ~stop:(fun () -> not s.daemon.alive)
          ~epochs:
            (Util.epochs ~seconds:(if trace then seconds /. 2. else seconds)
               ~epoch_seconds)
          (next_epoch s) (run_op s)
      in
      let rss = if s.daemon.alive then Util.rss_peak_mb (string_of_int s.daemon.pid) else 0. in
      let refs = references s in
      let checked = List.map (fun r -> (r, check s refs r)) results in
      let n = List.length results in
      let failed = List.length (List.filter (fun (_, e) -> e <> []) checked) in
      let errors =
        List.concat_map
          (fun ((r : result), e) ->
            List.map (Printf.sprintf "request %s: %s" (request_line s r.op)) e)
          checked
      in
      let repeat_ops =
        List.mapi
          (fun i (r : result) ->
            let e = s.entries.(r.op.entry) in
            Printf.sprintf "op %d %s %s %s -> %s" i
              (match r.op.kind with
              | Compile_hit -> "compile"
              | Verify_hit -> "verify"
              | Simulate_hit -> "simulate"
              | Stream -> "stream"
              | Miss seed -> Printf.sprintf "miss(seed %d)" seed)
              e.net (Pimcomp.Mode.to_string e.mode)
              (match r.response with
              | Some resp -> J.to_string (J.Obj (canonical resp))
              | None -> "none"))
          results
      in
      let is k (r : result) =
        match (k, r.op.kind) with Miss _, Miss _ -> true | _ -> k = r.op.kind
      in
      let rtts k =
        List.filter_map
          (fun (r : result) -> if is k r then Some (1000. *. r.rtt) else None)
          results
      in
      if not trace then begin
        let times = List.map (fun (r : result) -> 1000. *. r.rtt) results in
        let p, tail_ms, beyond = Util.tail times in
        let inferences =
          Array.to_list
            (Array.map
               (fun rf -> (Util.model_time_ns rf.single, Util.energy_uj rf.single))
               refs)
          @ List.filter_map
              (fun rf ->
                Option.map
                  (fun ((b : Pimsim.Batch.result), _) ->
                    let per = float_of_int b.Pimsim.Batch.batches in
                    ( b.Pimsim.Batch.total_ns /. per,
                      Util.energy_uj b.Pimsim.Batch.metrics /. per ))
                  rf.stream)
              (Array.to_list refs)
        in
        {
          Util.setup_s;
          attempted = n;
          failed;
          errors;
          metrics =
            [
              ( "ops_per_s",
                float_of_int n
                /. List.fold_left (fun acc (r : result) -> acc +. r.rtt) 0. results );
              ("op_p50_ms", Util.median times);
              ("op_tail_ms", tail_ms);
              ("rss_peak_mb", rss);
            ]
            @ Util.modelled ~inferences
                ~programs:(Array.to_list (Array.map (fun rf -> rf.program) refs));
          notes =
            [
              Printf.sprintf "op_tail_ms is p%d over %d requests (%d beyond it)" p n beyond;
              Printf.sprintf "%d requests: %d misses, %d streams" n
                (List.length (List.filter (is (Miss 0)) results))
                (List.length (List.filter (is Stream) results));
            ];
          repeat_ops;
          repeat_end =
            Array.to_list
              (Array.mapi
                 (fun i rf ->
                   Printf.sprintf "%s %s program=%s" s.warm.(i).key
                     (String.concat " "
                        (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
                           (single_fields rf.single
                           @ Option.fold ~none:[] ~some:stream_fields rf.stream)))
                     (Digest.to_hex (Digest.string (Marshal.to_string rf.program []))))
                 refs);
        }
      end
      else begin
        (* Replay the same requests in-process against a second cache
           warmed the same way; every response field must match. *)
        let cache = Pimcomp.Cache.open_dir (Filename.concat s.dir "cache2") in
        Array.iter
          (fun e ->
            ignore
              (C.compile_program ~options:(options e) ~cache hw
                 (Nnir.Text_format.of_file e.path)))
          s.entries;
        Spans.reset ();
        let gc0 = Util.major_collections () in
        let replayed =
          List.mapi
            (fun i (r : result) ->
              let response = replay_op s cache i r.op in
              match r.response with
              | Some resp when canonical resp = canonical response -> []
              | _ -> [ Printf.sprintf "replayed request %d: response differs from the daemon's" i ])
            results
        in
        let majors = Util.major_collections () - gc0 in
        let a = Spans.attribute () in
        (* The serve layer: each round trip minus its in-process replay. *)
        let op_seconds = Array.make n 0. in
        List.iter
          (fun (sp : Spans.span) ->
            if sp.Spans.name = "op" then
              op_seconds.(sp.Spans.op) <- op_seconds.(sp.Spans.op) +. Spans.dur sp
            else if sp.Spans.decomposes <> None then
              op_seconds.(sp.Spans.op) <- op_seconds.(sp.Spans.op) -. Spans.dur sp)
          (Spans.all ());
        let serve_seconds =
          List.fold_left ( +. ) 0.
            (List.mapi (fun i (r : result) -> Float.max 0. (r.rtt -. op_seconds.(i))) results)
        in
        let daemon_seconds =
          List.fold_left
            (fun acc (r : result) ->
              match r.response with Some resp -> acc +. number "seconds" resp | None -> acc)
            0. results
        in
        let outcomes o =
          List.length
            (List.filter
               (fun (r : result) ->
                 match r.response with
                 | Some resp -> field "outcome" resp = J.String o
                 | None -> false)
               results)
        in
        let compile_hits = List.filter (is Compile_hit) results in
        let replay_errors = List.concat replayed in
        {
          Util.setup_s = 0.;
          attempted = n;
          failed = failed + List.length (List.filter (( <> ) []) replayed);
          errors = errors @ replay_errors;
          metrics =
            Spans.layer_metrics ~extra:[ ("serve", serve_seconds) ] a
            @ [
                ("cache.key_ms", Util.median (Spans.durations_ms "cache.key"));
                ("cache.find_ms", Util.median (Spans.durations_ms "cache.find"));
                ("artifact.load_ms", Util.median (Spans.durations_ms "artifact.load"));
                ("cache.store_ms", Util.median (Spans.durations_ms "cache.store"));
                ("cache.hit_ratio", Util.fdiv (outcomes "hit") (outcomes "hit" + outcomes "miss"));
                ( "serve.overhead_ms",
                  Util.median
                    (List.filter_map
                       (fun (r : result) ->
                         Option.map
                           (fun resp -> 1000. *. (r.rtt -. number "seconds" resp))
                           r.response)
                       compile_hits) );
                ("serve.hit_rtt_ms", Util.median (rtts Compile_hit));
                ("serve.sim_rtt_ms", Util.median (rtts Simulate_hit));
                ("serve.stream_rtt_ms", Util.median (rtts Stream));
                ("serve.miss_rtt_ms", Util.median (rtts (Miss 0)));
                ("gc.major_per_op", Util.fdiv majors n);
                ( "trace.overhead_pct",
                  100. *. (Util.div (Spans.total "cache.compile_program") daemon_seconds -. 1.) );
              ];
          notes = [];
          repeat_ops = Spans.fingerprint ();
          repeat_end = [];
        }
      end)
