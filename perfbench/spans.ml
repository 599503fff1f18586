(* In-memory span recorder for the traced run.  The benchmark wraps each
   call into a layer's public function in a span; a span records its
   name, op id, parent span, wall-clock interval and the minor-heap words
   allocated inside it.  Spans stay in memory and are written as JSON
   when the run ends.  A span's layer is its name up to the first dot;
   the root span of each op is named "op". *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for an op's root span *)
  start : float;
  stop : float;
  words : float;
  decomposes : int option;
      (** A span run after [Some id] to split that span's time (the
          serve replay's decode/verify split of Cache.find): its time is
          moved out of span [id], not added to the op. *)
}

let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0

(* Work counts recorded beside the spans, so that rates are measured
   where the work happens. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  Hashtbl.replace counters name
    (n + Option.value ~default:0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  current_op := 0;
  Hashtbl.reset counters

let last_id () = !next_id - 1

let span ?decomposes name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    stack := List.tl !stack;
    recorded :=
      {
        id;
        name;
        op = !current_op;
        parent;
        start = t0;
        stop = t1;
        words = w1 -. w0;
        decomposes;
      }
      :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt

(* One op: a root span "op" around [f]. *)
let op i f =
  current_op := i;
  span "op" f

let all () = List.rev !recorded
let dur s = s.stop -. s.start

let named name = List.filter (fun s -> s.name = name) (all ())
let total name = List.fold_left (fun acc s -> acc +. dur s) 0. (named name)
let durations_ms name = List.map (fun s -> 1000. *. dur s) (named name)

let layers =
  [
    "genetic"; "schedule"; "verify"; "isa_text"; "cache"; "serve"; "engine";
    "synth"; "nnir"; "partition";
  ]

let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "artifact" -> "cache"
  | "op" -> "unattributed"
  | p when List.mem p layers -> p
  | p -> invalid_arg ("Spans.layer_of: no layer for span " ^ p)

type attribution = {
  ops : int;
  op_seconds : float;  (** summed op time, decomposing spans excluded *)
  self_seconds : (string * float) list;
      (** per layer, plus "unattributed": op time no child span covers *)
  self_words : (string * float) list;
}

(* Summed duration and allocated words of each span's children. *)
let child_sums spans =
  let time = Hashtbl.create 1024 and words = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        Hashtbl.replace time s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt time s.parent));
        Hashtbl.replace words s.parent
          (s.words +. Option.value ~default:0. (Hashtbl.find_opt words s.parent))
      end)
    spans;
  let get tbl id = Option.value ~default:0. (Hashtbl.find_opt tbl id) in
  (get time, get words)

(* Self time: a span's duration minus its children's.  A decomposing
   span moves its duration from the span it decomposes to its own
   layer, and is left out of its op's time. *)
let attribute () =
  let spans = all () in
  let child_time, child_words = child_sums spans in
  let moved = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s -> Option.iter (fun target -> add moved target (dur s)) s.decomposes)
    spans;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let time = Hashtbl.create 16 and words = Hashtbl.create 16 in
  let ops = ref 0 and op_seconds = ref 0. in
  List.iter
    (fun s ->
      let layer = layer_of s.name in
      add time layer (dur s -. child_time s.id -. get moved s.id);
      add words layer (s.words -. child_words s.id);
      if s.name = "op" then begin
        incr ops;
        op_seconds := !op_seconds +. dur s
      end;
      if s.decomposes <> None then op_seconds := !op_seconds -. dur s)
    spans;
  let by tbl = List.map (fun l -> (l, get tbl l)) (layers @ [ "unattributed" ]) in
  {
    ops = !ops;
    op_seconds = !op_seconds;
    self_seconds = by time;
    self_words = by words;
  }

let self a layer = List.assoc layer a.self_seconds
let words a layer = List.assoc layer a.self_words

let mib_per_op a layer =
  Util.div (words a layer *. 8. /. 1048576.) (float_of_int a.ops)

(* The per-layer metrics every workload reports, from spans and
   counters: self time per op, work rates, allocation per op, and each
   layer's share of op time including the unattributed remainder.
   [extra] adds time measured outside the spans to a layer (the serve
   layer's protocol time). *)
let layer_metrics ?(extra = []) a =
  let extra_of l = Option.value ~default:0. (List.assoc_opt l extra) in
  let op_total =
    a.op_seconds +. List.fold_left (fun acc (_, v) -> acc +. v) 0. extra
  in
  let time l = self a l +. extra_of l in
  let per_op seconds = 1000. *. Util.div seconds (float_of_int a.ops) in
  let ms name = 1000. *. total name in
  let c name = float_of_int (counter name) in
  [
    ("genetic.ms", per_op (time "genetic"));
    ("genetic.evals_per_s", Util.div (c "genetic.evals") (total "genetic.optimize"));
    ( "genetic.waste_ratio",
      Util.div (c "genetic.failed") (c "genetic.evals" +. c "genetic.failed") );
    ("genetic.alloc_mb", mib_per_op a "genetic");
    ("schedule.ms", per_op (time "schedule"));
    ("schedule.instrs_per_ms", Util.div (c "schedule.instrs") (ms "schedule.emit"));
    ("schedule.alloc_mb", mib_per_op a "schedule");
    ("verify.ms", per_op (time "verify"));
    ("verify.instrs_per_ms", Util.div (c "verify.instrs") (ms "verify.run"));
    ("isa_text.ms", per_op (time "isa_text"));
    ( "isa_text.instrs_per_ms",
      Util.div (c "isa_text.instrs") (ms "isa_text.print" +. ms "isa_text.parse") );
    ("engine.exec_ms", per_op (total "engine.run"));
    ("engine.stream_ms", per_op (total "engine.stream"));
    ( "engine.instrs_per_s",
      Util.div (c "engine.instrs") (total "engine.run" +. total "engine.stream") );
    ( "engine.extrapolated_share",
      Util.div (c "engine.extrapolated") (c "engine.streamed") );
    ("engine.alloc_mb", mib_per_op a "engine");
    ("synth.self_ms", per_op (time "synth"));
    ("nnir.parse_ms", per_op (time "nnir"));
    ("partition.ms", per_op (time "partition"));
    ("unattributed.ms", per_op (time "unattributed"));
  ]
  @ List.map
      (fun l -> ("share." ^ l ^ "_pct", 100. *. Util.div (time l) op_total))
      (layers @ [ "unattributed" ])

(* Spans whose allocation depends on file-system state (channel
   buffers, temp-file names) as well as on the inputs; two runs of one
   seed were seen to differ by a couple of words in Cache.store. *)
let file_io = [ "nnir.read"; "cache.find"; "cache.store"; "artifact.load" ]

(* Self-allocated words of every span but the file-I/O ones, one line
   per op, for the exact-repeat check. *)
let fingerprint () =
  let spans = all () in
  let _, child_words = child_sums spans in
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (List.mem s.name file_io) then begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_op s.op) in
        Hashtbl.replace by_op s.op
          (Printf.sprintf "%s=%.0f" s.name (s.words -. child_words s.id) :: prev)
      end)
    spans;
  Hashtbl.fold (fun op words acc -> (op, List.rev words) :: acc) by_op []
  |> List.sort compare
  |> List.map (fun (op, words) ->
         Printf.sprintf "op %d %s" op (String.concat " " words))

let to_json path =
  let module J = Pimutil.Json in
  let json =
    J.List
      (List.map
         (fun s ->
           J.Obj
             [
               ("id", J.Int s.id);
               ("name", J.String s.name);
               ("op", J.Int s.op);
               ("parent", J.Int s.parent);
               ("start", J.Float s.start);
               ("end", J.Float s.stop);
               ("minor_words", J.Float s.words);
               ( "decomposes",
                 match s.decomposes with Some d -> J.Int d | None -> J.Null );
             ])
         (all ()))
  in
  Pimutil.Atomic_io.write_text path (J.to_string json)
