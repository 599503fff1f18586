(* Tests for the dataflow schedulers (Section IV-D): structural
   well-formedness, MVM window coverage, rendezvous pairing, and the
   mode-defining traffic properties (HT goes through global memory, LL
   stays on chip). *)

let hw = Pimhw.Config.puma_like

let layout_of ?(seed = 1) name size =
  let g = Nnir.Zoo.build ~input_size:size name in
  let table = Pimcomp.Partition.of_graph hw g in
  let core_count = Pimcomp.Partition.fit_core_count table in
  let rng = Pimcomp.Rng.create ~seed in
  let chrom =
    Pimcomp.Chromosome.random_initial rng table ~core_count
      ~max_node_num_in_core:16 ~extra_replica_attempts:4 ()
  in
  (g, table, Pimcomp.Layout.of_chromosome chrom)

let schedule_ht ?(strategy = Pimcomp.Memalloc.Ag_reuse) layout =
  Pimcomp.Schedule_ht.schedule
    ~options:
      { Pimcomp.Schedule_ht.mvms_per_transfer = 2; strategy;
        spill_budget = None }
    layout

let schedule_ll ?(strategy = Pimcomp.Memalloc.Ag_reuse) layout =
  Pimcomp.Schedule_ll.schedule
    ~options:{ Pimcomp.Schedule_ll.default_options with strategy }
    layout

(* Total MVM windows must equal sum over nodes of
   windows * ags_per_replica — independent of replication, since
   replicas split the windows. *)
let expected_mvm_windows table =
  Array.fold_left
    (fun acc (i : Pimcomp.Partition.info) ->
      acc + (i.Pimcomp.Partition.windows * i.Pimcomp.Partition.ags_per_replica))
    0
    (Pimcomp.Partition.entries table)

let check_verifies ?graph label program =
  match Pimcomp.Verify.run ?graph ~config:hw program with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s: %a" label Pimcomp.Verify.pp_violation v

let test_well_formed name size =
  let g, table, layout = layout_of name size in
  List.iter
    (fun (label, program) ->
      check_verifies ~graph:g (name ^ " " ^ label) program;
      Alcotest.(check int)
        (name ^ " " ^ label ^ " MVM window coverage")
        (expected_mvm_windows table)
        (Pimcomp.Isa.total_mvm_windows program))
    [ ("HT", schedule_ht layout); ("LL", schedule_ll layout) ]

let test_tiny_well_formed () = test_well_formed "tiny" 16
let test_squeezenet_well_formed () = test_well_formed "squeezenet" 56
let test_resnet_well_formed () = test_well_formed "resnet18" 56

let test_ht_uses_global_memory () =
  let _, _, layout = layout_of "tiny" 16 in
  let p = schedule_ht layout in
  Alcotest.(check bool) "HT loads from global" true
    (p.Pimcomp.Isa.memory.Pimcomp.Isa.global_load_bytes > 0);
  Alcotest.(check bool) "HT stores to global" true
    (p.Pimcomp.Isa.memory.Pimcomp.Isa.global_store_bytes > 0)

let test_ll_stays_on_chip () =
  let g, _, layout = layout_of "tiny" 16 in
  let p = schedule_ll layout in
  (* LL only loads the network input and stores the final output *)
  let input_bytes =
    List.fold_left
      (fun acc id ->
        acc + Nnir.Tensor.num_bytes (Nnir.Node.output_shape (Nnir.Graph.node g id)))
      0 (Nnir.Graph.inputs g)
  in
  let loads = p.Pimcomp.Isa.memory.Pimcomp.Isa.global_load_bytes in
  Alcotest.(check bool) "LL loads bounded by replicated input" true
    (loads <= input_bytes * 24);
  let ht = schedule_ht layout in
  Alcotest.(check bool) "LL loads far below HT loads" true
    (loads * 3 < ht.Pimcomp.Isa.memory.Pimcomp.Isa.global_load_bytes)

let test_ll_has_messages_when_split () =
  (* a layout with scattered AGs must produce SEND/RECV rendezvous *)
  let _, _, layout = layout_of ~seed:3 "squeezenet" 56 in
  let p = schedule_ll layout in
  Alcotest.(check bool) "messages exist" true (p.Pimcomp.Isa.num_tags > 0)

let test_mvms_per_transfer_scaling () =
  (* larger transfer batches mean fewer, bigger MVM bursts *)
  let _, _, layout = layout_of "tiny" 16 in
  let p1 =
    Pimcomp.Schedule_ht.schedule
      ~options:
        { Pimcomp.Schedule_ht.mvms_per_transfer = 1;
          strategy = Pimcomp.Memalloc.Ag_reuse; spill_budget = None }
      layout
  in
  let p4 =
    Pimcomp.Schedule_ht.schedule
      ~options:
        { Pimcomp.Schedule_ht.mvms_per_transfer = 4;
          strategy = Pimcomp.Memalloc.Ag_reuse; spill_budget = None }
      layout
  in
  Alcotest.(check bool) "fewer bursts with batching" true
    (Pimcomp.Isa.num_mvms p4 < Pimcomp.Isa.num_mvms p1);
  Alcotest.(check int) "same windows" (Pimcomp.Isa.total_mvm_windows p1)
    (Pimcomp.Isa.total_mvm_windows p4)

let test_allocator_affects_peak_not_structure () =
  let _, _, layout = layout_of "tiny" 16 in
  let peaks strategy =
    let p = schedule_ll ~strategy layout in
    Array.fold_left max 0 p.Pimcomp.Isa.memory.Pimcomp.Isa.local_peak_bytes
  in
  let naive = peaks Pimcomp.Memalloc.Naive in
  let add = peaks Pimcomp.Memalloc.Add_reuse in
  let ag = peaks Pimcomp.Memalloc.Ag_reuse in
  Alcotest.(check bool) "AG <= ADD <= naive" true (ag <= add && add <= naive);
  Alcotest.(check bool) "AG strictly better than naive" true (ag < naive)

let test_mvm_instr_fields () =
  let _, _, layout = layout_of "tiny" 16 in
  let p = schedule_ht layout in
  Array.iteri
    (fun core instrs ->
      Array.iter
        (fun (i : Pimcomp.Isa.instr) ->
          match i.Pimcomp.Isa.op with
          | Pimcomp.Isa.Mvm m ->
              Alcotest.(check bool) "windows positive" true (m.windows > 0);
              Alcotest.(check bool) "xbars positive" true (m.xbars > 0);
              Alcotest.(check int) "ag on right core" core
                p.Pimcomp.Isa.ag_core.(m.ag)
          | _ -> ())
        instrs)
    p.Pimcomp.Isa.cores

let test_pipeline_depth () =
  Alcotest.(check int) "vgg16 depth 16" 16
    (Pimcomp.Sched_common.pipeline_depth (Nnir.Zoo.vgg16 ~input_size:32 ()));
  Alcotest.(check int) "tiny depth 4" 4
    (Pimcomp.Sched_common.pipeline_depth (Nnir.Zoo.tiny ()));
  Alcotest.(check int) "mlp depth 3" 3
    (Pimcomp.Sched_common.pipeline_depth (Nnir.Zoo.mlp ()))

let test_layout_consistency () =
  let _, table, layout = layout_of ~seed:9 "tiny" 16 in
  (* every AG's core in the layout matches its placement *)
  Array.iteri
    (fun node_index (nl : Pimcomp.Layout.node_layout) ->
      let info = Pimcomp.Partition.entry table node_index in
      Alcotest.(check int) "replica count"
        nl.Pimcomp.Layout.replication
        (Array.length nl.Pimcomp.Layout.replicas);
      Array.iter
        (fun (r : Pimcomp.Layout.replica) ->
          Alcotest.(check int) "ags per replica"
            info.Pimcomp.Partition.ags_per_replica
            (Array.length r.Pimcomp.Layout.ag_ids);
          Alcotest.(check int) "head core is first AG's core"
            r.Pimcomp.Layout.ag_cores.(0)
            r.Pimcomp.Layout.head_core;
          Array.iteri
            (fun i ag ->
              Alcotest.(check int) "ag_core table agrees"
                r.Pimcomp.Layout.ag_cores.(i)
                layout.Pimcomp.Layout.ag_core.(ag))
            r.Pimcomp.Layout.ag_ids)
        nl.Pimcomp.Layout.replicas;
      (* HT window shares partition [0, windows) *)
      let covered =
        Array.fold_left
          (fun acc (r : Pimcomp.Layout.replica) ->
            acc + (r.Pimcomp.Layout.window_hi - r.Pimcomp.Layout.window_lo))
          0 nl.Pimcomp.Layout.replicas
      in
      Alcotest.(check int) "windows covered" info.Pimcomp.Partition.windows
        covered)
    layout.Pimcomp.Layout.by_node_index

(* --- .isa text ------------------------------------------------------------ *)

(* The Fmt-based printer that [Isa_text.to_string] replaced, kept as the
   oracle for the byte identity of its direct Buffer writes. *)
let reference_isa_text (t : Pimcomp.Isa.t) =
  let module Isa = Pimcomp.Isa in
  let deps_to_string deps = String.concat "," (List.map string_of_int deps) in
  let instr_to_line idx (i : Isa.instr) =
    let body =
      match i.Isa.op with
      | Isa.Mvm m ->
          Fmt.str "MVM ag=%d w=%d xb=%d in=%d out=%d" m.ag m.windows m.xbars
            m.input_bytes m.output_bytes
      | Isa.Vec v -> Fmt.str "VEC %s n=%d" (Isa.vec_kind_name v.kind) v.elements
      | Isa.Load l -> Fmt.str "LOAD %d" l.bytes
      | Isa.Store s -> Fmt.str "STORE %d" s.bytes
      | Isa.Send s -> Fmt.str "SEND dst=%d bytes=%d tag=%d" s.dst s.bytes s.tag
      | Isa.Recv r -> Fmt.str "RECV src=%d bytes=%d tag=%d" r.src r.bytes r.tag
    in
    Fmt.str "  %d: %s deps=%s node=%d" idx body
      (deps_to_string i.Isa.deps)
      i.Isa.node_id
  in
  let buf = Buffer.create (64 * Isa.num_instrs t) in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "program %s mode=%s allocator=%s cores=%d tags=%d depth=%d"
    t.Isa.graph_name
    (Pimcomp.Mode.to_string t.Isa.mode)
    (Pimcomp.Memalloc.strategy_name t.Isa.allocator)
    t.Isa.core_count t.Isa.num_tags t.Isa.pipeline_depth;
  let peaks_csv a =
    String.concat "," (Array.to_list (Array.map string_of_int a))
  in
  add "memory spill=%d gload=%d gstore=%d peaks=%s rpeaks=%s"
    t.Isa.memory.Isa.spill_bytes t.Isa.memory.Isa.global_load_bytes
    t.Isa.memory.Isa.global_store_bytes
    (peaks_csv t.Isa.memory.Isa.local_peak_bytes)
    (peaks_csv t.Isa.memory.Isa.local_resident_peak_bytes);
  Array.iter
    (fun (ev : Isa.mem_event) ->
      match ev with
      | Isa.Alloc { core; bytes; request } ->
          let req =
            match request with
            | Pimcomp.Memalloc.Fresh -> "fresh"
            | Pimcomp.Memalloc.Accumulator k -> Fmt.str "acc:%d" k
            | Pimcomp.Memalloc.Ag_slot k -> Fmt.str "ag:%d" k
          in
          add "trace alloc core=%d bytes=%d req=%s" core bytes req
      | Isa.Free { core; bytes } -> add "trace free core=%d bytes=%d" core bytes
      | Isa.Free_accumulator { core; key } ->
          add "trace freeacc core=%d key=%d" core key
      | Isa.Free_ag_slot { core; key } ->
          add "trace freeag core=%d key=%d" core key)
    t.Isa.mem_trace;
  Array.iteri
    (fun ag core -> add "ag %d core=%d xbars=%d" ag core t.Isa.ag_xbars.(ag))
    t.Isa.ag_core;
  Array.iteri
    (fun core instrs ->
      add "core %d" core;
      Array.iteri
        (fun idx i -> Buffer.add_string buf (instr_to_line idx i ^ "\n"))
        instrs)
    t.Isa.cores;
  Buffer.contents buf

let allocators =
  Pimcomp.Memalloc.[ Naive; Add_reuse; Ag_reuse; Lifetime ]

(* The tiny network's HT and LL dumps, the base texts for the
   whitespace, error and mutation cases. *)
let tiny_texts =
  lazy
    (let _, _, layout = layout_of "tiny" 16 in
     [|
       Pimcomp.Isa_text.to_string (schedule_ht layout);
       Pimcomp.Isa_text.to_string (schedule_ll layout);
     |])

let test_isa_text_roundtrip () =
  let _, _, layout = layout_of "tiny" 16 in
  List.iter
    (fun program ->
      let text = Pimcomp.Isa_text.to_string program in
      let parsed = Pimcomp.Isa_text.of_string text in
      Alcotest.(check bool) "parse (print p) = p" true (parsed = program);
      Alcotest.(check string) "round-trips" text
        (Pimcomp.Isa_text.to_string parsed);
      check_verifies "parsed program" parsed;
      (* the parsed program simulates identically *)
      let m1 = Pimsim.Engine.run hw program in
      let m2 = Pimsim.Engine.run hw parsed in
      Alcotest.(check (float 1e-9)) "same makespan"
        m1.Pimsim.Metrics.makespan_ns m2.Pimsim.Metrics.makespan_ns)
    [ schedule_ht layout; schedule_ll layout ];
  (* the whitespace the grammar allows: CR LF line ends, tabs before
     and between tokens, blank lines *)
  Array.iter
    (fun text ->
      let loose =
        String.split_on_char '\n' text
        |> List.map (fun l ->
               "\t" ^ String.concat " \t" (String.split_on_char ' ' l))
        |> String.concat "\r\n \r\n"
      in
      if Pimcomp.Isa_text.(of_string loose <> of_string text) then
        Alcotest.fail "tabs, CR LF and blank lines changed the program")
    (Lazy.force tiny_texts);
  (* every zoo network, mode and allocator: the printer writes the
     reference printer's bytes, and the parser gives the program back *)
  List.iter
    (fun name ->
      let g = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
      List.iter
        (fun mode ->
          List.iter
            (fun allocator ->
              let options =
                {
                  Pimcomp.Compile.default_options with
                  strategy = Pimcomp.Compile.Puma_like;
                  mode;
                  allocator;
                  (* test_verify accepts these same programs *)
                  verify = false;
                }
              in
              let p =
                (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program
              in
              let label =
                Fmt.str "%s %s %s" name (Pimcomp.Mode.to_string mode)
                  (Pimcomp.Memalloc.strategy_name allocator)
              in
              let text = Pimcomp.Isa_text.to_string p in
              if text <> reference_isa_text p then
                Alcotest.failf "%s: printer differs from the reference" label;
              if Pimcomp.Isa_text.of_string text <> p then
                Alcotest.failf "%s: parse (print p) <> p" label)
            allocators)
        Pimcomp.Mode.all)
    Nnir.Zoo.names

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Rewrite the first line that contains [marker] with [f]; returns the
   new text and that line's 1-based number, if any line does. *)
let edit_first_line text marker f =
  let lines = String.split_on_char '\n' text in
  let rec find i = function
    | [] -> None
    | l :: rest -> if contains l marker then Some i else find (i + 1) rest
  in
  Option.map
    (fun n ->
      let edited = List.mapi (fun i l -> if i = n then f l else l) lines in
      (String.concat "\n" edited, n + 1))
    (find 0 lines)

(* [f] on each word of the line, which may expand it to several. *)
let map_words f line = String.concat " " (List.concat_map f (words line))

let expect_parse_error label ~line text =
  match Pimcomp.Isa_text.of_string text with
  | exception Pimcomp.Isa_text.Parse_error e ->
      if e.line <> line then
        Alcotest.failf "%s: error on line %d, expected line %d (%s)" label
          e.line line e.message
  | exception exn ->
      Alcotest.failf "%s: %s instead of Parse_error" label
        (Printexc.to_string exn)
  | _ -> Alcotest.failf "%s: accepted" label

let header ?(mode = "HT") ?(allocator = "naive") ?(cores = "0") () =
  Fmt.str "program x mode=%s allocator=%s cores=%s tags=0 depth=1\n" mode
    allocator cores

let test_isa_text_errors () =
  expect_parse_error "missing header" ~line:1
    "core 0\n  0: MVM ag=1 deps= node=0";
  expect_parse_error "unknown instruction" ~line:3
    "program x mode=HT allocator=naive cores=1 tags=0 depth=1\n\
     core 0\n\
    \  0: FROB deps= node=0";
  expect_parse_error "unknown mode" ~line:1 (header ~mode:"XX" ());
  expect_parse_error "unknown allocator" ~line:1 (header ~allocator:"foo" ());
  expect_parse_error "negative core count" ~line:1 (header ~cores:"-1" ());
  expect_parse_error "missing core headers" ~line:1
    (header ~cores:"3" () ^ "core 0\n");
  (* every non-canonical form is an error on the line it is on, in each
     tiny dump that has such a line, and at least one has *)
  let dup_word p = map_words (fun w -> if p w then [ w; w ] else [ w ]) in
  let set_word p v = map_words (fun w -> if p w then [ v ] else [ w ]) in
  let prefix key w = String.starts_with ~prefix:key w in
  let rec dup_store_size = function
    | "STORE" :: size :: rest -> "STORE" :: size :: size :: rest
    | w :: rest -> w :: dup_store_size rest
    | [] -> []
  in
  let texts = Lazy.force tiny_texts in
  List.iter
    (fun (label, marker, f) ->
      let edits =
        List.filter_map
          (fun text -> edit_first_line text marker (f text))
          (Array.to_list texts)
      in
      if edits = [] then Alcotest.failf "%s: no tiny dump has %S" label marker;
      List.iter
        (fun (edited, line) -> expect_parse_error label ~line edited)
        edits)
    [
      ("MVM MVM", ": MVM ", fun _ -> dup_word (( = ) "MVM"));
      ( "STORE 32 32", ": STORE ",
        fun _ l -> String.concat " " (dup_store_size (words l)) );
      ("bytes=96 bytes=96", ": SEND ", fun _ -> dup_word (prefix "bytes="));
      ( "trace bytes= twice", "trace alloc ",
        fun _ -> dup_word (prefix "bytes=") );
      ("node=0 node=5", ": ", fun _ l -> l ^ " node=5");
      ("n=0x10", ": VEC ", fun _ -> set_word (prefix "n=") "n=0x10");
      ("1_000", "ag 0 ", fun _ -> set_word (prefix "xbars=") "xbars=1_000");
      ( "second program line", "memory ",
        fun text l -> List.hd (String.split_on_char '\n' text) ^ "\n" ^ l );
      ( "second memory line", "trace alloc ",
        fun text l -> List.nth (String.split_on_char '\n' text) 1 ^ "\n" ^ l );
      ("core out of order", "core 1", fun _ _ -> "core 2");
      ( "instruction before any core", "ag 0 ",
        fun _ l -> "  0: LOAD 8 deps= node=0\n" ^ l );
    ]

(* Grammar-aware mutations of the tiny dumps.  Line, word and integer
   numbers and the truncation point are reduced modulo what the text
   has when the mutation is applied. *)
type mutation =
  | Drop_word of { line : int; word : int }
  | Dup_word of { line : int; word : int }
  | Swap_words of { line : int; word : int }
  | Drop_line of int
  | Dup_line of int
  | Truncate of int
  | Set_int of { line : int; nth : int; value : int }

let show_mutation = function
  | Drop_word { line; word } -> Fmt.str "drop word %d of line %d" word line
  | Dup_word { line; word } -> Fmt.str "duplicate word %d of line %d" word line
  | Swap_words { line; word } ->
      Fmt.str "swap words %d and %d of line %d" word (word + 1) line
  | Drop_line l -> Fmt.str "drop line %d" l
  | Dup_line l -> Fmt.str "duplicate line %d" l
  | Truncate n -> Fmt.str "truncate at byte %d" n
  | Set_int { line; nth; value } ->
      Fmt.str "integer %d of line %d := %d" nth line value

(* The integers of a line, sign included, as (start, length) spans. *)
let int_spans l =
  let n = String.length l in
  let is_digit i = i < n && l.[i] >= '0' && l.[i] <= '9' in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if is_digit i then (
      let j = ref i in
      while is_digit !j do
        incr j
      done;
      let start = if i > 0 && l.[i - 1] = '-' then i - 1 else i in
      scan !j ((start, !j - start) :: acc))
    else scan (i + 1) acc
  in
  scan 0 []

let apply_mutation text m =
  let lines = String.split_on_char '\n' text in
  (* line [line] (mod the line count) becomes the lines [f] gives *)
  let edit line f =
    let l = line mod List.length lines in
    String.concat "\n"
      (List.concat (List.mapi (fun i s -> if i = l then f s else [ s ]) lines))
  in
  let edit_words line f =
    edit line (fun s ->
        match Array.of_list (words s) with
        | [||] -> [ s ]
        | ws -> [ String.concat " " (f ws (Array.length ws)) ])
  in
  match m with
  | Drop_word { line; word } ->
      edit_words line (fun ws n ->
          List.filteri (fun i _ -> i <> word mod n) (Array.to_list ws))
  | Dup_word { line; word } ->
      edit_words line (fun ws n ->
          List.concat
            (List.mapi
               (fun i w -> if i = word mod n then [ w; w ] else [ w ])
               (Array.to_list ws)))
  | Swap_words { line; word } ->
      edit_words line (fun ws n ->
          let k = word mod n and k' = (word + 1) mod n in
          let w = ws.(k) in
          ws.(k) <- ws.(k');
          ws.(k') <- w;
          Array.to_list ws)
  | Drop_line line -> edit line (fun _ -> [])
  | Dup_line line -> edit line (fun s -> [ s; s ])
  | Truncate n -> String.sub text 0 (n mod (String.length text + 1))
  | Set_int { line; nth; value } ->
      edit line (fun s ->
          match int_spans s with
          | [] -> [ s ]
          | spans ->
              let start, len = List.nth spans (nth mod List.length spans) in
              [
                String.sub s 0 start ^ string_of_int value
                ^ String.sub s (start + len) (String.length s - start - len);
              ])

let mutation_gen =
  let open QCheck.Gen in
  let line =
    (* a third of the integer edits land on the program and memory
       lines, whose values size arrays *)
    frequency [ (1, int_range 0 1); (2, nat) ]
  in
  let value = oneofl [ -1; 0; max_int; min_int ] in
  pair (int_bound 1)
    (frequency
       [
         (1, map2 (fun line word -> Drop_word { line; word }) nat nat);
         (1, map2 (fun line word -> Dup_word { line; word }) nat nat);
         (1, map2 (fun line word -> Swap_words { line; word }) nat nat);
         (1, map (fun l -> Drop_line l) nat);
         (1, map (fun l -> Dup_line l) nat);
         (1, map (fun n -> Truncate n) nat);
         (2, map3 (fun line nth value -> Set_int { line; nth; value }) line nat
               value);
       ])

(* The parser is total: a mutated dump is either a program that
   round-trips or a Parse_error; any other exception fails the case. *)
let test_isa_text_mutations =
  QCheck.Test.make ~count:500 ~name:"ISA text mutations"
    (QCheck.make
       ~print:(fun (t, m) -> Fmt.str "tiny text %d: %s" t (show_mutation m))
       mutation_gen)
    (fun (t, m) ->
      let text = apply_mutation (Lazy.force tiny_texts).(t) m in
      match Pimcomp.Isa_text.of_string text with
      | p -> Pimcomp.Isa_text.(of_string (to_string p)) = p
      | exception Pimcomp.Isa_text.Parse_error _ -> true)

let test_grouped_network_schedules () =
  (* mobilenet exercises depthwise partitioning through both schedulers *)
  let g, table, layout = layout_of "mobilenet" 32 in
  List.iter
    (fun (label, program) ->
      check_verifies ~graph:g ("mobilenet " ^ label) program;
      Alcotest.(check int)
        ("mobilenet " ^ label ^ " windows")
        (expected_mvm_windows table)
        (Pimcomp.Isa.total_mvm_windows program);
      let m = Pimsim.Engine.run hw program in
      Alcotest.(check bool) "completes" false m.Pimsim.Metrics.deadlocked)
    [ ("HT", schedule_ht layout); ("LL", schedule_ll layout) ]

let test_check_catches_bad_programs () =
  let _, _, layout = layout_of "tiny" 16 in
  let p = schedule_ht layout in
  (* corrupt: a RECV on a fresh tag nothing ever SENDs *)
  let bad =
    {
      p with
      Pimcomp.Isa.num_tags = p.Pimcomp.Isa.num_tags + 1;
      Pimcomp.Isa.cores =
        Array.mapi
          (fun core instrs ->
            if core = 0 then
              Array.append instrs
                [|
                  {
                    Pimcomp.Isa.op =
                      Pimcomp.Isa.Recv
                        { src = 1; bytes = 8; tag = p.Pimcomp.Isa.num_tags };
                    deps = [];
                    node_id = -1;
                  };
                |]
            else instrs)
          p.Pimcomp.Isa.cores;
    }
  in
  let violations = Pimcomp.Verify.run ~config:hw bad in
  Alcotest.(check bool) "unmatched recv detected" true
    (List.exists
       (fun (v : Pimcomp.Verify.violation) ->
         v.Pimcomp.Verify.kind = Pimcomp.Verify.Unmatched_recv)
       violations)

let () =
  Alcotest.run "schedule"
    [
      ( "well-formed",
        [
          Alcotest.test_case "tiny" `Quick test_tiny_well_formed;
          Alcotest.test_case "squeezenet" `Quick test_squeezenet_well_formed;
          Alcotest.test_case "resnet18" `Quick test_resnet_well_formed;
        ] );
      ( "mode-properties",
        [
          Alcotest.test_case "HT uses global memory" `Quick
            test_ht_uses_global_memory;
          Alcotest.test_case "LL stays on chip" `Quick test_ll_stays_on_chip;
          Alcotest.test_case "LL rendezvous" `Quick
            test_ll_has_messages_when_split;
          Alcotest.test_case "transfer batching" `Quick
            test_mvms_per_transfer_scaling;
          Alcotest.test_case "allocator peaks" `Quick
            test_allocator_affects_peak_not_structure;
        ] );
      ( "structure",
        [
          Alcotest.test_case "MVM fields" `Quick test_mvm_instr_fields;
          Alcotest.test_case "pipeline depth" `Quick test_pipeline_depth;
          Alcotest.test_case "layout consistency" `Quick
            test_layout_consistency;
          Alcotest.test_case "ISA text round-trip" `Quick
            test_isa_text_roundtrip;
          Alcotest.test_case "ISA text errors" `Quick test_isa_text_errors;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 42 |])
            test_isa_text_mutations;
          Alcotest.test_case "grouped network schedules" `Quick
            test_grouped_network_schedules;
          Alcotest.test_case "checker catches corruption" `Quick
            test_check_catches_bad_programs;
        ] );
    ]
