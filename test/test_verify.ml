(* Tests for the static program verifier: acceptance over the full zoo
   (every network x mode x allocator, PUMA-like mapping), a corpus of
   programmatic corruptions that must each be rejected with the expected
   violation kind and a precise core/instr diagnostic, and qcheck
   acceptance over random mappings. *)

module Isa = Pimcomp.Isa
module Verify = Pimcomp.Verify

let hw = Pimhw.Config.puma_like

let compile ?(name = "tiny") ?(mode = Pimcomp.Mode.Low_latency)
    ?(allocator = Pimcomp.Memalloc.Ag_reuse) () =
  let g = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name in
  let options =
    {
      Pimcomp.Compile.default_options with
      strategy = Pimcomp.Compile.Puma_like;
      mode;
      allocator;
      (* the corpus corrupts the result on purpose; verify explicitly *)
      verify = false;
    }
  in
  (g, (Pimcomp.Compile.compile ~options hw g).Pimcomp.Compile.program)

(* --- acceptance: the whole zoo verifies, every mode and allocator ----- *)

let test_zoo_differential () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          List.iter
            (fun allocator ->
              let g, p = compile ~name ~mode ~allocator () in
              match Verify.run ~graph:g ~config:hw p with
              | [] -> ()
              | vs ->
                  Alcotest.failf "%s %s %s: %a" name
                    (Pimcomp.Mode.to_string mode)
                    (Pimcomp.Memalloc.strategy_name allocator)
                    Verify.report vs)
            [ Pimcomp.Memalloc.Naive; Pimcomp.Memalloc.Add_reuse;
              Pimcomp.Memalloc.Ag_reuse ])
        Pimcomp.Mode.all)
    Nnir.Zoo.names

(* --- mutation corpus ------------------------------------------------- *)

let map_instr (p : Isa.t) ~core ~idx f =
  {
    p with
    Isa.cores =
      Array.mapi
        (fun c instrs ->
          if c <> core then instrs
          else
            Array.mapi (fun i ins -> if i <> idx then ins else f ins) instrs)
        p.Isa.cores;
  }

let find_op (p : Isa.t) pred =
  let found = ref None in
  Array.iteri
    (fun core instrs ->
      Array.iteri
        (fun idx (i : Isa.instr) ->
          if !found = None && pred i.Isa.op then found := Some (core, idx, i))
        instrs)
    p.Isa.cores;
  match !found with
  | Some x -> x
  | None -> Alcotest.fail "corpus program lacks the required instruction"

let is_send = function Isa.Send _ -> true | _ -> false
let is_recv = function Isa.Recv _ -> true | _ -> false
let is_mvm = function Isa.Mvm _ -> true | _ -> false

let neutralise (i : Isa.instr) =
  { i with Isa.op = Isa.Vec { kind = Isa.Vmove; elements = 0 } }

(* Every mutation must be rejected with its kind; when the mutation has
   a well-defined site, the diagnostic must name that exact core and
   instruction.  Built over alexnet LL — the smallest zoo program whose
   PUMA-like mapping produces cross-core rendezvous. *)
let corpus () :
    Nnir.Graph.t
    * (string * Verify.kind * Isa.t * (int * int option) option) list =
  let g, p = compile ~name:"alexnet" () in
  let send_core, send_idx, send_instr = find_op p is_send in
  let recv_core, recv_idx, _ = find_op p is_recv in
  let mvm_core, mvm_idx, mvm_instr = find_op p is_mvm in
  let send_tag =
    match send_instr.Isa.op with Isa.Send s -> s.tag | _ -> assert false
  in
  let mvm_ag =
    match mvm_instr.Isa.op with Isa.Mvm m -> m.ag | _ -> assert false
  in
  (* a second send on a different tag, for the duplicate-tag mutation *)
  let send2_core, send2_idx, _ =
    find_op p (function Isa.Send s -> s.tag <> send_tag | _ -> false)
  in
  let deadlock =
    (* two cores each waiting on the other's message before sending
       their own: structurally clean, pairwise matched, and stuck *)
    let recv ~src ~tag = { Isa.op = Isa.Recv { src; bytes = 8; tag }; deps = []; node_id = -1 } in
    let send ~dst ~tag =
      { Isa.op = Isa.Send { dst; bytes = 8; tag }; deps = [ 0 ]; node_id = -1 }
    in
    {
      Isa.graph_name = "deadlock";
      mode = Pimcomp.Mode.Low_latency;
      allocator = Pimcomp.Memalloc.Ag_reuse;
      core_count = 2;
      cores =
        [|
          [| recv ~src:1 ~tag:0; send ~dst:1 ~tag:1 |];
          [| recv ~src:0 ~tag:1; send ~dst:0 ~tag:0 |];
        |];
      ag_core = [||];
      ag_xbars = [||];
      num_tags = 2;
      pipeline_depth = 1;
      memory =
        {
          Isa.local_peak_bytes = [| 0; 0 |];
          local_resident_peak_bytes = [| 0; 0 |];
          spill_bytes = 0;
          global_load_bytes = 0;
          global_store_bytes = 0;
        };
      mem_trace = [||];
    }
  in
  ( g,
    [
    ( "forward dep",
      Verify.Dep_out_of_range,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          { i with Isa.deps = [ mvm_idx + 1 ] }),
      Some (mvm_core, Some mvm_idx) );
    ( "unknown node",
      Verify.Unknown_node,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          { i with Isa.node_id = 999_999 }),
      Some (mvm_core, Some mvm_idx) );
    ( "AG out of range",
      Verify.Ag_out_of_range,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          match i.Isa.op with
          | Isa.Mvm m ->
              { i with Isa.op = Isa.Mvm { m with ag = Array.length p.Isa.ag_core + 3 } }
          | _ -> i),
      Some (mvm_core, Some mvm_idx) );
    ( "AG remapped cross-core",
      Verify.Ag_foreign_core,
      {
        p with
        Isa.ag_core =
          Array.mapi
            (fun ag c ->
              if ag = mvm_ag then (c + 1) mod p.Isa.core_count else c)
            p.Isa.ag_core;
      },
      Some (mvm_core, Some mvm_idx) );
    ( "xbars mismatch",
      Verify.Xbars_mismatch,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          match i.Isa.op with
          | Isa.Mvm m -> { i with Isa.op = Isa.Mvm { m with xbars = m.xbars + 1 } }
          | _ -> i),
      Some (mvm_core, Some mvm_idx) );
    ( "SEND to nonexistent core",
      Verify.Endpoint_out_of_range,
      map_instr p ~core:send_core ~idx:send_idx (fun i ->
          match i.Isa.op with
          | Isa.Send s ->
              { i with Isa.op = Isa.Send { s with dst = p.Isa.core_count + 7 } }
          | _ -> i),
      Some (send_core, Some send_idx) );
    ( "tag out of range",
      Verify.Tag_out_of_range,
      map_instr p ~core:recv_core ~idx:recv_idx (fun i ->
          match i.Isa.op with
          | Isa.Recv r ->
              { i with Isa.op = Isa.Recv { r with tag = p.Isa.num_tags + 9 } }
          | _ -> i),
      Some (recv_core, Some recv_idx) );
    ( "duplicate tag",
      Verify.Duplicate_tag,
      map_instr p ~core:send2_core ~idx:send2_idx (fun i ->
          match i.Isa.op with
          | Isa.Send s -> { i with Isa.op = Isa.Send { s with tag = send_tag } }
          | _ -> i),
      None );
    ( "dropped RECV",
      Verify.Unmatched_send,
      map_instr p ~core:recv_core ~idx:recv_idx neutralise,
      None );
    ( "dropped SEND",
      Verify.Unmatched_recv,
      map_instr p ~core:send_core ~idx:send_idx neutralise,
      None );
    ( "rendezvous byte mismatch",
      Verify.Rendezvous_mismatch,
      map_instr p ~core:send_core ~idx:send_idx (fun i ->
          match i.Isa.op with
          | Isa.Send s -> { i with Isa.op = Isa.Send { s with bytes = s.bytes + 1 } }
          | _ -> i),
      Some (send_core, Some send_idx) );
    ("rendezvous cycle", Verify.Rendezvous_deadlock, deadlock, Some (0, Some 0));
    ( "inflated peak",
      Verify.Memory_drift,
      {
        p with
        Isa.memory =
          {
            p.Isa.memory with
            Isa.local_peak_bytes =
              Array.mapi
                (fun c b -> if c = 0 then b + 1024 else b)
                p.Isa.memory.Isa.local_peak_bytes;
          };
      },
      Some (0, None) );
    ( "inflated global traffic",
      Verify.Memory_drift,
      {
        p with
        Isa.memory =
          {
            p.Isa.memory with
            Isa.global_load_bytes = p.Isa.memory.Isa.global_load_bytes + 64;
          };
      },
      None );
    ( "crossbar capacity exceeded",
      Verify.Capacity_exceeded,
      {
        p with
        Isa.ag_xbars =
          Array.mapi
            (fun ag x ->
              if ag = mvm_ag then x + hw.Pimhw.Config.xbars_per_core else x)
            p.Isa.ag_xbars;
      },
      Some (mvm_core, None) );
    ( "negative operand",
      Verify.Bad_operand,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          { i with Isa.op = Isa.Vec { kind = Isa.Vadd; elements = -5 } }),
      Some (mvm_core, Some mvm_idx) );
  ] )

let test_corpus_rejected () =
  let g, cases = corpus () in
  let distinct = Hashtbl.create 16 in
  List.iter
    (fun (label, kind, corrupted, site) ->
      let vs = Verify.run ~graph:g ~config:hw corrupted in
      let matching =
        List.filter (fun (v : Verify.violation) -> v.Verify.kind = kind) vs
      in
      if matching = [] then
        Alcotest.failf "%s: expected %s, got %a" label (Verify.kind_name kind)
          Verify.report vs;
      Hashtbl.replace distinct (Verify.kind_name kind) ();
      match site with
      | None -> () (* program-wide violation, no single site *)
      | Some (core, instr) ->
          Alcotest.(check bool)
            (label ^ ": diagnostic names the corrupted site")
            true
            (List.exists
               (fun (v : Verify.violation) ->
                 v.Verify.core = Some core
                 && match instr with
                    | None -> true
                    | Some i -> v.Verify.instr = Some i)
               matching))
    cases;
  Alcotest.(check bool) "corpus covers >= 8 distinct violation kinds" true
    (Hashtbl.length distinct >= 8)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_clean_program_accepted () =
  let g, p = compile () in
  Alcotest.(check int) "no violations" 0
    (List.length (Verify.run ~graph:g ~config:hw p));
  (* report renders both verdicts *)
  Alcotest.(check bool) "clean report" true
    (Fmt.str "%a" Verify.report [] <> "");
  let cg, cases = corpus () in
  let _, kind, corrupted, _ = List.nth cases 0 in
  let vs = Verify.run ~graph:cg ~config:hw corrupted in
  let rendered = Fmt.str "%a" Verify.report vs in
  Alcotest.(check bool) "violation report names the kind" true
    (contains ~needle:(Verify.kind_name kind) rendered)

(* [Compile.compile]'s self-check reads [Verify.run]: a RECV replaced by
   a no-op leaves the SEND on its tag unmatched, reported at that SEND,
   and the clean program reports nothing. *)
let test_run_reports_neutralised_recv () =
  let g, p = compile ~name:"alexnet" () in
  let core, idx, recv = find_op p is_recv in
  let tag = match recv.Isa.op with Isa.Recv r -> r.tag | _ -> assert false in
  let send_core, send_idx, _ =
    find_op p (function Isa.Send s -> s.tag = tag | _ -> false)
  in
  let corrupted = map_instr p ~core ~idx neutralise in
  (match Verify.run ~graph:g ~config:hw corrupted with
  | [ v ] ->
      Alcotest.(check string)
        "kind" "unmatched-send"
        (Verify.kind_name v.Verify.kind);
      Alcotest.(check (option int)) "core" (Some send_core) v.Verify.core;
      Alcotest.(check (option int)) "instr" (Some send_idx) v.Verify.instr
  | vs ->
      Alcotest.failf "expected one unmatched SEND, got: %a" Verify.report vs);
  Alcotest.(check int) "clean program" 0
    (List.length (Verify.run ~graph:g ~config:hw p))

(* Engine-level subset: [Engine.arena] rejects every index the simulator
   reads unchecked, naming the instruction, while a hand-built program
   whose RECV has lost its SEND builds and simulates to a deadlocked
   result. *)
let test_well_formed_subset () =
  let _, p = compile ~name:"alexnet" () in
  let mvm_core, mvm_idx, _ = find_op p is_mvm in
  let send_core, send_idx, _ = find_op p is_send in
  let recv_core, recv_idx, recv = find_op p is_recv in
  let with_op core idx f =
    (core, idx, map_instr p ~core ~idx (fun i -> { i with Isa.op = f i.Isa.op }))
  in
  let mvm = with_op mvm_core mvm_idx in
  let send = with_op send_core send_idx in
  let recv_op = with_op recv_core recv_idx in
  let dep d =
    ( mvm_core,
      mvm_idx,
      map_instr p ~core:mvm_core ~idx:mvm_idx (fun i ->
          { i with Isa.deps = [ d ] }) )
  in
  List.iter
    (fun (label, (core, idx, bad)) ->
      match Pimsim.Engine.arena hw bad with
      | _ -> Alcotest.failf "arena accepted %s" label
      | exception Invalid_argument msg ->
          let site = Fmt.str "core %d instr %d" core idx in
          Alcotest.(check bool)
            (label ^ ": names " ^ site)
            true
            (contains ~needle:site msg))
    [
      ("a dep past its core", dep (Array.length p.Isa.cores.(mvm_core)));
      ("a negative dep", dep (-1));
      ( "an AG past the table",
        mvm (function
          | Isa.Mvm m -> Isa.Mvm { m with ag = Array.length p.Isa.ag_core }
          | op -> op) );
      ( "a negative AG",
        mvm (function Isa.Mvm m -> Isa.Mvm { m with ag = -1 } | op -> op) );
      ( "a SEND peer past the grid",
        send (function
          | Isa.Send s -> Isa.Send { s with dst = p.Isa.core_count }
          | op -> op) );
      ( "a negative RECV peer",
        recv_op (function Isa.Recv r -> Isa.Recv { r with src = -1 } | op -> op)
      );
      ( "a negative SEND tag",
        send (function Isa.Send s -> Isa.Send { s with tag = -1 } | op -> op) );
      ( "a negative RECV tag",
        recv_op (function Isa.Recv r -> Isa.Recv { r with tag = -2 } | op -> op)
      );
    ];
  let tag = match recv.Isa.op with Isa.Recv r -> r.tag | _ -> assert false in
  let lost_core, lost_idx, _ =
    find_op p (function Isa.Send s -> s.tag = tag | _ -> false)
  in
  let lost = map_instr p ~core:lost_core ~idx:lost_idx neutralise in
  Alcotest.(check bool)
    "a RECV without its SEND deadlocks" true
    (Pimsim.Engine.exec (Pimsim.Engine.arena hw lost)).Pimsim.Metrics.deadlocked

(* --- qcheck: random mappings always produce verifying programs ------- *)

let random_mappings_verify =
  QCheck.Test.make ~name:"random mappings verify (both schedulers)" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Nnir.Zoo.tiny () in
      let table = Pimcomp.Partition.of_graph hw g in
      let rng = Pimcomp.Rng.create ~seed in
      let chrom =
        Pimcomp.Chromosome.random_initial rng table ~core_count:6
          ~max_node_num_in_core:8 ~extra_replica_attempts:3 ()
      in
      let layout = Pimcomp.Layout.of_chromosome chrom in
      List.for_all
        (fun program -> Verify.run ~graph:g ~config:hw program = [])
        [
          Pimcomp.Schedule_ht.schedule layout;
          Pimcomp.Schedule_ll.schedule layout;
        ])

let random_options_verify =
  QCheck.Test.make ~name:"random compile options verify" ~count:8
    QCheck.(triple (int_range 0 1000) bool (int_range 0 2))
    (fun (seed, ht, alloc) ->
      let allocator =
        match alloc with
        | 0 -> Pimcomp.Memalloc.Naive
        | 1 -> Pimcomp.Memalloc.Add_reuse
        | _ -> Pimcomp.Memalloc.Ag_reuse
      in
      let mode =
        if ht then Pimcomp.Mode.High_throughput else Pimcomp.Mode.Low_latency
      in
      let g = Nnir.Zoo.tiny () in
      let options =
        {
          Pimcomp.Compile.default_options with
          strategy =
            Pimcomp.Compile.Genetic_algorithm Pimcomp.Genetic.fast_params;
          seed;
          mode;
          allocator;
          core_count = Some 8;
          (* compile verifies internally; a violation raises *)
          verify = true;
        }
      in
      let r = Pimcomp.Compile.compile ~options hw g in
      Verify.run ~graph:g ~config:hw r.Pimcomp.Compile.program = [])

let () =
  Alcotest.run "verify"
    [
      ( "acceptance",
        [
          Alcotest.test_case "zoo x mode x allocator" `Quick
            test_zoo_differential;
          Alcotest.test_case "clean program accepted" `Quick
            test_clean_program_accepted;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "mutations rejected with kinds" `Quick
            test_corpus_rejected;
          Alcotest.test_case "run reports a neutralised RECV" `Quick
            test_run_reports_neutralised_recv;
          Alcotest.test_case "engine subset" `Quick test_well_formed_subset;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest random_mappings_verify;
          QCheck_alcotest.to_alcotest random_options_verify;
        ] );
    ]
