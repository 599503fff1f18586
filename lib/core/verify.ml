(* Static verification of compiled Isa.t programs.  The ISA is the
   contract between the compiler backend and the simulator; this pass
   re-derives everything the simulator will rely on — index soundness,
   rendezvous pairing, deadlock-freedom, the memory report — from the
   program alone and reports any disagreement with a core/instruction
   diagnostic instead of letting it surface as a crash, a hang or a
   silently wrong metric deep inside a run. *)

type kind =
  | Dep_out_of_range
  | Bad_operand
  | Unknown_node
  | Ag_out_of_range
  | Ag_foreign_core
  | Xbars_mismatch
  | Endpoint_out_of_range
  | Tag_out_of_range
  | Duplicate_tag
  | Unmatched_send
  | Unmatched_recv
  | Rendezvous_mismatch
  | Rendezvous_deadlock
  | Memory_drift
  | Memory_overfree
  | Capacity_exceeded

let kind_name = function
  | Dep_out_of_range -> "dep-out-of-range"
  | Bad_operand -> "bad-operand"
  | Unknown_node -> "unknown-node"
  | Ag_out_of_range -> "ag-out-of-range"
  | Ag_foreign_core -> "ag-foreign-core"
  | Xbars_mismatch -> "xbars-mismatch"
  | Endpoint_out_of_range -> "endpoint-out-of-range"
  | Tag_out_of_range -> "tag-out-of-range"
  | Duplicate_tag -> "duplicate-tag"
  | Unmatched_send -> "unmatched-send"
  | Unmatched_recv -> "unmatched-recv"
  | Rendezvous_mismatch -> "rendezvous-mismatch"
  | Rendezvous_deadlock -> "rendezvous-deadlock"
  | Memory_drift -> "memory-drift"
  | Memory_overfree -> "memory-overfree"
  | Capacity_exceeded -> "capacity-exceeded"

type violation = {
  kind : kind;
  core : int option;
  instr : int option;
  message : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s]" (kind_name v.kind);
  (match v.core with Some c -> Fmt.pf ppf " core %d" c | None -> ());
  (match v.instr with Some i -> Fmt.pf ppf " instr %d" i | None -> ());
  Fmt.pf ppf ": %s" v.message

(* Violations are accumulated in reverse and flipped once at the end, so
   reports read in program order. *)
type acc = violation list ref

let add (acc : acc) kind ?core ?instr message =
  acc := { kind; core; instr; message } :: !acc

(* ---- structural well-formedness ------------------------------------ *)

let structural ?graph (t : Isa.t) =
  let acc : acc = ref [] in
  let num_cores = Array.length t.cores in
  if num_cores <> t.core_count then
    add acc Bad_operand
      (Fmt.str "core table has %d entries but core_count is %d" num_cores
         t.core_count);
  let num_ags = Array.length t.ag_core in
  if Array.length t.ag_xbars <> num_ags then
    add acc Bad_operand
      (Fmt.str "ag_core has %d entries but ag_xbars has %d" num_ags
         (Array.length t.ag_xbars));
  Array.iteri
    (fun ag core ->
      if core < 0 || core >= t.core_count then
        add acc Ag_out_of_range
          (Fmt.str "AG %d mapped to nonexistent core %d (of %d)" ag core
             t.core_count))
    t.ag_core;
  Array.iteri
    (fun ag xbars ->
      if xbars <= 0 then
        add acc Bad_operand (Fmt.str "AG %d has %d crossbars" ag xbars))
    t.ag_xbars;
  if t.num_tags < 0 then
    add acc Bad_operand (Fmt.str "negative num_tags %d" t.num_tags);
  let node_exists =
    match graph with
    | None -> fun _ -> true
    | Some g ->
        let n = Nnir.Graph.num_nodes g in
        fun id -> id >= 0 && id < n
  in
  (* [bad] takes core/idx as arguments rather than closing over them:
     the alternative — a fresh closure per instruction — costs an
     allocation on every instruction of a ~10^5-instruction stream
     before anything is even checked. *)
  let bad kind core idx fmt = Fmt.kstr (add acc kind ~core ~instr:idx) fmt in
  Array.iteri
    (fun core instrs ->
      Array.iteri
        (fun idx (i : Isa.instr) ->
          List.iter
            (fun d ->
              if d < 0 || d >= idx then
                bad Dep_out_of_range core idx
                  "dep %d out of range (must be in [0, %d))" d idx)
            i.Isa.deps;
          if i.Isa.node_id <> -1 && not (node_exists i.Isa.node_id) then
            bad Unknown_node core idx
              "node %d does not exist in the source graph" i.Isa.node_id;
          match i.Isa.op with
          | Isa.Mvm m ->
              if m.ag < 0 || m.ag >= num_ags then
                bad Ag_out_of_range core idx
                  "MVM drives AG %d but the table has %d" m.ag num_ags
              else begin
                if t.ag_core.(m.ag) <> core then
                  bad Ag_foreign_core core idx
                    "MVM drives AG %d which is mapped to core %d" m.ag
                    t.ag_core.(m.ag);
                if m.ag < Array.length t.ag_xbars
                   && m.xbars <> t.ag_xbars.(m.ag) then
                  bad Xbars_mismatch core idx
                    "MVM claims %d crossbars but AG %d has %d" m.xbars m.ag
                    t.ag_xbars.(m.ag)
              end;
              if m.windows < 0 then
                bad Bad_operand core idx "negative windows %d" m.windows;
              if m.input_bytes < 0 || m.output_bytes < 0 then
                bad Bad_operand core idx
                  "negative MVM byte count (%d in, %d out)" m.input_bytes
                  m.output_bytes
          | Isa.Vec v ->
              if v.elements < 0 then
                bad Bad_operand core idx "negative VEC elements %d" v.elements
          | Isa.Load { bytes } ->
              if bytes < 0 then
                bad Bad_operand core idx "negative LOAD bytes %d" bytes
          | Isa.Store { bytes } ->
              if bytes < 0 then
                bad Bad_operand core idx "negative STORE bytes %d" bytes
          | Isa.Send { dst; bytes; tag } ->
              if dst < 0 || dst >= t.core_count then
                bad Endpoint_out_of_range core idx
                  "SEND to nonexistent core %d" dst
              else if dst = core then
                bad Endpoint_out_of_range core idx "SEND to own core %d" dst;
              if bytes < 0 then
                bad Bad_operand core idx "negative SEND bytes %d" bytes;
              if tag < 0 || tag >= t.num_tags then
                bad Tag_out_of_range core idx "SEND tag %d outside [0, %d)"
                  tag t.num_tags
          | Isa.Recv { src; bytes; tag } ->
              if src < 0 || src >= t.core_count then
                bad Endpoint_out_of_range core idx
                  "RECV from nonexistent core %d" src
              else if src = core then
                bad Endpoint_out_of_range core idx "RECV from own core %d" src;
              if bytes < 0 then
                bad Bad_operand core idx "negative RECV bytes %d" bytes;
              if tag < 0 || tag >= t.num_tags then
                bad Tag_out_of_range core idx "RECV tag %d outside [0, %d)"
                  tag t.num_tags)
        instrs)
    t.cores;
  List.rev !acc

(* ---- communication soundness --------------------------------------- *)

let communication (t : Isa.t) =
  let acc : acc = ref [] in
  (* Tags are dense handles in [0, num_tags), so the first SEND and the
     first RECV on each tag are kept by global instruction id in flat
     tag-indexed arrays (count = 0 means the tag is unused);
     out-of-range tags are structural violations and skipped here.
     Walking tags in index order keeps reports deterministic without a
     sort, and the flat layout keeps this pass allocation-free on the
     dominant clean path. *)
  let num_tags = max 0 t.num_tags in
  let s_count = Array.make num_tags 0 and s_first = Array.make num_tags 0 in
  let r_count = Array.make num_tags 0 and r_first = Array.make num_tags 0 in
  (* Deadlock graph scaffolding (filled below): the single sweep both
     collects endpoints and counts dep out-degrees, since each full pass
     over a large program is cache traffic worth avoiding. *)
  let num_cores = Array.length t.cores in
  let base = Array.make (num_cores + 1) 0 in
  for c = 0 to num_cores - 1 do
    base.(c + 1) <- base.(c) + Array.length t.cores.(c)
  done;
  let n = base.(num_cores) in
  let gid core idx = base.(core) + idx in
  (* An instruction's predecessors in the stall graph are exactly its
     own dep list (plus, for a paired RECV, its SEND), so the
     topological sweep below runs on the REVERSE graph, reading dep
     lists directly as reverse adjacency — no compressed-sparse-rows
     materialisation on the clean path.  [outdeg] holds forward
     out-degrees (= reverse in-degrees); [flat]/[core_of] give O(1)
     instruction lookup by global id during the sweep. *)
  let outdeg = Array.make n 0 in
  let flat =
    Array.make (max 1 n)
      { Isa.op = Isa.Load { bytes = 0 }; deps = []; node_id = -1 }
  in
  let core_of = Array.make n 0 in
  let endpoint (count : int array) (first : int array) tag id =
    if count.(tag) = 0 then first.(tag) <- id;
    count.(tag) <- count.(tag) + 1
  in
  Array.iteri
    (fun core instrs ->
      let len = Array.length instrs in
      Array.iteri
        (fun idx (i : Isa.instr) ->
          flat.(gid core idx) <- i;
          core_of.(gid core idx) <- core;
          List.iter
            (fun d ->
              (* in-range forward deps are a structural violation, but
                 they also stall the dataflow engine — feed them to the
                 cycle detector rather than silently dropping them *)
              if d >= 0 && d < len && d <> idx then
                outdeg.(gid core d) <- outdeg.(gid core d) + 1)
            i.Isa.deps;
          match i.Isa.op with
          | Isa.Send { tag; _ } when tag >= 0 && tag < num_tags ->
              endpoint s_count s_first tag (gid core idx)
          | Isa.Recv { tag; _ } when tag >= 0 && tag < num_tags ->
              endpoint r_count r_first tag (gid core idx)
          | _ -> ())
        instrs)
    t.cores;
  (* an endpoint's index on its core, peer core and bytes, by global id *)
  let instr_of id = id - base.(core_of.(id)) in
  let peer id =
    match flat.(id).Isa.op with
    | Isa.Send { dst = c; _ } | Isa.Recv { src = c; _ } -> c
    | _ -> assert false
  in
  let bytes id =
    match flat.(id).Isa.op with
    | Isa.Send { bytes; _ } | Isa.Recv { bytes; _ } -> bytes
    | _ -> assert false
  in
  (* matched tags feed the deadlock graph below *)
  let paired = Array.make num_tags false in
  for tag = 0 to num_tags - 1 do
    let sc = s_count.(tag) and rc = r_count.(tag) in
    let s = s_first.(tag) and r = r_first.(tag) in
    if sc > 1 then
      add acc Duplicate_tag ~core:core_of.(s) ~instr:(instr_of s)
        (Fmt.str "tag %d used by %d SENDs" tag sc);
    if rc > 1 then
      add acc Duplicate_tag ~core:core_of.(r) ~instr:(instr_of r)
        (Fmt.str "tag %d used by %d RECVs" tag rc);
    match (sc, rc) with
    | 1, 1 ->
        if peer s <> core_of.(r) || peer r <> core_of.(s) then
          add acc Rendezvous_mismatch ~core:core_of.(s) ~instr:(instr_of s)
            (Fmt.str
               "tag %d: SEND %d->%d but RECV on core %d expects source %d"
               tag core_of.(s) (peer s) core_of.(r) (peer r))
        else if bytes s <> bytes r then
          add acc Rendezvous_mismatch ~core:core_of.(s) ~instr:(instr_of s)
            (Fmt.str "tag %d: SEND carries %dB but RECV expects %dB" tag
               (bytes s) (bytes r))
        else paired.(tag) <- true
    | 1, 0 ->
        add acc Unmatched_send ~core:core_of.(s) ~instr:(instr_of s)
          (Fmt.str "SEND tag %d to core %d has no matching RECV" tag (peer s))
    | 0, 1 ->
        add acc Unmatched_recv ~core:core_of.(r) ~instr:(instr_of r)
          (Fmt.str "RECV tag %d from core %d has no matching SEND" tag
             (peer r))
    | _ -> () (* unused, or duplicates already reported *)
  done;
  (* Deadlock-freedom.  The engine executes pure dataflow: an
     instruction runs once its intra-core deps have retired and, for a
     RECV, once the matching SEND's message has arrived; granted
     resources always complete.  So the program can stall if and only if
     the union of dep edges and SEND->RECV edges has a cycle.  Kahn's
     sweep runs on the reverse graph: a popped instruction's reverse
     successors are its own deps plus (for a RECV) its paired SEND
     ([pair_of]), so no adjacency structure is ever built on the clean
     path and nothing allocates per edge. *)
  let pair_of = Array.make n (-1) in
  for tag = 0 to num_tags - 1 do
    if paired.(tag) then begin
      let a = s_first.(tag) in
      outdeg.(a) <- outdeg.(a) + 1;
      pair_of.(r_first.(tag)) <- a
    end
  done;
  let stack = Array.make (max 1 n) 0 in
  let sp = ref 0 in
  let release p =
    outdeg.(p) <- outdeg.(p) - 1;
    if outdeg.(p) = 0 then begin
      stack.(!sp) <- p;
      incr sp
    end
  in
  for id = n - 1 downto 0 do
    if outdeg.(id) = 0 then begin
      stack.(!sp) <- id;
      incr sp
    end
  done;
  let count = ref 0 in
  while !sp > 0 do
    decr sp;
    let id = stack.(!sp) in
    incr count;
    let b = base.(core_of.(id)) in
    let len = base.(core_of.(id) + 1) - b in
    let idx = id - b in
    List.iter
      (fun d -> if d >= 0 && d < len && d <> idx then release (b + d))
      flat.(id).Isa.deps;
    if pair_of.(id) >= 0 then release pair_of.(id)
  done;
  if !count < n then begin
    (* remaining out-degree > 0 marks the stuck set; every stuck node
       has a stuck forward successor, so walking successors from any of
       them must close a cycle — report it.  Forward adjacency is only
       needed here, so the compressed-sparse-rows build lives on this
       (overwhelmingly rare) error path. *)
    let start = Array.make (n + 1) 0 in
    let each_edge f =
      Array.iteri
        (fun core instrs ->
          let len = Array.length instrs in
          Array.iteri
            (fun idx (i : Isa.instr) ->
              List.iter
                (fun d ->
                  if d >= 0 && d < len && d <> idx then
                    f (gid core d) (gid core idx))
                i.Isa.deps)
            instrs)
        t.cores;
      for tag = 0 to num_tags - 1 do
        if paired.(tag) then f s_first.(tag) r_first.(tag)
      done
    in
    each_edge (fun a _ -> start.(a + 1) <- start.(a + 1) + 1);
    for id = 0 to n - 1 do
      start.(id + 1) <- start.(id + 1) + start.(id)
    done;
    let succs = Array.make start.(n) 0 in
    let cursor = Array.sub start 0 n in
    each_edge (fun a b ->
        succs.(cursor.(a)) <- b;
        cursor.(a) <- cursor.(a) + 1);
    let first = ref (-1) in
    for id = n - 1 downto 0 do
      if outdeg.(id) > 0 then first := id
    done;
    let seen = Hashtbl.create 16 in
    let rec walk id path =
      match Hashtbl.find_opt seen id with
      | Some () ->
          (* close the cycle at [id] *)
          let rec cut = function
            | [] -> []
            | x :: rest -> if x = id then [ x ] else x :: cut rest
          in
          List.rev (cut path)
      | None ->
          Hashtbl.add seen id ();
          let next = ref (-1) in
          for k = start.(id) to start.(id + 1) - 1 do
            if !next < 0 && outdeg.(succs.(k)) > 0 then next := succs.(k)
          done;
          walk !next (!next :: path)
    in
    let cycle = walk !first [ !first ] in
    let core_idx_of id = (core_of.(id), id - base.(core_of.(id))) in
    let pp_node ppf id =
      let c, i = core_idx_of id in
      Fmt.pf ppf "core %d instr %d" c i
    in
    let c0, i0 = core_idx_of (List.hd cycle) in
    add acc Rendezvous_deadlock ~core:c0 ~instr:i0
      (Fmt.str "dependency/rendezvous cycle: %a (%d instructions stuck)"
         Fmt.(list ~sep:(any " -> ") pp_node)
         cycle (n - !count))
  end;
  List.rev !acc

(* ---- resource accounting ------------------------------------------- *)

let resources ?config (t : Isa.t) =
  let acc : acc = ref [] in
  (* global traffic must equal the LOAD/STORE bytes in the stream *)
  let loads = ref 0 and stores = ref 0 in
  Array.iter
    (Array.iter (fun (i : Isa.instr) ->
         match i.Isa.op with
         | Isa.Load { bytes } -> loads := !loads + bytes
         | Isa.Store { bytes } -> stores := !stores + bytes
         | _ -> ()))
    t.cores;
  if !loads <> t.memory.Isa.global_load_bytes then
    add acc Memory_drift
      (Fmt.str "global loads: report says %dB, instruction stream sums to %dB"
         t.memory.Isa.global_load_bytes !loads);
  if !stores <> t.memory.Isa.global_store_bytes then
    add acc Memory_drift
      (Fmt.str
         "global stores: report says %dB, instruction stream sums to %dB"
         t.memory.Isa.global_store_bytes !stores);
  if Array.length t.memory.Isa.local_peak_bytes <> t.core_count then
    add acc Bad_operand
      (Fmt.str "memory report covers %d cores but the program has %d"
         (Array.length t.memory.Isa.local_peak_bytes)
         t.core_count);
  if Array.length t.memory.Isa.local_resident_peak_bytes <> t.core_count then
    add acc Bad_operand
      (Fmt.str
         "resident-peak report covers %d cores but the program has %d"
         (Array.length t.memory.Isa.local_resident_peak_bytes)
         t.core_count);
  (* replay the allocation trace through a fresh allocator *)
  let trace_ok = ref true in
  Array.iter
    (fun (ev : Isa.mem_event) ->
      let core, bytes =
        match ev with
        | Isa.Alloc { core; bytes; _ } -> (core, bytes)
        | Isa.Free { core; bytes } -> (core, bytes)
        | Isa.Free_accumulator { core; _ } -> (core, 0)
        | Isa.Free_ag_slot { core; _ } -> (core, 0)
      in
      if core < 0 || core >= t.core_count || bytes < 0 then begin
        trace_ok := false;
        add acc Bad_operand
          (Fmt.str "invalid allocation event: %a" Isa.pp_mem_event ev)
      end)
    t.mem_trace;
  let capacity =
    (* LL streams schedule against an unbounded scratchpad (demand is
       what the report records); HT streams spill against the hardware
       scratchpad, so their replay needs the config *)
    match (t.mode, config) with
    | Mode.Low_latency, _ -> Some None
    | Mode.High_throughput, Some (c : Pimhw.Config.t) ->
        Some (Some c.Pimhw.Config.local_memory_bytes)
    | Mode.High_throughput, None -> None
  in
  (* Lifetime programs carry a *planned* placement: demand is replayed
     unclamped (the plan never clamps the allocator) and residency /
     spill are recomputed by re-running the deterministic planner on the
     trace.  Legacy programs replay through the allocator's own clamp. *)
  let replay_cap =
    match t.allocator with Memalloc.Lifetime -> Some None | _ -> capacity
  in
  (match replay_cap with
  | Some cap
    when !trace_ok
         && Array.length t.memory.Isa.local_peak_bytes = t.core_count
         && Array.length t.memory.Isa.local_resident_peak_bytes
            = t.core_count -> (
      try
        let m =
          Lifetime.replay t.allocator ~core_count:t.core_count ~capacity:cap
            t.mem_trace
        in
        Array.iteri
          (fun core peak ->
            if peak <> t.memory.Isa.local_peak_bytes.(core) then
              add acc Memory_drift ~core
                (Fmt.str "local peak: report says %dB, replay gives %dB"
                   t.memory.Isa.local_peak_bytes.(core) peak))
          (Memalloc.demand_peaks m);
        (* frees beyond the live set mean the scheduler double-freed a
           buffer; the allocator's clamp keeps the counters sane but the
           program's accounting can no longer be trusted *)
        for core = 0 to t.core_count - 1 do
          let over = Memalloc.overfree_bytes_on m ~core in
          if over > 0 then
            add acc Memory_overfree ~core
              (Fmt.str "replay reclaimed %dB more than was ever live" over)
        done;
        (match t.allocator with
        | Memalloc.Lifetime -> (
            match capacity with
            | None -> () (* HT without a config: plan is unrecoverable *)
            | Some plan_cap ->
                let plan =
                  Lifetime.plan_of_trace ~core_count:t.core_count
                    ~capacity:plan_cap t.mem_trace
                in
                Array.iteri
                  (fun core peak ->
                    if
                      peak <> t.memory.Isa.local_resident_peak_bytes.(core)
                    then
                      add acc Memory_drift ~core
                        (Fmt.str
                           "resident peak: report says %dB, placement replay \
                            gives %dB"
                           t.memory.Isa.local_resident_peak_bytes.(core) peak))
                  plan.Lifetime.resident;
                if plan.Lifetime.spill <> t.memory.Isa.spill_bytes then
                  add acc Memory_drift
                    (Fmt.str "spill: report says %dB, placement replay gives \
                              %dB"
                       t.memory.Isa.spill_bytes plan.Lifetime.spill);
                match plan_cap with
                | None -> ()
                | Some cap_bytes ->
                    Array.iteri
                      (fun core peak ->
                        if peak > cap_bytes then
                          add acc Capacity_exceeded ~core
                            (Fmt.str
                               "placement peak %dB exceeds the %dB scratchpad"
                               peak cap_bytes))
                      plan.Lifetime.resident)
        | _ ->
            Array.iteri
              (fun core peak ->
                if peak <> t.memory.Isa.local_resident_peak_bytes.(core) then
                  add acc Memory_drift ~core
                    (Fmt.str
                       "resident peak: report says %dB, replay gives %dB"
                       t.memory.Isa.local_resident_peak_bytes.(core) peak))
              (Memalloc.resident_peaks m);
            let spill = Memalloc.spill_bytes m in
            if spill <> t.memory.Isa.spill_bytes then
              add acc Memory_drift
                (Fmt.str "spill: report says %dB, replay gives %dB"
                   t.memory.Isa.spill_bytes spill))
      with Memalloc.Doesnt_fit msg ->
        add acc Capacity_exceeded
          (Fmt.str "allocation replay aborted: %s" msg))
  | _ -> ());
  (* crossbar capacity per core *)
  (match config with
  | None -> ()
  | Some (c : Pimhw.Config.t) ->
      let num_ags = Array.length t.ag_core in
      let used = Array.make t.core_count 0 in
      for ag = 0 to num_ags - 1 do
        let core = t.ag_core.(ag) in
        if core >= 0 && core < t.core_count && ag < Array.length t.ag_xbars
        then used.(core) <- used.(core) + t.ag_xbars.(ag)
      done;
      Array.iteri
        (fun core u ->
          if u > c.Pimhw.Config.xbars_per_core then
            add acc Capacity_exceeded ~core
              (Fmt.str "core uses %d crossbars but the config allows %d" u
                 c.Pimhw.Config.xbars_per_core))
        used);
  List.rev !acc

(* ---- drivers -------------------------------------------------------- *)

let run ?graph ?config t =
  structural ?graph t @ communication t @ resources ?config t

let report ppf = function
  | [] -> Fmt.pf ppf "program verifies: no violations"
  | vs ->
      Fmt.pf ppf "@[<v>%d violation%s:@,%a@]" (List.length vs)
        (if List.length vs = 1 then "" else "s")
        Fmt.(list ~sep:cut (fun ppf v -> Fmt.pf ppf "  %a" pp_violation v))
        vs
