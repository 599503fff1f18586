(* High-Throughput dataflow scheduling — Algorithm 1 of the paper.

   The inter-layer pipeline granularity is a whole inference: once the
   pipeline is full, each layer processes data of a different inference,
   so there are no cross-layer dependencies inside one compiled stream;
   all traffic between layers goes through global memory.

   Per core and replica share, windows are processed in transfer batches
   of [mvms_per_transfer] (Fig. 10 evaluation uses 2): load inputs from
   global memory, fire one MVM per AG per window, accumulate partial
   results within the core, accumulate across cores at the replica head,
   apply the fused activation, store to global memory.  Non-weighted
   operations are distributed round-robin across cores (line 10),
   streaming row by row through local memory. *)

type options = {
  mvms_per_transfer : int;
  strategy : Memalloc.strategy;
  spill_budget : int option;
      (* lifetime strategy only: cap on planned spill traffic *)
}

let default_options =
  { mvms_per_transfer = 2; strategy = Memalloc.Ag_reuse; spill_budget = None }

let emit_pass ~options ~plan (layout : Layout.t) : Isa.t =
  Sched_common.ensure_bulk_nursery ();
  let g = layout.Layout.graph in
  let config = Partition.table_config layout.Layout.table in
  let lifetime = options.strategy = Memalloc.Lifetime in
  (* Under the lifetime strategy the scratchpad capacity is enforced by
     the placement plan (deliberate spills), not by the allocator's
     opportunistic clamp. *)
  let pb =
    Prog_builder.create ~core_count:layout.Layout.core_count
      ~strategy:options.strategy
      ~capacity:
        (if lifetime then None
         else Some config.Pimhw.Config.local_memory_bytes)
      ?plan ()
  in
  let fused_kind, fused_set = Sched_common.fused_activations g in
  (* global ag -> last instr idx (MVMs on one AG serialise); AG ids are
     dense, so a flat array replaces the tuple-free hashtable. *)
  let prev_mvm = Array.make (max 1 layout.Layout.num_ags) (-1) in
  let acc_key = ref 0 in
  (* ---- weighted nodes (lines 1-9 of Algorithm 1) ---- *)
  Array.iter
    (fun (nl : Layout.node_layout) ->
      let info = nl.Layout.info in
      let node_id = info.Partition.node_id in
      let fresh_bytes = Sched_common.fresh_input_bytes_per_window g info in
      let out_bytes_per_window = info.Partition.output_bytes_per_window in
      let per_ag_in_bytes =
        Sched_common.slice_bytes ~total_bytes:fresh_bytes ~ags_on_core:1
          ~ags_per_replica:info.Partition.ags_per_replica
      in
      Array.iter
        (fun (r : Layout.replica) ->
          let windows = r.Layout.window_hi - r.Layout.window_lo in
          if windows > 0 then begin
            let replica_acc_key =
              incr acc_key;
              !acc_key
            in
            let batches =
              Partition.ceil_div windows options.mvms_per_transfer
            in
            for batch = 0 to batches - 1 do
              let batch_windows =
                min options.mvms_per_transfer
                  (windows - (batch * options.mvms_per_transfer))
              in
              (* one pass over the replica's cores: load + MVMs + local
                 accumulation *)
              let partials =
                List.map
                  (fun (core, ags) ->
                    let ags_on_core = List.length ags in
                    let in_bytes =
                      Sched_common.slice_bytes
                        ~total_bytes:(fresh_bytes * batch_windows)
                        ~ags_on_core
                        ~ags_per_replica:info.Partition.ags_per_replica
                    in
                    let spill_deps =
                      Prog_builder.alloc_fresh pb ~core ~bytes:in_bytes
                        ~node:node_id
                    in
                    let load =
                      Prog_builder.emit_load pb ~core ~deps:spill_deps
                        ~node:node_id ~bytes:in_bytes
                    in
                    let mvm_idxs =
                      List.map
                        (fun ag ->
                          let deps =
                            load
                            ::
                            (if prev_mvm.(ag) >= 0 then [ prev_mvm.(ag) ]
                             else [])
                          in
                          let slot_spills =
                            Prog_builder.alloc_ag_slot pb ~core
                              ~bytes:(out_bytes_per_window * batch_windows)
                              ~node:node_id ~key:ag
                          in
                          (* planned spill refills gate the MVM under
                             the lifetime strategy; the legacy
                             disciplines never spill slot requests here
                             and their dep lists must stay bit-identical *)
                          let deps =
                            if lifetime then slot_spills @ deps else deps
                          in
                          let idx =
                            Prog_builder.emit_mvm pb ~core ~deps ~node:node_id
                              ~ag ~windows:batch_windows
                              ~xbars:layout.Layout.ag_xbars.(ag)
                              ~input_bytes:per_ag_in_bytes
                              ~output_bytes:out_bytes_per_window
                          in
                          prev_mvm.(ag) <- idx;
                          idx)
                        ags
                    in
                    (* intra-core accumulation across this core's AGs *)
                    let last =
                      if ags_on_core > 1 then begin
                        let acc_spills =
                          Prog_builder.alloc_accumulator pb ~core
                            ~bytes:(out_bytes_per_window * batch_windows)
                            ~node:node_id ~key:replica_acc_key
                        in
                        let deps =
                          if lifetime then acc_spills @ mvm_idxs
                          else mvm_idxs
                        in
                        Prog_builder.emit_vec pb ~core ~deps
                          ~node:node_id ~kind:Isa.Vadd
                          ~elements:
                            (info.Partition.out_channels * batch_windows
                            * (ags_on_core - 1))
                      end
                      else List.hd mvm_idxs
                    in
                    Prog_builder.free_buffer pb ~core ~bytes:in_bytes;
                    (core, last))
                  r.Layout.groups
              in
              (* inter-core accumulation at the replica head (line 7) *)
              let head = r.Layout.head_core in
              let head_deps = ref [] in
              List.iter
                (fun (core, last) ->
                  if core = head then head_deps := last :: !head_deps
                  else begin
                    let bytes = out_bytes_per_window * batch_windows in
                    let acc_spills =
                      Prog_builder.alloc_accumulator pb ~core:head ~bytes
                        ~node:node_id ~key:replica_acc_key
                    in
                    let recv =
                      Prog_builder.send_recv pb ~src:core ~dst:head ~bytes
                        ~node:node_id ~src_deps:[ last ] ~dst_deps:[] ()
                    in
                    let add_deps =
                      if lifetime then acc_spills @ [ recv ] else [ recv ]
                    in
                    let add =
                      Prog_builder.emit_vec pb ~core:head ~deps:add_deps
                        ~node:node_id ~kind:Isa.Vadd
                        ~elements:(info.Partition.out_channels * batch_windows)
                    in
                    head_deps := add :: !head_deps
                  end)
                partials;
              (* fused activation (line 8) + store (line 9) *)
              let after_acc = !head_deps in
              let act_dep =
                match Hashtbl.find_opt fused_kind node_id with
                | Some kind ->
                    [
                      Prog_builder.emit_vec pb ~core:head ~deps:after_acc
                        ~node:node_id ~kind:(Isa.vact kind)
                        ~elements:(info.Partition.out_channels * batch_windows);
                    ]
                | None -> after_acc
              in
              ignore
                (Prog_builder.emit_store pb ~core:head ~deps:act_dep
                   ~node:node_id ~bytes:(out_bytes_per_window * batch_windows));
              Prog_builder.free_accumulator pb ~core:head ~key:replica_acc_key
            done
          end)
        nl.Layout.replicas;
      (* HT layers are pipeline stages over global memory: once a node's
         batches are stored, its MVM staging slots are dead.  Only the
         lifetime strategy records the deaths — the Fig. 7 disciplines
         keep slots resident and their traces must stay bit-identical. *)
      if lifetime then
        Array.iter
          (fun (r : Layout.replica) ->
            if r.Layout.window_hi - r.Layout.window_lo > 0 then
              List.iter
                (fun (core, ags) ->
                  List.iter
                    (fun ag -> Prog_builder.free_ag_slot pb ~core ~key:ag)
                    ags)
                r.Layout.groups)
          nl.Layout.replicas)
    layout.Layout.by_node_index;
  (* ---- other operations, distributed across cores (line 10) ---- *)
  let next_core = ref 0 in
  Nnir.Graph.iter
    (fun node ->
      let id = Nnir.Node.id node in
      let op = Nnir.Node.op node in
      let is_noop =
        Nnir.Op.is_input op || Nnir.Op.is_memory_op op
        || Nnir.Node.is_weighted node
        || Hashtbl.mem fused_set id
      in
      if not is_noop then begin
        let rows, row_bytes = Sched_common.row_geometry node in
        let vec_per_row = Sched_common.row_vec_elements g node in
        let in_row_bytes =
          List.fold_left
            (fun acc src ->
              let _, b =
                Sched_common.row_geometry (Nnir.Graph.node g src)
              in
              acc + b)
            0 (Nnir.Node.inputs node)
        in
        for _row = 1 to rows do
          let core = !next_core in
          next_core := (core + 1) mod layout.Layout.core_count;
          (* Each row stages through a fresh buffer that dies after the
             store.  This used to be a keyed AG slot paired with a plain
             per-row free — under AG-reuse the slot only grew once per
             core while the free reclaimed every row, an over-free the
             [overfree_bytes] diagnostic now counts; a fresh alloc/free
             pair is balanced for every discipline and accounting-
             identical for the non-reclaiming ones. *)
          let slot_spills =
            Prog_builder.alloc_fresh pb ~core ~bytes:in_row_bytes ~node:id
          in
          let load_deps = if lifetime then slot_spills else [] in
          let load =
            Prog_builder.emit_load pb ~core ~deps:load_deps ~node:id
              ~bytes:in_row_bytes
          in
          let vec =
            Prog_builder.emit_vec pb ~core ~deps:[ load ] ~node:id
              ~kind:Isa.Vpool ~elements:vec_per_row
          in
          ignore
            (Prog_builder.emit_store pb ~core ~deps:[ vec ] ~node:id
               ~bytes:row_bytes);
          Prog_builder.free_buffer pb ~core ~bytes:in_row_bytes
        done
      end)
    g;
  Prog_builder.finish pb ~graph_name:(Nnir.Graph.name g)
    ~mode:Mode.High_throughput ~strategy:options.strategy
    ~ag_core:layout.Layout.ag_core ~ag_xbars:layout.Layout.ag_xbars
    ~pipeline_depth:(Sched_common.pipeline_depth g)

let schedule ?(options = default_options) (layout : Layout.t) : Isa.t =
  match options.strategy with
  | Memalloc.Lifetime ->
      let config = Partition.table_config layout.Layout.table in
      Lifetime.optimise
        ~capacity:(Some config.Pimhw.Config.local_memory_bytes)
        ?spill_budget:options.spill_budget
        ~schedule:(fun plan -> emit_pass ~options ~plan layout)
        ()
  | _ -> emit_pass ~options ~plan:None layout
