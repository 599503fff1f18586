(* Reference High-Throughput scheduler: the original Hashtbl-based
   implementation, kept verbatim for differential testing of the dense
   flat-array scheduler in Schedule_ht (the Engine/Engine_ref pattern).
   Schedule_ht must produce bit-identical Isa.t programs.

   High-Throughput dataflow scheduling — Algorithm 1 of the paper.

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

type options = Schedule_ht.options = {
  mvms_per_transfer : int;
  strategy : Memalloc.strategy;
  spill_budget : int option;
}

let default_options = Schedule_ht.default_options

let schedule ?(options = default_options) (layout : Layout.t) : Isa.t =
  if options.strategy = Memalloc.Lifetime then
    invalid_arg
      "Schedule_ht_ref: the reference scheduler predates the lifetime \
       strategy; the bit-identity contract covers the Fig. 7 disciplines";
  let g = layout.Layout.graph in
  let config = Partition.table_config layout.Layout.table in
  let pb =
    Prog_builder_ref.create ~core_count:layout.Layout.core_count
      ~strategy:options.strategy
      ~capacity:(Some config.Pimhw.Config.local_memory_bytes)
  in
  let fused_kind, fused_set = Sched_common.fused_activations g in
  let prev_mvm = Hashtbl.create 1024 in (* global ag -> last instr idx *)
  let acc_key = ref 0 in
  (* ---- weighted nodes (lines 1-9 of Algorithm 1) ---- *)
  Array.iter
    (fun (nl : Layout.node_layout) ->
      let info = nl.Layout.info in
      let node_id = info.Partition.node_id in
      let fresh_bytes = Sched_common.fresh_input_bytes_per_window g info in
      let out_bytes_per_window = info.Partition.output_bytes_per_window in
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
                      Prog_builder_ref.alloc_buffer pb ~core ~bytes:in_bytes
                        ~node:node_id Memalloc.Fresh
                    in
                    let load =
                      Prog_builder_ref.emit pb ~core ~deps:spill_deps ~node:node_id
                        (Isa.Load { bytes = in_bytes })
                    in
                    let mvm_idxs =
                      List.map
                        (fun ag ->
                          let deps =
                            load
                            ::
                            (match Hashtbl.find_opt prev_mvm ag with
                            | Some i -> [ i ]
                            | None -> [])
                          in
                          ignore
                            (Prog_builder_ref.alloc_buffer pb ~core
                               ~bytes:(out_bytes_per_window * batch_windows)
                               ~node:node_id (Memalloc.Ag_slot ag));
                          let idx =
                            Prog_builder_ref.emit pb ~core ~deps ~node:node_id
                              (Isa.Mvm
                                 {
                                   ag;
                                   windows = batch_windows;
                                   xbars = layout.Layout.ag_xbars.(ag);
                                   input_bytes =
                                     Sched_common.slice_bytes
                                       ~total_bytes:fresh_bytes ~ags_on_core:1
                                       ~ags_per_replica:
                                         info.Partition.ags_per_replica;
                                   output_bytes = out_bytes_per_window;
                                 })
                          in
                          Hashtbl.replace prev_mvm ag idx;
                          idx)
                        ags
                    in
                    (* intra-core accumulation across this core's AGs *)
                    let last =
                      if ags_on_core > 1 then begin
                        ignore
                          (Prog_builder_ref.alloc_buffer pb ~core
                             ~bytes:(out_bytes_per_window * batch_windows)
                             ~node:node_id
                             (Memalloc.Accumulator replica_acc_key));
                        Prog_builder_ref.emit pb ~core ~deps:mvm_idxs ~node:node_id
                          (Isa.Vec
                             {
                               kind = Isa.Vadd;
                               elements =
                                 info.Partition.out_channels * batch_windows
                                 * (ags_on_core - 1);
                             })
                      end
                      else List.hd mvm_idxs
                    in
                    Prog_builder_ref.free_buffer pb ~core ~bytes:in_bytes;
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
                    ignore
                      (Prog_builder_ref.alloc_buffer pb ~core:head ~bytes
                         ~node:node_id (Memalloc.Accumulator replica_acc_key));
                    let recv =
                      Prog_builder_ref.send_recv pb ~src:core ~dst:head ~bytes
                        ~node:node_id ~src_deps:[ last ] ~dst_deps:[] ()
                    in
                    let add =
                      Prog_builder_ref.emit pb ~core:head ~deps:[ recv ]
                        ~node:node_id
                        (Isa.Vec
                           {
                             kind = Isa.Vadd;
                             elements =
                               info.Partition.out_channels * batch_windows;
                           })
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
                      Prog_builder_ref.emit pb ~core:head ~deps:after_acc
                        ~node:node_id
                        (Isa.Vec
                           {
                             kind = Isa.Vact kind;
                             elements =
                               info.Partition.out_channels * batch_windows;
                           });
                    ]
                | None -> after_acc
              in
              ignore
                (Prog_builder_ref.emit pb ~core:head ~deps:act_dep ~node:node_id
                   (Isa.Store
                      { bytes = out_bytes_per_window * batch_windows }));
              Prog_builder_ref.free_accumulator pb ~core:head ~key:replica_acc_key
            done
          end)
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
          (* fresh per-row staging buffer, freed after the store; a keyed
             AG slot here under-counted the frees (see Schedule_ht) *)
          ignore
            (Prog_builder_ref.alloc_buffer pb ~core ~bytes:in_row_bytes ~node:id
               Memalloc.Fresh);
          let load =
            Prog_builder_ref.emit pb ~core ~node:id
              (Isa.Load { bytes = in_row_bytes })
          in
          let vec =
            Prog_builder_ref.emit pb ~core ~deps:[ load ] ~node:id
              (Isa.Vec { kind = Isa.Vpool; elements = vec_per_row })
          in
          ignore
            (Prog_builder_ref.emit pb ~core ~deps:[ vec ] ~node:id
               (Isa.Store { bytes = row_bytes }));
          Prog_builder_ref.free_buffer pb ~core ~bytes:in_row_bytes
        done
      end)
    g;
  Prog_builder_ref.finish pb ~graph_name:(Nnir.Graph.name g)
    ~mode:Mode.High_throughput ~strategy:options.strategy
    ~ag_core:layout.Layout.ag_core ~ag_xbars:layout.Layout.ag_xbars
    ~pipeline_depth:(Sched_common.pipeline_depth g)
