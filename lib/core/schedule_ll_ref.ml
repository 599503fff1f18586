(* Reference Low-Latency scheduler: the original tuple-keyed-Hashtbl
   implementation, kept verbatim for differential testing of the dense
   flat-array scheduler in Schedule_ll (the Engine/Engine_ref pattern).
   Schedule_ll must produce bit-identical Isa.t programs.

   Low-Latency dataflow scheduling (Section IV-D2).

   The inter-layer pipeline granularity is a row chunk ("piece"): each
   output row is cut into [row_chunks] column chunks, and as soon as a
   node finishes a piece it streams it to the cores that consume it.  A
   consumer may start once it has received the last input its first
   window needs, per the (r_d, c_d) formulas of {!Receptive} — the
   paper's pixel-granularity condition, applied at chunk rather than
   pixel resolution to keep instruction streams tractable.

   Every node produces an ordered stream of pieces; piece s of a node
   with C chunks per row covers row (s-1)/C + 1, columns of chunk
   (s-1) mod C.  The (r_d, c_d) pair of a consumer piece translates to a
   single provider sequence number, so delivery tracking is a monotone
   per-(consumer, provider, core) mark.

   Work assignment: replicas split the OUTPUT COLUMNS of every row — a
   node with R replicas and C >= R chunks per row gives replica rho the
   contiguous chunk block [rho*C/R, (rho+1)*C/R).  Column-wise
   replication is what lets extra replicas shorten single-inference
   latency: all replicas cooperate on each row, so the pipeline-fill
   rows complete R times faster (with row-wise splits the first rows
   would serialise through one replica).  Non-weighted operations are
   divided across the replica head cores of their nearest weighted
   ancestor.  Network inputs are loaded from global memory on demand;
   terminal outputs are stored back; everything in between stays on
   chip. *)

type options = Schedule_ll.options = {
  strategy : Memalloc.strategy;
  row_chunks : int;
  spill_budget : int option;
}

let default_options = Schedule_ll.default_options

(* Ring depth (in pieces) for delivered staging buffers under AG-reuse. *)
let ring_depth = 32

(* Geometry of a node's piece stream. *)
type piece_geom = {
  rows : int;
  cols : int;           (* output width (1 for vectors) *)
  chunks : int;         (* column chunks per row *)
  piece_bytes : int;    (* bytes of one piece (last chunk may be smaller) *)
  row_bytes : int;
}

(* [replication] widens the chunk count so that every replica owns at
   least one column chunk of each row. *)
let geom ~row_chunks ~replication (node : Nnir.Node.t) =
  let shape = Nnir.Node.output_shape node in
  if Nnir.Tensor.is_chw shape then begin
    let rows = Nnir.Tensor.height shape
    and cols = Nnir.Tensor.width shape
    and channels = Nnir.Tensor.channels shape in
    let chunks = max 1 (min (max row_chunks replication) cols) in
    let row_bytes = channels * cols * Nnir.Tensor.bytes_per_element in
    {
      rows;
      cols;
      chunks;
      piece_bytes = Partition.ceil_div row_bytes chunks;
      row_bytes;
    }
  end
  else
    let row_bytes =
      Nnir.Tensor.num_elements shape * Nnir.Tensor.bytes_per_element
    in
    { rows = 1; cols = 1; chunks = 1; piece_bytes = row_bytes; row_bytes }

let schedule ?(options = default_options) (layout : Layout.t) : Isa.t =
  if options.strategy = Memalloc.Lifetime then
    invalid_arg
      "Schedule_ll_ref: the reference scheduler predates the lifetime \
       strategy; the bit-identity contract covers the Fig. 7 disciplines";
  let g = layout.Layout.graph in
  let pb =
    Prog_builder_ref.create ~core_count:layout.Layout.core_count
      ~strategy:options.strategy ~capacity:None
  in
  let fused_kind, fused_set = Sched_common.fused_activations g in
  let node_of id = Nnir.Graph.node g id in
  (* Replication driving each node's chunk count: its own for weighted
     nodes, the anchor ancestor's for VFU/data-movement ops. *)
  let repl_of =
    Array.init (Nnir.Graph.num_nodes g) (fun id ->
        if Nnir.Node.is_weighted (node_of id) then
          Layout.replication_by_id layout id
        else
          match Sched_common.anchor_ancestors g id with
          | [] -> 1
          | ancestors ->
              List.fold_left
                (fun acc a -> max acc (Layout.replication_by_id layout a))
                1 ancestors)
  in
  let geom_of = Array.init (Nnir.Graph.num_nodes g) (fun id ->
      geom ~row_chunks:options.row_chunks ~replication:repl_of.(id)
        (node_of id))
  in
  (* Column-chunk j of a node with C chunks and R replicas belongs to
     replica j*R/C (contiguous chunk blocks per replica). *)
  let owner_replica ~chunks ~replication j =
    min (replication - 1) (j * replication / max 1 chunks)
  in
  (* (node id, piece seq) -> producing (core, instr index) *)
  let piece_src : (int * int, int * int) Hashtbl.t = Hashtbl.create 8192 in
  (* (provider id, seq, core) -> delivery instr index on that core *)
  let avail : (int * int * int, int) Hashtbl.t = Hashtbl.create 8192 in
  (* (consumer id, provider id, core) -> last seq depended on *)
  let dep_mark : (int * int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let prev_mvm = Hashtbl.create 1024 in
  let acc_key = ref 0 in
  (* Deliver provider piece [s] to [core]. *)
  let deliver ~provider ~s ~core =
    match Hashtbl.find_opt avail (provider, s, core) with
    | Some idx -> idx
    | None ->
        let bytes = geom_of.(provider).piece_bytes in
        let ring_key =
          (provider * 4096) + (core * ring_depth) + (s mod ring_depth)
        in
        let idx =
          if Nnir.Op.is_input (Nnir.Node.op (node_of provider)) then begin
            ignore
              (Prog_builder_ref.alloc_buffer pb ~core ~bytes ~node:provider
                 (Memalloc.Ag_slot ring_key));
            Prog_builder_ref.emit pb ~core ~node:provider (Isa.Load { bytes })
          end
          else begin
            let p_core, p_idx =
              match Hashtbl.find_opt piece_src (provider, s) with
              | Some v -> v
              | None ->
                  invalid_arg
                    (Fmt.str
                       "Schedule_ll: piece %d of node %d not yet produced" s
                       provider)
            in
            if p_core = core then p_idx
            else begin
              ignore
                (Prog_builder_ref.alloc_buffer pb ~core ~bytes ~node:provider
                   (Memalloc.Ag_slot ring_key));
              Prog_builder_ref.send_recv pb ~src:p_core ~dst:core ~bytes
                ~node:provider ~src_deps:[ p_idx ] ~dst_deps:[] ()
            end
          end
        in
        Hashtbl.replace avail (provider, s, core) idx;
        idx
  in
  (* Dependencies for [consumer] at [core] on provider pieces up to
     sequence number [upto]. *)
  let require ~consumer ~provider ~upto ~core =
    let key = (consumer, provider, core) in
    let from = (try Hashtbl.find dep_mark key with Not_found -> 0) + 1 in
    let deps = ref [] in
    for s = from to upto do
      deps := deliver ~provider ~s ~core :: !deps
    done;
    if upto >= from then Hashtbl.replace dep_mark key upto;
    List.rev !deps
  in
  (* Last provider sequence number needed for piece (row r, chunk j) of a
     node applying [op]: all chunks of rows < r_d, plus chunks of row r_d
     up to the one containing c_d. *)
  let needed ~op ~provider ~out_geom ~r ~j =
    let pg = geom_of.(provider) in
    let q = Receptive.rows_needed op ~out_row:r ~in_rows:pg.rows in
    let q = max 1 (min q pg.rows) in
    let last_col = max 1 ((j + 1) * out_geom.cols / out_geom.chunks) in
    let c_d = Receptive.cols_needed op ~out_col:last_col ~in_cols:pg.cols in
    let c_d = max 1 (min c_d pg.cols) in
    let j_d = min (pg.chunks - 1) (((c_d - 1) * pg.chunks) / pg.cols) in
    (((q - 1) * pg.chunks) + j_d + 1)
  in
  (* ---- main walk in topological order ---- *)
  Array.iter
    (fun id ->
      let node = node_of id in
      let op = Nnir.Node.op node in
      let inputs = Nnir.Node.inputs node in
      let is_output = Nnir.Graph.consumers g id = [] in
      let og = geom_of.(id) in
      if Nnir.Op.is_input op then ()
      else if Hashtbl.mem fused_set id then begin
        (* fused into the producer: pieces alias the producer's pieces *)
        let producer = List.hd inputs in
        for s = 1 to og.rows * og.chunks do
          match Hashtbl.find_opt piece_src (producer, s) with
          | Some v -> Hashtbl.replace piece_src (id, s) v
          | None -> ()
        done
      end
      else if Nnir.Node.is_weighted node then begin
        let nl =
          match Layout.node_layout_by_id layout id with
          | Some nl -> nl
          | None -> invalid_arg "Schedule_ll: weighted node missing layout"
        in
        let info = nl.Layout.info in
        let provider = List.hd inputs in
        for r = 1 to og.rows do
          for j = 0 to og.chunks - 1 do
            let replica =
              nl.Layout.replicas.(owner_replica ~chunks:og.chunks
                                    ~replication:nl.Layout.replication j)
            in
            let windows =
              (((j + 1) * og.cols) / og.chunks) - (j * og.cols / og.chunks)
            in
            if windows > 0 then begin
              let upto = needed ~op ~provider ~out_geom:og ~r ~j in
              incr acc_key;
              let piece_acc = !acc_key in
              let piece_out_bytes =
                windows * info.Partition.out_channels * Sched_common.bpe
              in
              let partials =
                List.map
                  (fun (core, ags) ->
                    let piece_deps =
                      require ~consumer:id ~provider ~upto ~core
                    in
                    let mvm_idxs =
                      List.map
                        (fun ag ->
                          let deps =
                            piece_deps
                            @
                            match Hashtbl.find_opt prev_mvm ag with
                            | Some i -> [ i ]
                            | None -> []
                          in
                          ignore
                            (Prog_builder_ref.alloc_buffer pb ~core
                               ~bytes:piece_out_bytes ~node:id
                               (Memalloc.Ag_slot ag));
                          let idx =
                            Prog_builder_ref.emit pb ~core ~deps ~node:id
                              (Isa.Mvm
                                 {
                                   ag;
                                   windows;
                                   xbars = layout.Layout.ag_xbars.(ag);
                                   input_bytes =
                                     Sched_common.fresh_input_bytes_per_window
                                       g info
                                     / max 1 info.Partition.ags_per_replica;
                                   output_bytes =
                                     info.Partition.out_channels
                                     * Sched_common.bpe;
                                 })
                          in
                          Hashtbl.replace prev_mvm ag idx;
                          idx)
                        ags
                    in
                    let last =
                      if List.length ags > 1 then begin
                        ignore
                          (Prog_builder_ref.alloc_buffer pb ~core
                             ~bytes:piece_out_bytes ~node:id
                             (Memalloc.Accumulator piece_acc));
                        Prog_builder_ref.emit pb ~core ~deps:mvm_idxs ~node:id
                          (Isa.Vec
                             {
                               kind = Isa.Vadd;
                               elements =
                                 info.Partition.out_channels * windows
                                 * (List.length ags - 1);
                             })
                      end
                      else List.hd mvm_idxs
                    in
                    (core, last))
                  replica.Layout.groups
              in
              let head = replica.Layout.head_core in
              let head_deps = ref [] in
              List.iter
                (fun (core, last) ->
                  if core = head then head_deps := last :: !head_deps
                  else begin
                    ignore
                      (Prog_builder_ref.alloc_buffer pb ~core:head
                         ~bytes:piece_out_bytes ~node:id
                         (Memalloc.Accumulator piece_acc));
                    let recv =
                      Prog_builder_ref.send_recv pb ~src:core ~dst:head
                        ~bytes:piece_out_bytes ~node:id ~src_deps:[ last ]
                        ~dst_deps:[] ()
                    in
                    let add =
                      Prog_builder_ref.emit pb ~core:head ~deps:[ recv ] ~node:id
                        (Isa.Vec
                           {
                             kind = Isa.Vadd;
                             elements = info.Partition.out_channels * windows;
                           })
                    in
                    head_deps := add :: !head_deps
                  end)
                partials;
              let produced =
                match Hashtbl.find_opt fused_kind id with
                | Some kind ->
                    Prog_builder_ref.emit pb ~core:head ~deps:!head_deps ~node:id
                      (Isa.Vec
                         {
                           kind = Isa.Vact kind;
                           elements = info.Partition.out_channels * windows;
                         })
                | None -> (
                    match !head_deps with
                    | [ single ] -> single
                    | deps ->
                        Prog_builder_ref.emit pb ~core:head ~deps ~node:id
                          (Isa.Vec { kind = Isa.Vmove; elements = 1 }))
              in
              Prog_builder_ref.free_accumulator pb ~core:head ~key:piece_acc;
              let s = ((r - 1) * og.chunks) + j + 1 in
              Hashtbl.replace piece_src (id, s) (head, produced);
              if is_output then
                ignore
                  (Prog_builder_ref.emit pb ~core:head ~deps:[ produced ] ~node:id
                     (Isa.Store { bytes = piece_out_bytes }))
            end
          done
        done
      end
      else begin
        (* VFU / data-movement operation on the anchor's replica heads *)
        let anchors = Sched_common.anchor_ancestors g id in
        let anchor_layout =
          List.filter_map (fun a -> Layout.node_layout_by_id layout a) anchors
          |> List.fold_left
               (fun acc nl ->
                 match acc with
                 | Some (best : Layout.node_layout)
                   when best.Layout.replication >= nl.Layout.replication ->
                     acc
                 | _ -> Some nl)
               None
        in
        let vec_per_row = Sched_common.row_vec_elements g node in
        let vec_kind =
          match op with
          | Nnir.Op.Pool _ -> Isa.Vpool
          | Nnir.Op.Eltwise Nnir.Op.Add -> Isa.Vadd
          | Nnir.Op.Eltwise Nnir.Op.Mul -> Isa.Vmul
          | Nnir.Op.Eltwise Nnir.Op.Max -> Isa.Vmax
          | Nnir.Op.Activation k -> Isa.Vact k
          | Nnir.Op.Softmax -> Isa.Vsoftmax
          | Nnir.Op.Concat | Nnir.Op.Flatten | Nnir.Op.Identity -> Isa.Vmove
          | Nnir.Op.Input _ | Nnir.Op.Conv _ | Nnir.Op.Fully_connected _ ->
              Isa.Vmove
        in
        for r = 1 to og.rows do
          for j = 0 to og.chunks - 1 do
            let core =
              match anchor_layout with
              | Some nl ->
                  let replica =
                    owner_replica ~chunks:og.chunks
                      ~replication:nl.Layout.replication j
                  in
                  nl.Layout.replicas.(replica).Layout.head_core
              | None -> ((r - 1) + j) mod layout.Layout.core_count
            in
            let deps =
              List.concat_map
                (fun provider ->
                  let upto = needed ~op ~provider ~out_geom:og ~r ~j in
                  require ~consumer:id ~provider ~upto ~core)
                inputs
            in
            ignore
              (Prog_builder_ref.alloc_buffer pb ~core ~bytes:og.piece_bytes
                 ~node:id
                 (Memalloc.Ag_slot
                    ((id * 4096) + (core * ring_depth)
                    + (((r * og.chunks) + j) mod ring_depth))));
            let idx =
              Prog_builder_ref.emit pb ~core ~deps ~node:id
                (Isa.Vec
                   {
                     kind = vec_kind;
                     elements = Partition.ceil_div vec_per_row og.chunks;
                   })
            in
            let s = ((r - 1) * og.chunks) + j + 1 in
            Hashtbl.replace piece_src (id, s) (core, idx);
            if is_output then
              ignore
                (Prog_builder_ref.emit pb ~core ~deps:[ idx ] ~node:id
                   (Isa.Store { bytes = og.piece_bytes }))
          done
        done
      end)
    (Nnir.Graph.topo_order g);
  (* LL streams rows through all layers at once: a single inference's
     latency is the stream makespan itself. *)
  Prog_builder_ref.finish pb ~graph_name:(Nnir.Graph.name g)
    ~mode:Mode.Low_latency ~strategy:options.strategy
    ~ag_core:layout.Layout.ag_core ~ag_xbars:layout.Layout.ag_xbars
    ~pipeline_depth:1
