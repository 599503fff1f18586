(* Low-Latency dataflow scheduling (Section IV-D2).

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
   chip.

   Hot state lives on dense integer index spaces instead of tuple-keyed
   hash tables: pieces are numbered globally by per-node prefix-sum
   bases ({!Sched_common.stream_bases}), so (node, s) and (node, s,
   core) keys become flat int-array indices, and per-(consumer,
   provider, core) delivery marks index a dense input-edge numbering
   ({!Sched_common.input_edge_slots}).  {!Schedule_ll_ref} keeps the
   original hashtable formulation; the two must produce bit-identical
   programs. *)

type options = {
  strategy : Memalloc.strategy;
  row_chunks : int;
  spill_budget : int option;
      (* lifetime strategy only: cap on planned spill traffic *)
}

let default_options =
  { strategy = Memalloc.Ag_reuse; row_chunks = 4; spill_budget = None }

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

let emit_pass ~options ~plan (layout : Layout.t) : Isa.t =
  Sched_common.ensure_bulk_nursery ();
  let g = layout.Layout.graph in
  let core_count = layout.Layout.core_count in
  let lifetime = options.strategy = Memalloc.Lifetime in
  let pb =
    Prog_builder.create ~core_count ~strategy:options.strategy ~capacity:None
      ?plan ()
  in
  let fused_kind, fused_set = Sched_common.fused_activations g in
  let node_of id = Nnir.Graph.node g id in
  let num_nodes = Nnir.Graph.num_nodes g in
  (* Replication driving each node's chunk count: its own for weighted
     nodes, the anchor ancestor's for VFU/data-movement ops. *)
  let repl_of =
    Array.init num_nodes (fun id ->
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
  let geom_of = Array.init num_nodes (fun id ->
      geom ~row_chunks:options.row_chunks ~replication:repl_of.(id)
        (node_of id))
  in
  (* Column-chunk j of a node with C chunks and R replicas belongs to
     replica j*R/C (contiguous chunk blocks per replica). *)
  let owner_replica ~chunks ~replication j =
    min (replication - 1) (j * replication / max 1 chunks)
  in
  (* Global piece numbering: piece s of node [id] (1-based) is flat index
     piece_base.(id) + s - 1, so every per-piece table below is a dense
     int array. *)
  let piece_base =
    Sched_common.stream_bases ~num_nodes (fun id ->
        geom_of.(id).rows * geom_of.(id).chunks)
  in
  let num_pieces = piece_base.(num_nodes) in
  let pid ~node ~s = piece_base.(node) + s - 1 in
  (* piece -> producing (core, instr index); -1 = not yet produced *)
  let piece_src_core = Array.make num_pieces (-1) in
  let piece_src_idx = Array.make num_pieces (-1) in
  (* (core, piece) -> delivery instr index on that core; -1 = absent.
     Core-major so that [require]'s sequence loop walks consecutive
     cells. *)
  let avail = Array.make (num_pieces * core_count) (-1) in
  (* (input-edge slot, core) -> last seq depended on *)
  let edge_slots, num_edges = Sched_common.input_edge_slots g in
  let dep_mark = Array.make (max 1 (num_edges * core_count)) 0 in
  (* AG -> index of its previous MVM (MVMs on one AG serialise) *)
  let prev_mvm = Array.make (max 1 layout.Layout.num_ags) (-1) in
  let acc_key = ref 0 in
  (* Lifetime strategy: track which staging slots each node owns (its
     delivered input copies on consumer cores, its output staging ring)
     so they can be released once the node's last graph consumer has
     been fully scheduled.  The Fig. 7 disciplines never release slots,
     so all of this is gated to keep their traces bit-identical with the
     reference pipelines. *)
  let topo = Nnir.Graph.topo_order g in
  let topo_pos = Array.make num_nodes 0 in
  Array.iteri (fun i id -> topo_pos.(id) <- i) topo;
  let slots_of = Array.make num_nodes [] in
  let slot_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_slot ~owner ~core ~key =
    if lifetime && not (Hashtbl.mem slot_seen (core, key)) then begin
      Hashtbl.add slot_seen (core, key) ();
      slots_of.(owner) <- (core, key) :: slots_of.(owner)
    end
  in
  let release_slots owner =
    List.iter
      (fun (core, key) -> Prog_builder.free_ag_slot pb ~core ~key)
      (List.rev slots_of.(owner));
    slots_of.(owner) <- []
  in
  (* walk position -> nodes whose staging dies once it completes *)
  let dead_after = Array.make (max 1 num_nodes) [] in
  if lifetime then
    for id = 0 to num_nodes - 1 do
      match Nnir.Graph.consumers g id with
      | [] -> ()
      | consumers ->
          let last =
            List.fold_left
              (fun acc c -> if topo_pos.(c) > topo_pos.(acc) then c else acc)
              (List.hd consumers) consumers
          in
          dead_after.(topo_pos.(last)) <- id :: dead_after.(topo_pos.(last))
    done;
  (* Deliver provider piece [s] to [core]. *)
  let deliver ~provider ~s ~core =
    let p = pid ~node:provider ~s in
    let a = (core * num_pieces) + p in
    let cached = avail.(a) in
    if cached >= 0 then cached
    else begin
      let bytes = geom_of.(provider).piece_bytes in
      let ring_key =
        (provider * 4096) + (core * ring_depth) + (s mod ring_depth)
      in
      let idx =
        if Nnir.Op.is_input (Nnir.Node.op (node_of provider)) then begin
          ignore
            (Prog_builder.alloc_ag_slot pb ~core ~bytes ~node:provider
               ~key:ring_key);
          note_slot ~owner:provider ~core ~key:ring_key;
          Prog_builder.emit_load pb ~core ~deps:[] ~node:provider ~bytes
        end
        else begin
          let p_core = piece_src_core.(p) in
          if p_core < 0 then
            invalid_arg
              (Fmt.str "Schedule_ll: piece %d of node %d not yet produced" s
                 provider);
          if p_core = core then piece_src_idx.(p)
          else begin
            ignore
              (Prog_builder.alloc_ag_slot pb ~core ~bytes ~node:provider
                 ~key:ring_key);
            note_slot ~owner:provider ~core ~key:ring_key;
            Prog_builder.send_recv pb ~src:p_core ~dst:core ~bytes
              ~node:provider ~src_deps:[ piece_src_idx.(p) ] ~dst_deps:[] ()
          end
        end
      in
      avail.(a) <- idx;
      idx
    end
  in
  (* Dependencies at [core] on provider pieces up to sequence number
     [upto]; [edge] is the dense (consumer, provider) slot. *)
  let require ~edge ~provider ~upto ~core =
    let m = (edge * core_count) + core in
    let from = dep_mark.(m) + 1 in
    (* Deliveries must be emitted in ascending order; the dep list is
       then rebuilt backwards from the (now warm) cache, so the list
       comes out in order without a [List.rev] copy. *)
    for s = from to upto do
      ignore (deliver ~provider ~s ~core : int)
    done;
    let deps = ref [] in
    let base = (core * num_pieces) + piece_base.(provider) - 1 in
    for s = upto downto from do
      deps := avail.(base + s) :: !deps
    done;
    if upto >= from then dep_mark.(m) <- upto;
    !deps
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
  Array.iteri
    (fun pos id ->
      let node = node_of id in
      let op = Nnir.Node.op node in
      let inputs = Nnir.Node.inputs node in
      let is_output = Nnir.Graph.consumers g id = [] in
      let og = geom_of.(id) in
      if Nnir.Op.is_input op then ()
      else if Hashtbl.mem fused_set id then begin
        (* fused into the producer: pieces alias the producer's pieces *)
        let producer = List.hd inputs in
        let producer_pieces =
          piece_base.(producer + 1) - piece_base.(producer)
        in
        for s = 1 to og.rows * og.chunks do
          if s <= producer_pieces then begin
            let src = pid ~node:producer ~s in
            if piece_src_core.(src) >= 0 then begin
              let dst = pid ~node:id ~s in
              piece_src_core.(dst) <- piece_src_core.(src);
              piece_src_idx.(dst) <- piece_src_idx.(src)
            end
          end
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
        let edge = edge_slots.(id).(0) in
        (* The per-window byte count is a loop invariant: hoist it out
           of the piece loops (the reference recomputes it per piece). *)
        let mvm_input_bytes =
          Sched_common.fresh_input_bytes_per_window g info
          / max 1 info.Partition.ags_per_replica
        in
        let out_channels = info.Partition.out_channels in
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
                windows * out_channels * Sched_common.bpe
              in
              let partials =
                List.map
                  (fun (core, ags) ->
                    let piece_deps = require ~edge ~provider ~upto ~core in
                    let mvm_idxs =
                      List.map
                        (fun ag ->
                          let deps =
                            piece_deps
                            @
                            if prev_mvm.(ag) >= 0 then [ prev_mvm.(ag) ]
                            else []
                          in
                          ignore
                            (Prog_builder.alloc_ag_slot pb ~core
                               ~bytes:piece_out_bytes ~node:id ~key:ag);
                          note_slot ~owner:id ~core ~key:ag;
                          let idx =
                            Prog_builder.emit_mvm pb ~core ~deps ~node:id ~ag
                              ~windows ~xbars:layout.Layout.ag_xbars.(ag)
                              ~input_bytes:mvm_input_bytes
                              ~output_bytes:(out_channels * Sched_common.bpe)
                          in
                          prev_mvm.(ag) <- idx;
                          idx)
                        ags
                    in
                    let last =
                      if List.length ags > 1 then begin
                        ignore
                          (Prog_builder.alloc_accumulator pb ~core
                             ~bytes:piece_out_bytes ~node:id ~key:piece_acc);
                        Prog_builder.emit_vec pb ~core ~deps:mvm_idxs
                          ~node:id ~kind:Isa.Vadd
                          ~elements:
                            (out_channels * windows * (List.length ags - 1))
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
                      (Prog_builder.alloc_accumulator pb ~core:head
                         ~bytes:piece_out_bytes ~node:id ~key:piece_acc);
                    let recv =
                      Prog_builder.send_recv pb ~src:core ~dst:head
                        ~bytes:piece_out_bytes ~node:id ~src_deps:[ last ]
                        ~dst_deps:[] ()
                    in
                    let add =
                      Prog_builder.emit_vec pb ~core:head ~deps:[ recv ]
                        ~node:id ~kind:Isa.Vadd
                        ~elements:(out_channels * windows)
                    in
                    head_deps := add :: !head_deps
                  end)
                partials;
              let produced =
                match Hashtbl.find_opt fused_kind id with
                | Some kind ->
                    Prog_builder.emit_vec pb ~core:head ~deps:!head_deps
                      ~node:id ~kind:(Isa.vact kind)
                      ~elements:(out_channels * windows)
                | None -> (
                    match !head_deps with
                    | [ single ] -> single
                    | deps ->
                        Prog_builder.emit_vec pb ~core:head ~deps ~node:id
                          ~kind:Isa.Vmove ~elements:1)
              in
              Prog_builder.free_accumulator pb ~core:head ~key:piece_acc;
              let s = ((r - 1) * og.chunks) + j + 1 in
              let p = pid ~node:id ~s in
              piece_src_core.(p) <- head;
              piece_src_idx.(p) <- produced;
              if is_output then
                ignore
                  (Prog_builder.emit_store pb ~core:head ~deps:[ produced ]
                     ~node:id ~bytes:piece_out_bytes)
            end
          done
        done;
        (* the node's MVM partial-staging slots die with its last piece;
           delivered copies of its outputs are noted later, under the
           same owner, and released after its last consumer *)
        if lifetime then release_slots id
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
          | Nnir.Op.Activation k -> Isa.vact k
          | Nnir.Op.Softmax -> Isa.Vsoftmax
          | Nnir.Op.Concat | Nnir.Op.Flatten | Nnir.Op.Identity -> Isa.Vmove
          | Nnir.Op.Input _ | Nnir.Op.Conv _ | Nnir.Op.Fully_connected _ ->
              Isa.Vmove
        in
        let slots = edge_slots.(id) in
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
              | None -> ((r - 1) + j) mod core_count
            in
            let deps =
              List.concat
                (List.mapi
                   (fun k provider ->
                     let upto = needed ~op ~provider ~out_geom:og ~r ~j in
                     require ~edge:slots.(k) ~provider ~upto ~core)
                   inputs)
            in
            let out_key =
              (id * 4096) + (core * ring_depth)
              + (((r * og.chunks) + j) mod ring_depth)
            in
            ignore
              (Prog_builder.alloc_ag_slot pb ~core ~bytes:og.piece_bytes
                 ~node:id ~key:out_key);
            note_slot ~owner:id ~core ~key:out_key;
            let idx =
              Prog_builder.emit_vec pb ~core ~deps ~node:id ~kind:vec_kind
                ~elements:(Partition.ceil_div vec_per_row og.chunks)
            in
            let s = ((r - 1) * og.chunks) + j + 1 in
            let p = pid ~node:id ~s in
            piece_src_core.(p) <- core;
            piece_src_idx.(p) <- idx;
            if is_output then
              ignore
                (Prog_builder.emit_store pb ~core ~deps:[ idx ] ~node:id
                   ~bytes:og.piece_bytes)
          done
        done
      end;
      if lifetime then List.iter release_slots dead_after.(pos))
    topo;
  (* LL streams rows through all layers at once: a single inference's
     latency is the stream makespan itself. *)
  Prog_builder.finish pb ~graph_name:(Nnir.Graph.name g)
    ~mode:Mode.Low_latency ~strategy:options.strategy
    ~ag_core:layout.Layout.ag_core ~ag_xbars:layout.Layout.ag_xbars
    ~pipeline_depth:1

let schedule ?(options = default_options) (layout : Layout.t) : Isa.t =
  match options.strategy with
  | Memalloc.Lifetime ->
      (* LL cores are not capacity-bound, so the plan never spills: one
         emission pass profiles the lifetimes and the placement peak is
         stamped as the resident footprint. *)
      Lifetime.optimise ~capacity:None ?spill_budget:options.spill_budget
        ~schedule:(fun plan -> emit_pass ~options ~plan layout)
        ()
  | _ -> emit_pass ~options ~plan:None layout
