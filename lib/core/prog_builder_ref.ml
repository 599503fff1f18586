(* Reference (pre-arena) program builder: the original list-of-records
   formulation, kept verbatim so the Schedule_*_ref schedulers rebuild
   the full prior pipeline, which the tests compare the live schedulers
   against.  The live builder is {!Prog_builder}.

   Mutable program-under-construction shared by the two schedulers:
   per-core instruction buffers, rendezvous tag allocation, the local-
   memory allocator, and global-traffic accounting.

   Spills reported by the allocator (HT mode, capacity-bound) materialise
   as Store/Load pairs so that the naive allocation discipline really
   pays its extra global-memory accesses in simulated time as well as in
   the traffic statistics. *)

type core_buf = {
  mutable rev_instrs : Isa.instr list;
  mutable count : int;
}

type t = {
  core_count : int;
  bufs : core_buf array;
  alloc : Memalloc.t;
  mutable next_tag : int;
  mutable global_load_bytes : int;
  mutable global_store_bytes : int;
  (* Allocation events in emission order, so the finished program carries
     enough provenance for Verify to replay them through a fresh
     allocator and recompute the memory report. *)
  mutable rev_trace : Isa.mem_event list;
}

let create ~core_count ~strategy ~capacity =
  {
    core_count;
    bufs = Array.init core_count (fun _ -> { rev_instrs = []; count = 0 });
    alloc = Memalloc.create strategy ~core_count ~capacity;
    next_tag = 0;
    global_load_bytes = 0;
    global_store_bytes = 0;
    rev_trace = [];
  }

(* Append an instruction; returns its index within the core. *)
let emit t ~core ?(deps = []) ?(node = -1) op =
  let buf = t.bufs.(core) in
  let idx = buf.count in
  List.iter
    (fun d ->
      if d < 0 || d >= idx then
        invalid_arg
          (Fmt.str "Prog_builder.emit: dep %d out of range on core %d (at %d)"
             d core idx))
    deps;
  (match op with
  | Isa.Load { bytes } -> t.global_load_bytes <- t.global_load_bytes + bytes
  | Isa.Store { bytes } -> t.global_store_bytes <- t.global_store_bytes + bytes
  | _ -> ());
  buf.rev_instrs <- { Isa.op; deps; node_id = node } :: buf.rev_instrs;
  buf.count <- idx + 1;
  idx

(* Request a local buffer; emits the spill round-trip if the allocator
   overflows.  Returns the indices of any spill instructions so callers
   can make dependent work wait for them. *)
let alloc_buffer t ~core ~bytes ?(node = -1) request =
  t.rev_trace <- Isa.Alloc { core; bytes; request } :: t.rev_trace;
  let spilled = Memalloc.alloc t.alloc ~core ~bytes request in
  if spilled > 0 then begin
    let s = emit t ~core ~node (Isa.Store { bytes = spilled }) in
    let l = emit t ~core ~deps:[ s ] ~node (Isa.Load { bytes = spilled }) in
    [ l ]
  end
  else []

let free_buffer t ~core ~bytes =
  t.rev_trace <- Isa.Free { core; bytes } :: t.rev_trace;
  Memalloc.free t.alloc ~core ~bytes

let free_accumulator t ~core ~key =
  t.rev_trace <- Isa.Free_accumulator { core; key } :: t.rev_trace;
  Memalloc.free_accumulator t.alloc ~core ~key

(* A matched SEND/RECV pair.  Returns the receive's index on [dst].
   [src_deps]/[dst_deps] are existing instruction indices on the
   respective cores.  Must not be called with [src = dst]. *)
let send_recv t ~src ~dst ~bytes ?(node = -1) ~src_deps ~dst_deps () =
  if src = dst then invalid_arg "Prog_builder.send_recv: src = dst";
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let _send =
    emit t ~core:src ~deps:src_deps ~node (Isa.Send { dst; bytes; tag })
  in
  emit t ~core:dst ~deps:dst_deps ~node (Isa.Recv { src; bytes; tag })

let finish t ~graph_name ~mode ~strategy ~ag_core ~ag_xbars ~pipeline_depth =
  {
    Isa.graph_name;
    mode;
    allocator = strategy;
    core_count = t.core_count;
    cores =
      Array.map
        (fun buf -> Array.of_list (List.rev buf.rev_instrs))
        t.bufs;
    ag_core;
    ag_xbars;
    num_tags = t.next_tag;
    pipeline_depth;
    memory =
      {
        Isa.local_peak_bytes = Memalloc.demand_peaks t.alloc;
        local_resident_peak_bytes = Memalloc.resident_peaks t.alloc;
        spill_bytes = Memalloc.spill_bytes t.alloc;
        global_load_bytes = t.global_load_bytes;
        global_store_bytes = t.global_store_bytes;
      };
    mem_trace = Array.of_list (List.rev t.rev_trace);
  }
