(* Mutable program-under-construction shared by the two schedulers:
   per-core instruction buffers, rendezvous tag allocation, the local-
   memory allocator, and global-traffic accounting.

   The hot path is [emit]: the schedulers call it once per instruction
   (hundreds of thousands of times for the large LL streams), so
   instructions accumulate in growable arenas of final [Isa.instr]
   records — built exactly once at emission and handed to [Isa.t] with a
   single blit per core — rather than reversed lists that [finish] must
   re-traverse.  An earlier iteration packed operands as 7 ints per
   instruction; measured on the bench networks, re-materialising the
   boxed records [Isa.t] needs cost more than the packing saved (the
   records must exist either way, so packing pays for them twice), so
   the arena holds the records directly.  The specialised
   [emit_mvm]/[emit_vec]/[emit_load]/[emit_store] entry points take
   required labelled scalar arguments — without flambda an optional
   argument boxes a [Some] at every call site — and dependency lists are
   retained as given, so nothing is re-packed or decoded at [finish].

   Spills reported by the allocator (HT mode, capacity-bound) materialise
   as Store/Load pairs so that the naive allocation discipline really
   pays its extra global-memory accesses in simulated time as well as in
   the traffic statistics. *)

(* --- growable record arenas ----------------------------------------------- *)

let dummy_instr = { Isa.op = Isa.Load { bytes = 0 }; deps = []; node_id = -1 }

type core_buf = { mutable instrs : Isa.instr array; mutable count : int }

type t = {
  core_count : int;
  bufs : core_buf array;
  alloc : Memalloc.t;
  (* When a lifetime placement plan is installed, allocation events are
     matched to it by ordinal: spilled buffers bypass the allocator and
     materialise as the planned STORE/LOAD round trips instead. *)
  plan : Lifetime.plan option;
  mutable next_tag : int;
  mutable global_load_bytes : int;
  mutable global_store_bytes : int;
  (* Allocation events in emission order, so the finished program carries
     enough provenance for Verify to replay them through a fresh
     allocator and recompute the memory report. *)
  mutable trace : Isa.mem_event array;
  mutable trace_len : int;
}

let dummy_event = Isa.Free { core = -1; bytes = 0 }

let create ~core_count ~strategy ~capacity ?plan () =
  {
    core_count;
    bufs =
      Array.init core_count (fun _ ->
          { instrs = Array.make 64 dummy_instr; count = 0 });
    alloc = Memalloc.create strategy ~core_count ~capacity;
    plan;
    next_tag = 0;
    global_load_bytes = 0;
    global_store_bytes = 0;
    trace = Array.make 256 dummy_event;
    trace_len = 0;
  }

let rec check_deps core idx = function
  | [] -> ()
  | d :: tl ->
      if d < 0 || d >= idx then
        invalid_arg
          (Fmt.str "Prog_builder: dep %d out of range on core %d (at %d)"
             d core idx);
      check_deps core idx tl

(* Append an instruction record; returns its index within the core. *)
let[@inline always] push t ~core instr =
  let buf = t.bufs.(core) in
  let idx = buf.count in
  check_deps core idx instr.Isa.deps;
  if idx >= Array.length buf.instrs then begin
    let a' = Array.make (2 * Array.length buf.instrs) dummy_instr in
    Array.blit buf.instrs 0 a' 0 idx;
    buf.instrs <- a'
  end;
  buf.instrs.(idx) <- instr;
  buf.count <- idx + 1;
  idx

(* All-labelled (no optional) arguments: without flambda an optional
   argument boxes a [Some] at every call site, which is measurable at
   hundreds of thousands of calls. *)
let emit_mvm t ~core ~deps ~node ~ag ~windows ~xbars ~input_bytes
    ~output_bytes =
  push t ~core
    {
      Isa.op = Isa.Mvm { ag; windows; xbars; input_bytes; output_bytes };
      deps;
      node_id = node;
    }

let emit_vec t ~core ~deps ~node ~kind ~elements =
  push t ~core { Isa.op = Isa.Vec { kind; elements }; deps; node_id = node }

let emit_load t ~core ~deps ~node ~bytes =
  t.global_load_bytes <- t.global_load_bytes + bytes;
  push t ~core { Isa.op = Isa.Load { bytes }; deps; node_id = node }

let emit_store t ~core ~deps ~node ~bytes =
  t.global_store_bytes <- t.global_store_bytes + bytes;
  push t ~core { Isa.op = Isa.Store { bytes }; deps; node_id = node }

let push_trace t ev =
  let idx = t.trace_len in
  if idx >= Array.length t.trace then begin
    let a' = Array.make (2 * Array.length t.trace) dummy_event in
    Array.blit t.trace 0 a' 0 idx;
    t.trace <- a'
  end;
  t.trace.(idx) <- ev;
  t.trace_len <- idx + 1

(* Record one allocation event: trace it, check its ordinal against the
   lifetime plan if one is installed, then apply it to the allocator —
   or, when the plan spilled its buffer, keep it away from the allocator
   and take the planned round trip instead.  Lifetime builders carry no
   capacity, so a resident buffer never overflows; a legacy builder's
   allocator reports its own overflow.  The second emission pass must
   replay the profiled event stream exactly; an ordinal past the plan
   means the scheduler diverged between passes.  Returns the index of
   the round trip's LOAD, if any, for dependent work to wait on. *)
let record t ~core ~node ev =
  let ordinal = t.trace_len in
  push_trace t ev;
  let spilled =
    match t.plan with
    | None -> Lifetime.apply t.alloc ev
    | Some plan ->
        if ordinal >= plan.Lifetime.events then
          failwith "Prog_builder: emission diverged from the lifetime plan";
        if plan.Lifetime.skip.(ordinal) then
          plan.Lifetime.pair_bytes.(ordinal)
        else Lifetime.apply t.alloc ev
  in
  if spilled > 0 then begin
    let s = emit_store t ~core ~deps:[] ~node ~bytes:spilled in
    [ emit_load t ~core ~deps:[ s ] ~node ~bytes:spilled ]
  end
  else []

let alloc_fresh t ~core ~bytes ~node =
  record t ~core ~node (Isa.Alloc { core; bytes; request = Memalloc.Fresh })

let alloc_accumulator t ~core ~bytes ~node ~key =
  record t ~core ~node
    (Isa.Alloc { core; bytes; request = Memalloc.Accumulator key })

let alloc_ag_slot t ~core ~bytes ~node ~key =
  record t ~core ~node
    (Isa.Alloc { core; bytes; request = Memalloc.Ag_slot key })

(* A free never spills, so [record] returns [] and [node] is unused. *)
let free_buffer t ~core ~bytes =
  ignore (record t ~core ~node:(-1) (Isa.Free { core; bytes }))

let free_accumulator t ~core ~key =
  ignore (record t ~core ~node:(-1) (Isa.Free_accumulator { core; key }))

let free_ag_slot t ~core ~key =
  ignore (record t ~core ~node:(-1) (Isa.Free_ag_slot { core; key }))

(* A matched SEND/RECV pair.  Returns the receive's index on [dst].
   [src_deps]/[dst_deps] are existing instruction indices on the
   respective cores.  Must not be called with [src = dst]. *)
let send_recv t ~src ~dst ~bytes ?(node = -1) ~src_deps ~dst_deps () =
  if src = dst then invalid_arg "Prog_builder.send_recv: src = dst";
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let _send =
    push t ~core:src
      {
        Isa.op = Isa.Send { dst; bytes; tag };
        deps = src_deps;
        node_id = node;
      }
  in
  push t ~core:dst
    { Isa.op = Isa.Recv { src; bytes; tag }; deps = dst_deps; node_id = node }

(* --- materialisation ------------------------------------------------------ *)

let finish t ~graph_name ~mode ~strategy ~ag_core ~ag_xbars ~pipeline_depth =
  {
    Isa.graph_name;
    mode;
    allocator = strategy;
    core_count = t.core_count;
    cores = Array.map (fun buf -> Array.sub buf.instrs 0 buf.count) t.bufs;
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
    mem_trace = Array.sub t.trace 0 t.trace_len;
  }
