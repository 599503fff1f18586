(* The discrete-event execution engine (the paper's cycle-accurate
   simulator, Section V-A2).  It executes a compiled {!Pimcomp.Isa.t}
   honouring:

   - data dependencies: an instruction starts only after its [deps] have
     retired, and a RECV only after the matching SEND's message has
     crossed the mesh;
   - structural conflicts: MVMs serialise on their AG's crossbars;
   - per-core issue bandwidth: MVM window issues are spaced T_interval
     apart on each core (the user parallelism degree);
   - VFU occupancy: one vector burst at a time per core;
   - global-memory bandwidth: LOAD/STORE stream through per-bank
     channels (the fixed access latency overlaps, streaming serialises);
   - NoC latency: XY-routed hop + serialisation delay per message.

   Contended units (AGs, VFUs, memory banks) are FIFO queues: a ready
   instruction either occupies its unit or waits in line, and the unit
   is granted in request order when released.

   This is the flat-arena implementation: the program is compiled once
   into contiguous arrays indexed by a global instruction id
   (core-major), with CSR-encoded dependent edges and per-instruction
   precomputed durations and energy charges.  Nothing writes the arena
   once [arena] returns: each run allocates its own flat state (unit
   queues, an int-packed event heap, frontiers, counters, and window
   slots with dense tag -> arrival / parked-RECV tables), so runs on one
   arena are independent, from one domain or several.  One event loop
   ([simulate]) runs every simulation: [exec] is its one-instance case,
   [stream] pipelines many instances through window slots indexed by
   instance number.

   Determinism and bit-identity with {!Engine_ref}: events are popped in
   (time, code) order where the code ranks unit releases before
   instruction completions and completions by (core, index); dependents
   are walked in the same (descending-index) order the reference engine
   builds its adjacency lists; and every float is produced by the same
   expression shapes (precomputed subterms are products/sums the
   reference also computes as whole subexpressions), so IEEE rounding
   agrees term for term.

   Execution is dataflow (dependency-driven), so any well-formed program
   terminates; unmatched rendezvous or dependency cycles surface as a
   [deadlocked] result rather than a hang. *)

module Isa = Pimcomp.Isa

let default_parallelism = Pimhw.Timing.default_parallelism

(* Instruction kind codes for the flat [kind] array. *)
let k_mvm = 0
let k_vec = 1
let k_load = 2
let k_store = 3
let k_send = 4
let k_recv = 5

type t = {
  program : Isa.t;
  timing : Pimhw.Timing.t;
  energy : Pimhw.Energy_model.t;
  n : int;                    (* total instructions *)
  core_count : int;
  num_resources : int;        (* AGs + per-core VFUs + memory banks *)
  num_tags : int;
  core_len : int array;       (* instructions per core *)
  (* static per-instruction tables, all indexed by global id *)
  core_of : int array;
  idx_of : int array;         (* index within the instruction's core *)
  kind : int array;
  res_of : int array;         (* contended unit, or -1 for SEND/RECV *)
  dept_off : int array;       (* CSR dependents, rows in descending id *)
  dept_arr : int array;
  dep_count : int array;
  dur : float array;          (* MVM: windows*T_MVM; VEC: burst; LOAD/STORE:
                                 streaming; SEND: mesh flight; RECV: 0 *)
  issue_delta : float array;  (* MVM: windows*T_interval *)
  tag_of : int array;         (* SEND/RECV rendezvous tag, else -1 *)
  (* precomputed per-instruction charges *)
  pe_mvm : float array;
  pe_vec : float array;
  pe_local : float array;
  pe_global : float array;
  pe_noc : float array;
  windows_d : int array;
  flithops_d : int array;
  bytes_d : int array;
  t_dram : float;
}

(* Positions of the five dynamic energies in a run's [dyn] array and in
   each window slot's partials. *)
let e_mvm = 0
let e_vec = 1
let e_local = 2
let e_global = 3
let e_noc = 4

(* One run's mutable state, shared by every instance in flight. *)
type run = {
  issue_next : float array;   (* per-core MVM issue port *)
  res_state : int array;      (* 0 free; 1 busy, release event in heap;
                                 2 busy, release deferred (see [free_at]) *)
  free_at : float array;      (* release time of a state-2 unit *)
  qhead : int array;          (* per-resource FIFO: intrusive int lists *)
  qtail : int array;
  heap : Heap.Packed_payload.t;
  core_first : float array;
  core_last : float array;
  dyn : float array;          (* dynamic energies, indexed by [e_mvm]... *)
  mutable executed : int;
  mutable mvm_windows : int;
  mutable messages : int;
  mutable flit_hops : int;
  mutable load_bytes : int;
  mutable store_bytes : int;
}

(* An index the arena and the run loop would use unchecked. *)
let reject core idx fmt =
  Fmt.kstr
    (fun m ->
      invalid_arg (Fmt.str "Engine.arena: core %d instr %d: %s" core idx m))
    fmt

let rec count_deps core idx len acc = function
  | [] -> acc
  | d :: rest ->
      if d < 0 || d >= len then reject core idx "dep %d out of range" d;
      count_deps core idx len (acc + 1) rest

let arena ?(parallelism = default_parallelism) (hw : Pimhw.Config.t)
    (program : Isa.t) =
  let timing = Pimhw.Timing.create ~parallelism hw in
  let energy = Pimhw.Energy_model.create hw in
  let core_count = program.Isa.core_count in
  let noc = Pimhw.Noc.create ~core_count in
  let num_ags = Array.length program.Isa.ag_core in
  let num_banks = max 1 hw.Pimhw.Config.global_memory_banks in
  let num_resources = num_ags + core_count + num_banks in
  let n = Isa.num_instrs program in
  let core_of = Array.make n 0 and idx_of = Array.make n 0 in
  let kind = Array.make n 0 and res_of = Array.make n (-1) in
  let dep_count = Array.make n 0 in
  let dur = Array.make n 0.0 and issue_delta = Array.make n 0.0 in
  let tag_of = Array.make n (-1) in
  let pe_mvm = Array.make n 0.0 and pe_vec = Array.make n 0.0 in
  let pe_local = Array.make n 0.0 and pe_global = Array.make n 0.0 in
  let pe_noc = Array.make n 0.0 in
  let windows_d = Array.make n 0 and flithops_d = Array.make n 0 in
  let bytes_d = Array.make n 0 in
  let em = energy in
  let lr = em.Pimhw.Energy_model.local_read_pj_per_byte in
  let lw = em.Pimhw.Energy_model.local_write_pj_per_byte in
  (* first pass: flatten, decode ops, precompute charges, count deps.
     Every index the later passes and the run loop use unchecked is
     checked here, as it is decoded: deps inside their core, MVM AGs
     inside the AG table, SEND/RECV peers inside the core grid, tags
     non-negative.  Nothing more: micro-programs with unmatched
     rendezvous or blank memory reports must still simulate. *)
  let max_tag = ref (-1) in
  let total_deps = ref 0 in
  let g = ref 0 in
  let check_peer core idx what peer tag =
    if peer < 0 || peer >= core_count then
      reject core idx "%s nonexistent core %d" what peer;
    if tag < 0 then reject core idx "negative rendezvous tag %d" tag
  in
  Array.iteri
    (fun core instrs ->
      let len = Array.length instrs in
      Array.iteri
        (fun idx (i : Isa.instr) ->
          let id = !g in
          incr g;
          core_of.(id) <- core;
          idx_of.(id) <- idx;
          let nd = count_deps core idx len 0 i.Isa.deps in
          dep_count.(id) <- nd;
          total_deps := !total_deps + nd;
          match i.Isa.op with
          | Isa.Mvm m ->
              if m.ag < 0 || m.ag >= num_ags then
                reject core idx "invalid AG %d" m.ag;
              let w = float_of_int m.windows in
              kind.(id) <- k_mvm;
              res_of.(id) <- m.ag;
              issue_delta.(id) <- w *. timing.Pimhw.Timing.t_interval_ns;
              dur.(id) <- w *. timing.Pimhw.Timing.t_mvm_ns;
              pe_mvm.(id) <-
                w *. float_of_int m.xbars
                *. em.Pimhw.Energy_model.mvm_energy_pj;
              pe_local.(id) <-
                w
                *. ((float_of_int m.input_bytes *. lr)
                   +. (float_of_int m.output_bytes *. lw));
              windows_d.(id) <- m.windows
          | Isa.Vec v ->
              kind.(id) <- k_vec;
              res_of.(id) <- num_ags + core;
              dur.(id) <- Pimhw.Timing.vec_ns timing ~elements:v.elements;
              pe_vec.(id) <-
                float_of_int v.elements
                *. em.Pimhw.Energy_model.vec_energy_pj_per_element;
              pe_local.(id) <-
                float_of_int (2 * v.elements * Nnir.Tensor.bytes_per_element)
                *. lr
          | Isa.Load { bytes } | Isa.Store { bytes } ->
              let is_load =
                match i.Isa.op with Isa.Load _ -> true | _ -> false
              in
              kind.(id) <- (if is_load then k_load else k_store);
              res_of.(id) <- num_ags + core_count + (core mod num_banks);
              dur.(id) <-
                float_of_int bytes /. hw.Pimhw.Config.global_memory_gbps;
              bytes_d.(id) <- bytes;
              let gr = em.Pimhw.Energy_model.global_read_pj_per_byte in
              let gw = em.Pimhw.Energy_model.global_write_pj_per_byte in
              if is_load then begin
                pe_global.(id) <- float_of_int bytes *. gr;
                pe_local.(id) <- float_of_int bytes *. lw
              end
              else begin
                pe_global.(id) <- float_of_int bytes *. gw;
                pe_local.(id) <- float_of_int bytes *. lr
              end;
              let hops = Pimhw.Noc.hops_to_global_memory noc ~core in
              flithops_d.(id) <- Pimhw.Config.flits hw ~bytes * hops;
              pe_noc.(id) <-
                Pimhw.Energy_model.message_energy_pj em ~hops ~bytes
          | Isa.Send s ->
              check_peer core idx "SEND to" s.dst s.tag;
              kind.(id) <- k_send;
              tag_of.(id) <- s.tag;
              if s.tag > !max_tag then max_tag := s.tag;
              let hops = Pimhw.Noc.hops noc ~src:core ~dst:s.dst in
              dur.(id) <- Pimhw.Timing.noc_ns timing ~hops ~bytes:s.bytes;
              flithops_d.(id) <- Pimhw.Config.flits hw ~bytes:s.bytes * hops;
              pe_noc.(id) <-
                Pimhw.Energy_model.message_energy_pj em ~hops ~bytes:s.bytes
          | Isa.Recv r ->
              check_peer core idx "RECV from" r.src r.tag;
              kind.(id) <- k_recv;
              tag_of.(id) <- r.tag;
              if r.tag > !max_tag then max_tag := r.tag)
        instrs)
    program.Isa.cores;
  (* second pass: CSR dependency edges (natural order) and dependent
     edges (rows in DESCENDING id order — the reference engine prepends
     to per-instruction lists while scanning forward, so it wakes
     dependents highest-index-first; FIFO unit queues make that order
     observable and we must match it). *)
  let dep_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    dep_off.(id + 1) <- dep_off.(id) + dep_count.(id)
  done;
  let dep_arr = Array.make !total_deps 0 in
  let dept_count = Array.make n 0 in
  let base_of_core = Array.make (core_count + 1) 0 in
  Array.iteri
    (fun core instrs ->
      base_of_core.(core + 1) <- base_of_core.(core) + Array.length instrs)
    program.Isa.cores;
  let g = ref 0 in
  Array.iteri
    (fun core instrs ->
      let base = base_of_core.(core) in
      Array.iter
        (fun (i : Isa.instr) ->
          let id = !g in
          incr g;
          let cursor = ref dep_off.(id) in
          List.iter
            (fun d ->
              let dg = base + d in
              dep_arr.(!cursor) <- dg;
              incr cursor;
              dept_count.(dg) <- dept_count.(dg) + 1)
            i.Isa.deps)
        instrs)
    program.Isa.cores;
  let dept_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    dept_off.(id + 1) <- dept_off.(id) + dept_count.(id)
  done;
  let dept_arr = Array.make !total_deps 0 in
  let cursor = Array.copy dept_off in
  for id = n - 1 downto 0 do
    for e = dep_off.(id) to dep_off.(id + 1) - 1 do
      let d = dep_arr.(e) in
      dept_arr.(cursor.(d)) <- id;
      cursor.(d) <- cursor.(d) + 1
    done
  done;
  let num_tags = max program.Isa.num_tags (!max_tag + 1) in
  {
    program;
    timing;
    energy;
    n;
    core_count;
    num_resources;
    num_tags;
    core_len = Array.map Array.length program.Isa.cores;
    core_of;
    idx_of;
    kind;
    res_of;
    dept_off;
    dept_arr;
    dep_count;
    dur;
    issue_delta;
    tag_of;
    pe_mvm;
    pe_vec;
    pe_local;
    pe_global;
    pe_noc;
    windows_d;
    flithops_d;
    bytes_d;
    t_dram = hw.Pimhw.Config.t_dram_latency_ns;
  }

let new_run a =
  {
    issue_next = Array.make a.core_count 0.0;
    res_state = Array.make a.num_resources 0;
    free_at = Array.make a.num_resources 0.0;
    qhead = Array.make a.num_resources (-1);
    qtail = Array.make a.num_resources (-1);
    heap = Heap.Packed_payload.create ();
    core_first = Array.make a.core_count Float.infinity;
    core_last = Array.make a.core_count 0.0;
    dyn = Array.make 5 0.0;
    executed = 0;
    mvm_windows = 0;
    messages = 0;
    flit_hops = 0;
    load_bytes = 0;
    store_bytes = 0;
  }

(* The result epilogue over the run's counters, which hold the whole
   run by now: event-by-event simulation, plus the period detector's
   analytic closure when it fired.  The per-core local-memory peaks are
   zero; [exec] puts the program's own report in their place. *)
let make_metrics a r ~batches ~extrapolated =
  let makespan = Array.fold_left Float.max 0.0 r.core_last in
  let em = a.energy in
  let core_busy =
    Array.mapi
      (fun i last ->
        if r.core_first.(i) = Float.infinity then 0.0
        else last -. r.core_first.(i))
      r.core_last
  in
  let core_static =
    Array.fold_left
      (fun acc busy -> acc +. (busy *. em.Pimhw.Energy_model.core_static_mw))
      0.0 core_busy
  in
  let router_static =
    Array.fold_left
      (fun acc busy -> acc +. (busy *. em.Pimhw.Energy_model.router_static_mw))
      0.0 core_busy
  in
  let instrs_total = batches * a.n in
  let zero_peaks = Array.make a.core_count 0 in
  let throughput_ips, latency_ns =
    Metrics.per_inference ~pipeline_depth:a.program.Isa.pipeline_depth
      ~instances:batches makespan
  in
  {
    Metrics.graph_name = a.program.Isa.graph_name;
    mode = a.program.Isa.mode;
    makespan_ns = makespan;
    throughput_ips;
    latency_ns;
    energy =
      {
        Metrics.mvm_pj = r.dyn.(e_mvm);
        vec_pj = r.dyn.(e_vec);
        local_mem_pj = r.dyn.(e_local);
        global_mem_pj = r.dyn.(e_global);
        noc_pj = r.dyn.(e_noc);
        core_static_pj = core_static;
        router_static_pj = router_static;
        global_static_pj =
          makespan *. em.Pimhw.Energy_model.global_memory_static_mw;
        hyper_transport_static_pj =
          makespan *. em.Pimhw.Energy_model.hyper_transport_static_mw;
      };
    instrs_executed = r.executed;
    instrs_total;
    mvm_windows = r.mvm_windows;
    messages = r.messages;
    flit_hops = r.flit_hops;
    global_load_bytes = r.load_bytes;
    global_store_bytes = r.store_bytes;
    core_busy_ns = core_busy;
    local_peak_bytes = zero_peaks;
    local_resident_peak_bytes = zero_peaks;
    deadlocked = r.executed < instrs_total;
    simulated_instances = batches - extrapolated;
    extrapolated_instances = extrapolated;
  }

(* --- The event loop ----------------------------------------------------------

   [simulate] runs [batches] back-to-back inference instances of the
   arena's program WITHOUT materialising the replicated program:
   instance k runs in window slot k mod w (per-slot missing counters,
   ready times, queue links, tag tables), where w is the window, so
   memory is O(window x n) regardless of [batches].  An unbounded run
   takes w = batches, one slot per instance, and [exec] one slot.

   Bit-identity with simulating the materialised program
   [Batch.replicate program ~batches] as one instance rests on three
   mappings:

   - Event order.  The materialised global id of instruction [idx] of
     instance [k] on core [c] is
       vid = batches*base(c) + k*n_c + idx
     (core-major, instance-major within a core).  Completion events are
     pushed under exactly this code, so the packed heap — which breaks
     time ties on the code — pops in exactly the materialised order.
     Release events use the same unit codes.  The slot that owns the
     event rides along as a payload the ordering never looks at.  With
     one instance, vid is the global id: the (time, core, index) order
     of {!Engine_ref}.

   - Ready times.  Each dependency's finish is folded into the
     dependent's per-slot ready cell at the dependency's completion pop.
     The popped event time is bitwise the pushed finish, and a running
     max equals the max over all dependencies taken at schedule time.

   - Wake order.  At a completion of (k, idx), the materialised dept row
     is walked in descending id: the pipeline dependent (k+1, idx) has
     the highest id (it exceeds every same-instance dependent by
     n_c + idx - idx' >= 1), then the same-instance dependents in the
     base program's already-descending row order.  The loop wakes in
     that exact order, after the same parked-RECV check.

   Instance admission is lazy and invisible: instance k+1's slot is
   initialised at the first completion event of instance k (before any
   wake can target it), and admission itself schedules nothing — in the
   materialised program instance k+1's instructions all hold an
   unsatisfied pipeline dependency at that moment too.

   The period detector watches retirements (instance completes all n
   instructions): when the retirement interval and the in-flight
   population repeat for [confirm] consecutive in-order retirements,
   the remaining instances are closed analytically: per-core frontiers
   and dynamic energies extended linearly, integer counters as
   batches x static per-instance totals.  The closure is exact (bitwise
   equal to simulating to the end) whenever the float arithmetic
   involved is exact — see DESIGN.md §3.9. *)

type stream_stats = {
  batches : int;
  simulated_instances : int;
  extrapolated_instances : int;
  fired_at : int option;        (* retired-instance index at detector fire *)
  steady_interval_ns : float option;
  peak_slots : int;             (* window slots: the window, or batches *)
  state_words : int;            (* heap words reachable from run state *)
}

(* [measure] walks the run state for [state_words]; 0 when off.  All
   indices are validated at arena build (dep ranges, AG ids, tag ranges)
   or derived from in-range construction, so the loop uses unsafe
   accesses throughout. *)
let simulate ?on_schedule ~window ~detect ~confirm ~measure a ~batches =
  let r = new_run a in
  let n = a.n and nt = a.num_tags and num_resources = a.num_resources in
  let total = batches * n in
  let dept_off = a.dept_off and dept_arr = a.dept_arr in
  let kind = a.kind and res_of = a.res_of and tag_of = a.tag_of in
  let dur = a.dur and issue_delta = a.issue_delta in
  let dep_count = a.dep_count in
  let qhead = r.qhead and qtail = r.qtail in
  let res_state = r.res_state and free_at = r.free_at in
  let heap = r.heap and dyn = r.dyn in
  (* --- window slots: instance [k] holds slot [k mod w] for its whole
     life, where [w] is the window, or [batches] when unbounded.  A
     bounded window admits [k >= w] only once [k - w], the slot's
     previous holder, has retired; an unbounded run gives every
     instance a slot of its own. --- *)
  let w = if window > 0 then window else batches in
  let s_missing = Array.make (w * n) 0 in
  let s_ready = Array.make (w * n) 0.0 in
  let s_qnext = Array.make (w * n) (-1) in
  let s_arrival = Array.make (w * nt) Float.nan in
  let s_parked = Array.make (w * nt) (-1) in
  (* the instance each slot holds; -1 once it retires *)
  let s_instance = Array.make w (-1) and s_completed = Array.make w 0 in
  (* per-slot dynamic-energy partials, in [dyn]'s order: only the
     detector's closure reads them *)
  let track = detect && window > 0 in
  let s_energy = Array.make (5 * w) 0.0 in
  (* table position [slot * n + g] -> slot; slot 0, the whole of a
     one-instance run, needs no division *)
  let slot_of p = if p < n then 0 else p / n in
  let charge slot part pe g =
    let x = Array.unsafe_get pe g in
    Array.unsafe_set dyn part (Array.unsafe_get dyn part +. x);
    if track then begin
      let i = (5 * slot) + part in
      Array.unsafe_set s_energy i (Array.unsafe_get s_energy i +. x)
    end
  in
  let admitted = ref (-1) in
  (* Bounded-window admission (window > 0): instance k is admitted only
     once instance k - window has fully retired, so at most [window]
     instances are ever in flight.  An instance admitted that late has
     usually outlived some of its pipeline-dependency completions, so
     the latest completed (instance, finish) per base instruction is
     buffered here and folded in at admission. *)
  let pl_inst = if window > 0 then Array.make n (-1) else [||] in
  let pl_finish = if window > 0 then Array.make n 0.0 else [||] in
  let admit k =
    let slot = k mod w in
    let off = slot * n in
    let extra = if k = 0 then 0 else 1 in
    for j = 0 to n - 1 do
      s_missing.(off + j) <- dep_count.(j) + extra;
      s_ready.(off + j) <- 0.0
    done;
    Array.fill s_arrival (slot * nt) nt Float.nan;
    Array.fill s_parked (slot * nt) nt (-1);
    Array.fill s_energy (5 * slot) 5 0.0;
    s_completed.(slot) <- 0;
    s_instance.(slot) <- k;
    admitted := k;
    slot
  in
  (* Execute (slot, g) now owning its unit (if any); returns the
     unit-release time (nan for unit-less SEND/RECV). *)
  let do_schedule slot g ~now =
    let core = Array.unsafe_get a.core_of g in
    let ready = Float.max now (Array.unsafe_get s_ready ((slot * n) + g)) in
    let start = ref ready and finish = ref ready and release = ref Float.nan in
    let k = Array.unsafe_get kind g in
    if k = k_mvm then begin
      let s = Float.max ready (Array.unsafe_get r.issue_next core) in
      Array.unsafe_set r.issue_next core (s +. Array.unsafe_get issue_delta g);
      let f = s +. Array.unsafe_get dur g in
      charge slot e_mvm a.pe_mvm g;
      charge slot e_local a.pe_local g;
      r.mvm_windows <- r.mvm_windows + Array.unsafe_get a.windows_d g;
      start := s;
      finish := f;
      release := f
    end
    else if k = k_vec then begin
      let f = ready +. Array.unsafe_get dur g in
      charge slot e_vec a.pe_vec g;
      charge slot e_local a.pe_local g;
      finish := f;
      release := f
    end
    else if k = k_load || k = k_store then begin
      (* the bank channel is held for the streaming part only; the
         fixed access latency overlaps with other requests *)
      release := ready +. Array.unsafe_get dur g;
      finish := ready +. a.t_dram +. Array.unsafe_get dur g;
      if k = k_load then
        r.load_bytes <- r.load_bytes + Array.unsafe_get a.bytes_d g
      else r.store_bytes <- r.store_bytes + Array.unsafe_get a.bytes_d g;
      charge slot e_global a.pe_global g;
      charge slot e_local a.pe_local g;
      r.flit_hops <- r.flit_hops + Array.unsafe_get a.flithops_d g;
      charge slot e_noc a.pe_noc g
    end
    else if k = k_send then begin
      (* the sender injects and moves on; the message then crosses the
         mesh and becomes available to the matching RECV *)
      let tag = Array.unsafe_get tag_of g in
      let st = (slot * nt) + tag in
      if not (Float.is_nan (Array.unsafe_get s_arrival st)) then
        invalid_arg
          (Fmt.str "Engine: duplicate SEND on tag %d (silent overwrite \
                    would drop a rendezvous)" tag);
      Array.unsafe_set s_arrival st (ready +. Array.unsafe_get dur g);
      r.messages <- r.messages + 1;
      r.flit_hops <- r.flit_hops + Array.unsafe_get a.flithops_d g;
      charge slot e_noc a.pe_noc g
    end
    else begin
      (* k_recv *)
      let arr =
        Array.unsafe_get s_arrival ((slot * nt) + Array.unsafe_get tag_of g)
      in
      if Float.is_nan arr then
        invalid_arg "Engine: recv scheduled before arrival";
      let s = Float.max ready arr in
      start := s;
      finish := s
    end;
    let start = !start and finish = !finish in
    if start < Array.unsafe_get r.core_first core then
      Array.unsafe_set r.core_first core start;
    if finish > Array.unsafe_get r.core_last core then
      Array.unsafe_set r.core_last core finish;
    let idx = Array.unsafe_get a.idx_of g in
    (match on_schedule with
    | Some f -> f ~core ~index:idx ~start ~finish
    | None -> ());
    let vid =
      (batches * (g - idx)) + idx
      + (Array.unsafe_get s_instance slot * Array.unsafe_get a.core_len core)
    in
    Heap.Packed_payload.push heap finish (num_resources + vid)
      ((slot * n) + g);
    !release
  in
  (* Releases are lazy: if nobody is queued when a unit is granted, no
     release event enters the heap — only [free_at] is recorded (state
     2).  The event is materialised, at the very same (time, code) key
     the eager scheme would have used, the moment a later request finds
     the unit still busy; so the heap's pop order over *present* events
     is unchanged and uncontended units (the common case) cost zero heap
     traffic.  A state-2 unit whose [free_at] is <= the current event
     time is exactly one whose release event would already have popped
     (releases outrank completions at equal time), i.e. a free unit. *)
  let grant r slot g ~now =
    let release = do_schedule slot g ~now in
    if Array.unsafe_get qhead r < 0 then begin
      Array.unsafe_set res_state r 2;
      Array.unsafe_set free_at r release
    end
    else begin
      Array.unsafe_set res_state r 1;
      Heap.Packed_payload.push heap release r (-1)
    end
  in
  let acquire slot g ~tnow =
    let r = Array.unsafe_get res_of g in
    if r < 0 then ignore (do_schedule slot g ~now:0.0)
    else begin
      let s = Array.unsafe_get res_state r in
      if s = 0 || (s = 2 && Array.unsafe_get free_at r <= tnow) then
        grant r slot g ~now:0.0
      else begin
        if s = 2 then begin
          Array.unsafe_set res_state r 1;
          Heap.Packed_payload.push heap (Array.unsafe_get free_at r) r (-1)
        end;
        let p = (slot * n) + g in
        Array.unsafe_set s_qnext p (-1);
        let t = Array.unsafe_get qtail r in
        if t < 0 then Array.unsafe_set qhead r p
        else Array.unsafe_set s_qnext t p;
        Array.unsafe_set qtail r p
      end
    end
  in
  let release_resource r ~now =
    let p = Array.unsafe_get qhead r in
    if p < 0 then Array.unsafe_set res_state r 0
    else begin
      let nx = Array.unsafe_get s_qnext p in
      Array.unsafe_set qhead r nx;
      if nx < 0 then Array.unsafe_set qtail r (-1);
      let slot = slot_of p in
      grant r slot (p - (slot * n)) ~now
    end
  in
  (* RECVs whose message has not been injected yet park in their slot's
     dense tag table until the SEND executes. *)
  let try_schedule slot g ~tnow =
    if
      Array.unsafe_get kind g = k_recv
      && Float.is_nan
           (Array.unsafe_get s_arrival
              ((slot * nt) + Array.unsafe_get tag_of g))
    then
      Array.unsafe_set s_parked ((slot * nt) + Array.unsafe_get tag_of g)
        ((slot * n) + g)
    else acquire slot g ~tnow
  in
  (* Throttled admission of instance k at time [tnow] (the retirement of
     instance k - window).  An instance cannot start before it exists,
     so every ready time is floored at [tnow]; pipeline-dependency
     completions that already happened are folded in from the buffer,
     and instructions with no outstanding dependencies are scheduled
     immediately in (core, index) order. *)
  let admit_deferred k ~tnow =
    let slot = admit k in
    let off = slot * n in
    for g = 0 to n - 1 do
      s_ready.(off + g) <- tnow;
      if pl_inst.(g) = k - 1 then begin
        s_missing.(off + g) <- s_missing.(off + g) - 1;
        if pl_finish.(g) > s_ready.(off + g) then
          s_ready.(off + g) <- pl_finish.(g)
      end;
      if s_missing.(off + g) = 0 then try_schedule slot g ~tnow
    done
  in
  (* --- period-detector state --- *)
  let retired = ref 0 in
  let det_prev_inst = ref (-1) in
  let det_prev_t = ref 0.0 in
  let det_have = ref false in      (* previous retirement interval recorded *)
  let streak = ref 0 in
  let prev_dt = ref 0.0 in
  let prev_nfl = ref (-1) in (* previous in-flight population *)
  let fired = ref false in
  let fire_at = ref (-1) in
  let fire_interval = ref 0.0 in
  let fire_skip = ref 0 in   (* instances never admitted: closed analytically *)
  let target = ref batches in    (* instances to actually retire in-event *)
  let fire_s = Array.make 5 0.0 in
  let on_retire slot k tnow =
    incr retired;
    if detect && window > 0 && not !fired then begin
      (* Signature: the per-instance retirement interval [dt] repeats
         bitwise AND the in-flight population has the same size.  With a
         bounded window the machine cycles through a finite configuration
         set, so an exactly repeating retirement cadence is the observable
         fixed point; micro-state (per-core frontiers, queue contents,
         heap shape) may wobble within the cycle without disturbing it.
         [confirm] consecutive repeats are required before firing so that
         short accidental plateaus (bursty limit cycles emit runs of equal
         gaps) do not pass.  Detection needs a bounded window: unbounded,
         fast front-end cores drift ever further ahead and no steady
         per-retirement shift exists to extrapolate. *)
      if k = !det_prev_inst + 1 && !det_prev_inst >= 0 then begin
        let dt = tnow -. !det_prev_t in
        let nfl = !admitted - k in
        if !det_have && dt = !prev_dt && nfl = !prev_nfl then incr streak
        else streak := 0;
        prev_dt := dt;
        prev_nfl := nfl;
        det_have := true;
        if !streak >= confirm && batches - 1 - !admitted > 0 then begin
          (* Fast-forward: stop admitting, so the [skip] never-admitted
             instances are closed analytically — the in-flight window
             drains by event simulation, and by steady-state shift
             invariance that drain is the true end-of-stream drain
             displaced skip x dt earlier (the drain tail is NOT
             bottleneck-paced: final instances retire faster once no
             successors contend, so a pure m x dt extrapolation of the
             makespan would overshoot). *)
          fired := true;
          fire_at := k;
          fire_interval := dt;
          fire_skip := batches - 1 - !admitted;
          target := batches - !fire_skip;
          (* steady per-instance dynamic-energy quantum: instruction mix
             is identical across instances, so the retiree's partials
             stand in for every skipped instance *)
          Array.blit s_energy (5 * slot) fire_s 0 5
        end
      end
      else begin
        (* out-of-order retirement (equal-time tie): restart the streak *)
        det_have := false;
        streak := 0
      end;
      det_prev_t := tnow;
      det_prev_inst := k
    end;
    s_instance.(slot) <- -1;
    if window > 0 && not !fired then
      (* The lazy rule below covers instances 0..window-1; instance k'
         >= window waits for the retired prefix to reach k' - window.
         Instances before k' - window retired before k' - 1 was
         admitted, and k' - window still holds slot k' mod window until
         it retires, so that slot alone says whether k' may enter. *)
      while
        !admitted + 1 < batches
        && !admitted + 1 >= window
        && s_instance.((!admitted + 1) mod w) <> !admitted + 1 - window
      do
        admit_deferred (!admitted + 1) ~tnow
      done
  in
  (* seed instance 0: its zero-dep instructions, in (core, index) order —
     the materialised seed order restricted to instance 0, which is the
     whole materialised seed set (every later instance holds a pipeline
     dependency).  No event has been processed yet, so every granted
     unit is still busy from the seed's viewpoint: tnow = -inf. *)
  let slot0 = admit 0 in
  for g = 0 to n - 1 do
    if Array.unsafe_get dep_count g = 0 then
      try_schedule slot0 g ~tnow:Float.neg_infinity
  done;
  while !retired < !target && Heap.Packed_payload.pop heap do
    let code = Heap.Packed_payload.last_code heap in
    let tnow = Heap.Packed_payload.last_time heap in
    if code < num_resources then release_resource code ~now:tnow
    else begin
      let p = Heap.Packed_payload.last_pay heap in
      let slot = slot_of p in
      let g = p - (slot * n) in
      let inst = Array.unsafe_get s_instance slot in
      r.executed <- r.executed + 1;
      (* lazy admission: the frontier instance's first completion admits
         its successor, before any wake could target it (throttled mode
         defers instances >= window to retirement-driven admission) *)
      if
        inst = !admitted
        && inst + 1 < batches
        && (window = 0 || inst + 1 < window)
      then ignore (admit (inst + 1));
      (* wake the matching parked RECV if this was a SEND *)
      (if Array.unsafe_get kind g = k_send then begin
         let st = (slot * nt) + Array.unsafe_get tag_of g in
         let pk = Array.unsafe_get s_parked st in
         if pk >= 0 && Array.unsafe_get s_missing pk = 0 then begin
           Array.unsafe_set s_parked st (-1);
           let ps = slot_of pk in
           acquire ps (pk - (ps * n)) ~tnow
         end
       end);
      if window > 0 then begin
        Array.unsafe_set pl_inst g inst;
        Array.unsafe_set pl_finish g tnow
      end;
      (* pipeline dependent (inst+1, g) first: it holds the highest
         materialised id among this instruction's dependents *)
      (if inst + 1 < batches then begin
         (* slot (inst+1) mod w holds inst+1 exactly while it is live.
            Unbounded: the successor is always admitted and live here —
            admission precedes any wake, and (inst+1, g) depends on this
            very completion so it cannot have retired.  Throttled: it
            may not be admitted yet; [pl_finish] carries this completion
            to its deferred admission. *)
         let ds = if slot + 1 = w then 0 else slot + 1 in
         let live = Array.unsafe_get s_instance ds = inst + 1 in
         assert (live || window > 0);
         if live then begin
           let dp = (ds * n) + g in
           if tnow > Array.unsafe_get s_ready dp then
             Array.unsafe_set s_ready dp tnow;
           let m = Array.unsafe_get s_missing dp - 1 in
           Array.unsafe_set s_missing dp m;
           if m = 0 then try_schedule ds g ~tnow
         end
       end);
      (* same-instance dependents, descending id order *)
      for e =
        Array.unsafe_get dept_off g
        to Array.unsafe_get dept_off (g + 1) - 1
      do
        let d = Array.unsafe_get dept_arr e in
        let dp = (slot * n) + d in
        if tnow > Array.unsafe_get s_ready dp then
          Array.unsafe_set s_ready dp tnow;
        let m = Array.unsafe_get s_missing dp - 1 in
        Array.unsafe_set s_missing dp m;
        if m = 0 then try_schedule slot d ~tnow
      done;
      let c = Array.unsafe_get s_completed slot + 1 in
      Array.unsafe_set s_completed slot c;
      if c = n then on_retire slot inst tnow
    end
  done;
  if !fired then begin
    (* The simulated stream ran [batches - skip] instances; the true
       stream's timing is that run with every touched core's busy
       frontier displaced [skip] steady intervals later (the first
       instance, and each core's first-busy time, are unchanged).
       Integer counters come from the static per-instance totals, so
       they are exact by construction; dynamic energies add one steady
       per-instance quantum per skipped instance. *)
    let skip = float_of_int !fire_skip in
    let shift = skip *. !fire_interval in
    for c = 0 to a.core_count - 1 do
      if r.core_first.(c) <> Float.infinity then
        r.core_last.(c) <- r.core_last.(c) +. shift
    done;
    let times_batches msg per_instance =
      let x = ref 0 in
      for g = 0 to n - 1 do
        x := !x + per_instance g
      done;
      if !x <> 0 && batches > max_int / !x then
        invalid_arg
          (Fmt.str "Engine.stream: %s x %d batches overflows" msg !x)
      else !x * batches
    in
    let of_kind k v g = if kind.(g) = k then v.(g) else 0 in
    for i = 0 to 4 do
      dyn.(i) <- dyn.(i) +. (skip *. fire_s.(i))
    done;
    r.executed <- total;
    r.mvm_windows <- times_batches "MVM windows" (Array.get a.windows_d);
    r.messages <-
      times_batches "messages" (fun g -> if kind.(g) = k_send then 1 else 0);
    r.flit_hops <- times_batches "flit-hops" (Array.get a.flithops_d);
    r.load_bytes <- times_batches "load bytes" (of_kind k_load a.bytes_d);
    r.store_bytes <- times_batches "store bytes" (of_kind k_store a.bytes_d)
  end;
  let extrapolated = if !fired then !fire_skip else 0 in
  let metrics = make_metrics a r ~batches ~extrapolated in
  let state_words =
    if not measure then 0
    else
      Obj.reachable_words
        (Obj.repr
           ( s_missing, s_ready, s_qnext, s_arrival, s_parked,
             s_instance, s_completed, s_energy,
             r, (pl_inst, pl_finish) ))
  in
  let stats =
    {
      batches;
      simulated_instances = batches - extrapolated;
      extrapolated_instances = extrapolated;
      fired_at = (if !fired then Some !fire_at else None);
      steady_interval_ns = (if !fired then Some !fire_interval else None);
      peak_slots = w;
      state_words;
    }
  in
  (metrics, stats)

(* One instance, no window, no detector: the simulated program's own
   memory report carries the local-memory peaks, which a stream of
   interleaved instances cannot. *)
let exec ?on_schedule a =
  let m, _ =
    simulate ?on_schedule ~window:0 ~detect:false ~confirm:0 ~measure:false a
      ~batches:1
  in
  let memory = a.program.Isa.memory in
  {
    m with
    Metrics.local_peak_bytes = memory.Isa.local_peak_bytes;
    local_resident_peak_bytes = memory.Isa.local_resident_peak_bytes;
  }

let run ?parallelism ?on_schedule (hw : Pimhw.Config.t) (program : Isa.t) =
  exec ?on_schedule (arena ?parallelism hw program)

let stream ?(window = 0) ?(detect = true) a ~batches =
  if batches <= 0 then invalid_arg "Engine.stream: batches <= 0";
  if window < 0 then invalid_arg "Engine.stream: window < 0";
  if a.n > 0 && batches > (max_int - a.num_resources) / a.n then
    invalid_arg
      (Fmt.str
         "Engine.stream: %d instances x %d instructions overflows the id \
          space"
         batches a.n);
  (* Longer than any dt-plateau a window-period limit cycle can emit:
     such cycles repeat every [window] retirements, so equal-gap runs
     inside them are shorter than the window. *)
  simulate ~window ~detect ~confirm:(max 8 (window + 4)) ~measure:true a
    ~batches
