(* Reference implementation of the discrete-event engine: the original
   boxed-state interpreter, kept verbatim for differential testing
   against the flat-arena {!Engine}.  Same semantics, same deterministic
   event ordering; {!Engine} must produce bit-identical {!Metrics.t}.

   See engine.ml for the execution model documentation. *)

module Isa = Pimcomp.Isa

type config = {
  timing : Pimhw.Timing.t;
  energy : Pimhw.Energy_model.t;
}

let make_config ~parallelism (hw : Pimhw.Config.t) =
  {
    timing = Pimhw.Timing.create ~parallelism hw;
    energy = Pimhw.Energy_model.create hw;
  }

(* Mutable per-run state. *)
type state = {
  program : Isa.t;
  cfg : config;
  noc : Pimhw.Noc.t;           (* sized to the program's core count *)
  missing : int array array;   (* outstanding deps per instr *)
  dependents : int list array array;
  finish : float array array;  (* completion time per instr; nan = not run *)
  issue_next : float array;    (* per-core MVM issue port *)
  (* contended units: AGs, then per-core VFUs, then memory banks *)
  res_busy : bool array;
  res_queue : (int * int) Queue.t array;
  num_ags : int;
  num_banks : int;
  arrivals : (int, float) Hashtbl.t;         (* tag -> message arrival *)
  parked_recvs : (int, int * int) Hashtbl.t; (* tag -> (core, idx) *)
  on_schedule :
    (core:int -> index:int -> start:float -> finish:float -> unit) option;
  heap : Heap.t;
  core_first : float array;
  core_last : float array;
  (* accumulators *)
  mutable e_mvm : float;
  mutable e_vec : float;
  mutable e_local : float;
  mutable e_global : float;
  mutable e_noc : float;
  mutable executed : int;
  mutable mvm_windows : int;
  mutable messages : int;
  mutable flit_hops : int;
  mutable load_bytes : int;
  mutable store_bytes : int;
}

let bytes_to_flits (hw : Pimhw.Config.t) bytes =
  max 1 ((bytes + hw.Pimhw.Config.flit_bytes - 1) / hw.Pimhw.Config.flit_bytes)

(* Contended unit of an instruction, as an index into the resource
   tables; SEND/RECV only touch the (uncontended) mesh model. *)
let resource_of st core (instr : Isa.instr) =
  match instr.Isa.op with
  | Isa.Mvm m -> Some m.ag
  | Isa.Vec _ -> Some (st.num_ags + core)
  | Isa.Load _ | Isa.Store _ ->
      Some (st.num_ags + st.program.Isa.core_count + (core mod st.num_banks))
  | Isa.Send _ | Isa.Recv _ -> None

let init ?on_schedule (cfg : config) (program : Isa.t) =
  let core_count = program.Isa.core_count in
  let missing =
    Array.map (Array.map (fun i -> List.length i.Isa.deps)) program.Isa.cores
  in
  let dependents =
    Array.map
      (fun instrs -> Array.make (Array.length instrs) [])
      program.Isa.cores
  in
  Array.iteri
    (fun core instrs ->
      Array.iteri
        (fun idx i ->
          List.iter
            (fun d -> dependents.(core).(d) <- idx :: dependents.(core).(d))
            i.Isa.deps)
        instrs)
    program.Isa.cores;
  let num_ags = Array.length program.Isa.ag_core in
  let num_banks =
    max 1 cfg.timing.Pimhw.Timing.config.Pimhw.Config.global_memory_banks
  in
  let num_resources = num_ags + core_count + num_banks in
  {
    program;
    cfg;
    noc = Pimhw.Noc.create ~core_count;
    missing;
    dependents;
    finish =
      Array.map
        (fun instrs -> Array.make (Array.length instrs) Float.nan)
        program.Isa.cores;
    issue_next = Array.make core_count 0.0;
    res_busy = Array.make num_resources false;
    res_queue = Array.init num_resources (fun _ -> Queue.create ());
    num_ags;
    num_banks;
    arrivals = Hashtbl.create 1024;
    parked_recvs = Hashtbl.create 64;
    on_schedule;
    heap = Heap.create ();
    core_first = Array.make core_count Float.infinity;
    core_last = Array.make core_count 0.0;
    e_mvm = 0.0;
    e_vec = 0.0;
    e_local = 0.0;
    e_global = 0.0;
    e_noc = 0.0;
    executed = 0;
    mvm_windows = 0;
    messages = 0;
    flit_hops = 0;
    load_bytes = 0;
    store_bytes = 0;
  }

let ready_time st core idx =
  List.fold_left
    (fun acc d -> Float.max acc st.finish.(core).(d))
    0.0 st.program.Isa.cores.(core).(idx).Isa.deps

(* Heap event encodings: completions carry (core, index); unit releases
   carry core = -1 and the resource id in [index]. *)
let push_completion st ~time ~core ~index =
  Heap.push st.heap { Heap.time; core; index }

let push_release st ~time ~resource =
  Heap.push st.heap { Heap.time; core = -1; index = resource }

(* Execute an instruction that now owns its unit (if any): compute
   start / finish / unit-release times, charge energy, record the
   schedule.  [now] is the earliest instant the unit is available. *)
let do_schedule st core idx ~now =
  let instr = st.program.Isa.cores.(core).(idx) in
  let cfg = st.cfg in
  let timing = cfg.timing in
  let em = cfg.energy in
  let hw = timing.Pimhw.Timing.config in
  let ready = Float.max now (ready_time st core idx) in
  let start, finish, release =
    match instr.Isa.op with
    | Isa.Mvm m ->
        let w = float_of_int m.windows in
        let start = Float.max ready st.issue_next.(core) in
        (* Window issues consume the core's input-broadcast bandwidth;
           the AG's crossbars then serialise the windows. *)
        st.issue_next.(core) <-
          start +. (w *. timing.Pimhw.Timing.t_interval_ns);
        let finish = start +. (w *. timing.Pimhw.Timing.t_mvm_ns) in
        st.e_mvm <-
          st.e_mvm
          +. (w *. float_of_int m.xbars *. em.Pimhw.Energy_model.mvm_energy_pj);
        st.e_local <-
          st.e_local
          +. w
             *. ((float_of_int m.input_bytes
                 *. em.Pimhw.Energy_model.local_read_pj_per_byte)
                +. (float_of_int m.output_bytes
                   *. em.Pimhw.Energy_model.local_write_pj_per_byte));
        st.mvm_windows <- st.mvm_windows + m.windows;
        (start, finish, Some finish)
    | Isa.Vec v ->
        let dur = Pimhw.Timing.vec_ns timing ~elements:v.elements in
        st.e_vec <-
          st.e_vec
          +. (float_of_int v.elements
             *. em.Pimhw.Energy_model.vec_energy_pj_per_element);
        st.e_local <-
          st.e_local
          +. float_of_int (2 * v.elements * Nnir.Tensor.bytes_per_element)
             *. em.Pimhw.Energy_model.local_read_pj_per_byte;
        (ready, ready +. dur, Some (ready +. dur))
    | Isa.Load { bytes } | Isa.Store { bytes } ->
        let stream_ns =
          float_of_int bytes /. hw.Pimhw.Config.global_memory_gbps
        in
        let start = ready in
        (* the bank channel is held for the streaming part only; the
           fixed access latency overlaps with other requests *)
        let release = start +. stream_ns in
        let finish = start +. hw.Pimhw.Config.t_dram_latency_ns +. stream_ns in
        let is_load =
          match instr.Isa.op with Isa.Load _ -> true | _ -> false
        in
        if is_load then begin
          st.load_bytes <- st.load_bytes + bytes;
          st.e_global <-
            st.e_global
            +. (float_of_int bytes
               *. em.Pimhw.Energy_model.global_read_pj_per_byte);
          st.e_local <-
            st.e_local
            +. (float_of_int bytes
               *. em.Pimhw.Energy_model.local_write_pj_per_byte)
        end
        else begin
          st.store_bytes <- st.store_bytes + bytes;
          st.e_global <-
            st.e_global
            +. (float_of_int bytes
               *. em.Pimhw.Energy_model.global_write_pj_per_byte);
          st.e_local <-
            st.e_local
            +. (float_of_int bytes
               *. em.Pimhw.Energy_model.local_read_pj_per_byte)
        end;
        (* also charge the NoC path between the core and the memory port *)
        let hops = Pimhw.Noc.hops_to_global_memory st.noc ~core in
        let flits = bytes_to_flits hw bytes in
        st.flit_hops <- st.flit_hops + (flits * hops);
        st.e_noc <-
          st.e_noc +. Pimhw.Energy_model.message_energy_pj em ~hops ~bytes;
        (start, finish, Some release)
    | Isa.Send s ->
        (* The sender injects and moves on; the message then crosses the
           mesh and becomes available to the matching RECV. *)
        let start = ready in
        let hops = Pimhw.Noc.hops st.noc ~src:core ~dst:s.dst in
        let arrival =
          start +. Pimhw.Timing.noc_ns timing ~hops ~bytes:s.bytes
        in
        Hashtbl.replace st.arrivals s.tag arrival;
        st.messages <- st.messages + 1;
        st.flit_hops <- st.flit_hops + (bytes_to_flits hw s.bytes * hops);
        st.e_noc <-
          st.e_noc
          +. Pimhw.Energy_model.message_energy_pj em ~hops ~bytes:s.bytes;
        (start, start, None)
    | Isa.Recv r ->
        let arrival =
          match Hashtbl.find_opt st.arrivals r.tag with
          | Some a -> a
          | None -> invalid_arg "Engine: recv scheduled before arrival"
        in
        let start = Float.max ready arrival in
        (start, start, None)
  in
  if start < st.core_first.(core) then st.core_first.(core) <- start;
  if finish > st.core_last.(core) then st.core_last.(core) <- finish;
  st.finish.(core).(idx) <- finish;
  (match st.on_schedule with
  | Some f -> f ~core ~index:idx ~start ~finish
  | None -> ());
  push_completion st ~time:finish ~core ~index:idx;
  release

let grant st resource core idx ~now =
  st.res_busy.(resource) <- true;
  match do_schedule st core idx ~now with
  | Some release -> push_release st ~time:release ~resource
  | None ->
      (* cannot happen: only unit-less ops return None, and they are
         never granted a unit *)
      st.res_busy.(resource) <- false

(* An instruction whose dependencies (and message, for RECV) are ready:
   occupy its unit or join the line. *)
let acquire st core idx =
  let instr = st.program.Isa.cores.(core).(idx) in
  match resource_of st core instr with
  | None -> ignore (do_schedule st core idx ~now:0.0)
  | Some r ->
      if st.res_busy.(r) then Queue.add (core, idx) st.res_queue.(r)
      else grant st r core idx ~now:0.0

let release_resource st resource ~now =
  if Queue.is_empty st.res_queue.(resource) then
    st.res_busy.(resource) <- false
  else begin
    let core, idx = Queue.pop st.res_queue.(resource) in
    grant st resource core idx ~now
  end

(* Attempt to schedule an instruction whose dependency count reached 0.
   RECVs whose message has not been injected yet are parked until the
   SEND executes. *)
let try_schedule st core idx =
  match st.program.Isa.cores.(core).(idx).Isa.op with
  | Isa.Recv r when not (Hashtbl.mem st.arrivals r.tag) ->
      Hashtbl.replace st.parked_recvs r.tag (core, idx)
  | _ -> acquire st core idx

let run ?parallelism ?on_schedule (hw : Pimhw.Config.t) (program : Isa.t) =
  let parallelism =
    match parallelism with Some p -> p | None -> Engine.default_parallelism
  in
  let cfg = make_config ~parallelism hw in
  let st = init ?on_schedule cfg program in
  (* seed: all instructions with no dependencies *)
  Array.iteri
    (fun core missing ->
      Array.iteri (fun idx m -> if m = 0 then try_schedule st core idx) missing)
    st.missing;
  let rec drain () =
    match Heap.pop st.heap with
    | None -> ()
    | Some { Heap.time; core; index } when core < 0 ->
        release_resource st index ~now:time;
        drain ()
    | Some { Heap.core; index; _ } ->
        st.executed <- st.executed + 1;
        (* wake the matching parked RECV if this was a SEND *)
        (match st.program.Isa.cores.(core).(index).Isa.op with
        | Isa.Send s -> (
            match Hashtbl.find_opt st.parked_recvs s.tag with
            | Some (rc, ri) when st.missing.(rc).(ri) = 0 ->
                Hashtbl.remove st.parked_recvs s.tag;
                acquire st rc ri
            | _ -> ())
        | _ -> ());
        List.iter
          (fun dep_idx ->
            st.missing.(core).(dep_idx) <- st.missing.(core).(dep_idx) - 1;
            if st.missing.(core).(dep_idx) = 0 then try_schedule st core dep_idx)
          st.dependents.(core).(index);
        drain ()
  in
  drain ();
  let total = Isa.num_instrs program in
  let makespan = Array.fold_left Float.max 0.0 st.core_last in
  let em = cfg.energy in
  let core_busy =
    Array.mapi
      (fun i last ->
        if st.core_first.(i) = Float.infinity then 0.0
        else last -. st.core_first.(i))
      st.core_last
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
  let throughput_ips, latency_ns =
    Metrics.per_inference ~pipeline_depth:program.Isa.pipeline_depth
      ~instances:1 makespan
  in
  {
    Metrics.graph_name = program.Isa.graph_name;
    mode = program.Isa.mode;
    makespan_ns = makespan;
    throughput_ips;
    latency_ns;
    energy =
      {
        Metrics.mvm_pj = st.e_mvm;
        vec_pj = st.e_vec;
        local_mem_pj = st.e_local;
        global_mem_pj = st.e_global;
        noc_pj = st.e_noc;
        core_static_pj = core_static;
        router_static_pj = router_static;
        global_static_pj =
          makespan *. em.Pimhw.Energy_model.global_memory_static_mw;
        hyper_transport_static_pj =
          makespan *. em.Pimhw.Energy_model.hyper_transport_static_mw;
      };
    instrs_executed = st.executed;
    instrs_total = total;
    mvm_windows = st.mvm_windows;
    messages = st.messages;
    flit_hops = st.flit_hops;
    global_load_bytes = st.load_bytes;
    global_store_bytes = st.store_bytes;
    core_busy_ns = core_busy;
    local_peak_bytes = program.Isa.memory.Isa.local_peak_bytes;
    local_resident_peak_bytes =
      program.Isa.memory.Isa.local_resident_peak_bytes;
    deadlocked = st.executed < total;
    simulated_instances = 1;
    extrapolated_instances = 0;
  }
