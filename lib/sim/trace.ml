(* Execution traces: every instruction's scheduled (start, finish)
   window, collected through {!Engine.run}'s [on_schedule] hook.  Useful
   for inspecting pipelining behaviour, finding bottleneck cores and
   debugging schedules. *)

module Isa = Pimcomp.Isa

type event = {
  core : int;
  index : int;
  node_id : Nnir.Node.id;
  op : Isa.op;
  start_ns : float;
  finish_ns : float;
}

type t = { program : Isa.t; events : event array (* by start time *) }

let run ?parallelism hw (program : Isa.t) =
  let collected = ref [] in
  let on_schedule ~core ~index ~start ~finish =
    let instr = program.Isa.cores.(core).(index) in
    collected :=
      {
        core;
        index;
        node_id = instr.Isa.node_id;
        op = instr.Isa.op;
        start_ns = start;
        finish_ns = finish;
      }
      :: !collected
  in
  let metrics = Engine.run ?parallelism ~on_schedule hw program in
  let events = Array.of_list !collected in
  Array.sort
    (fun a b ->
      if a.start_ns <> b.start_ns then compare a.start_ns b.start_ns
      else compare (a.core, a.index) (b.core, b.index))
    events;
  (metrics, { program; events })

let events t = t.events
let length t = Array.length t.events

(* Busy time per core, by instruction class. *)
type core_profile = {
  profile_core : int;
  mvm_ns : float;
  vec_ns : float;
  mem_ns : float;
  comm_ns : float;
}

let profile t =
  let n = t.program.Isa.core_count in
  let mvm = Array.make n 0.0
  and vec = Array.make n 0.0
  and mem = Array.make n 0.0
  and comm = Array.make n 0.0 in
  Array.iter
    (fun e ->
      let d = e.finish_ns -. e.start_ns in
      match e.op with
      | Isa.Mvm _ -> mvm.(e.core) <- mvm.(e.core) +. d
      | Isa.Vec _ -> vec.(e.core) <- vec.(e.core) +. d
      | Isa.Load _ | Isa.Store _ -> mem.(e.core) <- mem.(e.core) +. d
      | Isa.Send _ | Isa.Recv _ -> comm.(e.core) <- comm.(e.core) +. d)
    t.events;
  List.init n (fun core ->
      {
        profile_core = core;
        mvm_ns = mvm.(core);
        vec_ns = vec.(core);
        mem_ns = mem.(core);
        comm_ns = comm.(core);
      })

let pp_event ppf e =
  Fmt.pf ppf "%10.1f..%10.1f ns core %2d #%-5d node %3d %a" e.start_ns
    e.finish_ns e.core e.index e.node_id Isa.pp_op e.op

(* CSV export for external plotting: one row per event. *)
let to_csv t =
  let buf = Buffer.create (64 * Array.length t.events) in
  Buffer.add_string buf "core,index,node,kind,start_ns,finish_ns\n";
  Array.iter
    (fun e ->
      let kind =
        match e.op with
        | Isa.Mvm _ -> "mvm"
        | Isa.Vec v -> Isa.vec_kind_name v.kind
        | Isa.Load _ -> "load"
        | Isa.Store _ -> "store"
        | Isa.Send _ -> "send"
        | Isa.Recv _ -> "recv"
      in
      Buffer.add_string buf
        (Fmt.str "%d,%d,%d,%s,%.3f,%.3f\n" e.core e.index e.node_id kind
           e.start_ns e.finish_ns))
    t.events;
  Buffer.contents buf

(* SVG Gantt chart: one swim lane per core, one rectangle per
   instruction, coloured by instruction class.  Self-contained file for
   a browser; zero-duration events (SEND/RECV) render as ticks. *)
let to_svg t =
  let width = 1200 and lane_height = 18 in
  let makespan =
    Array.fold_left (fun acc e -> Float.max acc e.finish_ns) 1.0 t.events
  in
  let cores = t.program.Isa.core_count in
  let label_w = 64 in
  let plot_w = float_of_int (width - label_w - 10) in
  let x_of ns = float_of_int label_w +. (ns /. makespan *. plot_w) in
  let height = ((cores + 1) * lane_height) + 30 in
  let color = function
    | Isa.Mvm _ -> "#4878cf"       (* blue *)
    | Isa.Vec _ -> "#6acc65"       (* green *)
    | Isa.Load _ -> "#d65f5f"      (* red *)
    | Isa.Store _ -> "#c4ad66"     (* tan *)
    | Isa.Send _ | Isa.Recv _ -> "#956cb4" (* purple *)
  in
  let buf = Buffer.create (128 * Array.length t.events) in
  Buffer.add_string buf
    (Fmt.str
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" \
        height=\"%d\" font-family=\"monospace\" font-size=\"10\">\n"
       width height);
  Buffer.add_string buf
    (Fmt.str
       "<text x=\"%d\" y=\"12\">%s [%s] — %.1f us, %d events</text>\n"
       label_w t.program.Isa.graph_name
       (Pimcomp.Mode.to_string t.program.Isa.mode)
       (makespan /. 1e3) (Array.length t.events));
  for core = 0 to cores - 1 do
    let y = 20 + (core * lane_height) in
    Buffer.add_string buf
      (Fmt.str "<text x=\"2\" y=\"%d\">core %d</text>\n"
         (y + lane_height - 6) core)
  done;
  Array.iter
    (fun e ->
      let y = 20 + (e.core * lane_height) + 2 in
      let x0 = x_of e.start_ns in
      let w = Float.max 0.5 (x_of e.finish_ns -. x0) in
      Buffer.add_string buf
        (Fmt.str
           "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" \
            fill=\"%s\"><title>%s</title></rect>\n"
           x0 y w (lane_height - 4) (color e.op)
           (Fmt.str "%a" pp_event e)))
    t.events;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
