(* Post-schedule lifetime-aware buffer placement (ROADMAP: AutoTM-style
   memory optimiser).

   The Fig. 7 disciplines in {!Memalloc} are *opportunistic*: they decide
   reuse locally, as requests arrive, and when a core's scratchpad
   overflows they clamp and charge the overflow as spill traffic — or,
   for a single request larger than the whole scratchpad, give up
   ({!Memalloc.Doesnt_fit}).  AutoTM showed the same problem solved
   globally: profile tensor lifetimes from the scheduled stream first,
   then optimise placement and movement with the whole program in view.

   This module is that global pass.  The schedulers run once under the
   [Lifetime] recording discipline (precise frees, no capacity clamp),
   producing a [mem_trace] whose events double as the lifetime profile:

   - live ranges: every logical buffer's first definition and last use,
     per core, recovered from the alloc/free event stream;
   - placement: best-fit with coalescing over the free-interval list of
     each core's address space;
   - spills: when a core is genuinely oversubscribed (placement peak
     above the scratchpad), deliberate victim buffers are evicted —
     their allocations become planned STORE/LOAD round trips to global
     memory — until the placement fits.

   If any spills are needed, the scheduler re-runs with the plan; the
   second pass emits the identical instruction stream plus the planned
   spill pairs (the trace itself is invariant across passes, which is
   what lets {!Verify} recompute the plan from the program alone and
   check the stamped report).  The whole pass is deterministic: same
   trace + same capacity -> same plan, bit for bit.

   [apply] is the one function that drives an allocator with a trace
   event: the schedulers' builder applies each event as it records it,
   and [replay] folds it over a finished trace. *)

(* --- the plan handed back to the scheduler's second pass ------------------ *)

type plan = {
  events : int;  (* expected trace length; re-run emission must match *)
  pair_bytes : int array;
      (* per event ordinal: bytes to round-trip through global memory at
         this allocation (0 = not spilled) *)
  skip : bool array;
      (* per event ordinal: event belongs to a spilled buffer — record
         it in the trace but keep it away from the allocator *)
  resident : int array;  (* per-core placement peak *)
  spill : int;           (* total planned spill traffic, both ways *)
  spilled_buffers : int;
}

(* --- live-range recovery -------------------------------------------------- *)

type buffer = {
  id : int;
  core : int;
  mutable bytes : int;  (* max bytes over the buffer's lifetime *)
  birth : int;          (* ordinal of the first alloc event *)
  mutable death : int;  (* ordinal of the killing event; trace length if
                           the buffer survives the program *)
  mutable allocs : (int * int) list;
      (* (ordinal, requested bytes) of every alloc event, reverse order;
         a spilled keyed buffer round-trips each use separately *)
  mutable frees : int list;  (* ordinals of its free events *)
}

(* Recover logical buffers from the event stream.  Fresh blocks form a
   per-core stack matched by size at [Free] (the schedulers free what
   they most recently staged); keyed blocks are identified by their
   (core, kind, key) and live from first alloc to the matching
   free-by-key, possibly reborn under the same key afterwards. *)
let buffers_of_trace ~core_count (trace : Isa.mem_event array) =
  let n = Array.length trace in
  let buffers = ref [] in
  let count = ref 0 in
  let fresh_live = Array.make core_count [] in
  let keyed : (int * int * int, buffer) Hashtbl.t = Hashtbl.create 64 in
  let new_buffer ~core ~bytes ~birth =
    let b =
      {
        id = !count;
        core;
        bytes;
        birth;
        death = n;
        allocs = [ (birth, bytes) ];
        frees = [];
      }
    in
    incr count;
    buffers := b :: !buffers;
    b
  in
  let keyed_alloc ~core ~bytes ~kind ~key ~ordinal =
    let k = (core, kind, key) in
    match Hashtbl.find_opt keyed k with
    | Some b ->
        b.allocs <- (ordinal, bytes) :: b.allocs;
        if bytes > b.bytes then b.bytes <- bytes
    | None ->
        let b = new_buffer ~core ~bytes ~birth:ordinal in
        Hashtbl.add keyed k b
  in
  let keyed_free ~core ~kind ~key ~ordinal =
    let k = (core, kind, key) in
    match Hashtbl.find_opt keyed k with
    | Some b ->
        b.death <- ordinal;
        b.frees <- ordinal :: b.frees;
        Hashtbl.remove keyed k
    | None -> () (* over-free; the allocator replay diagnoses it *)
  in
  Array.iteri
    (fun i ev ->
      match ev with
      | Isa.Alloc { core; bytes; request = Memalloc.Fresh } ->
          let b = new_buffer ~core ~bytes ~birth:i in
          fresh_live.(core) <- b :: fresh_live.(core)
      | Isa.Alloc { core; bytes; request = Memalloc.Accumulator key } ->
          keyed_alloc ~core ~bytes ~kind:0 ~key ~ordinal:i
      | Isa.Alloc { core; bytes; request = Memalloc.Ag_slot key } ->
          keyed_alloc ~core ~bytes ~kind:1 ~key ~ordinal:i
      | Isa.Free { core; bytes } -> (
          (* most recent live fresh block of this exact size, falling
             back to the most recent block: sizes identify the stacked
             staging blocks the schedulers actually emit *)
          let rec take acc = function
            | [] -> None
            | b :: tl when b.bytes = bytes ->
                Some (b, List.rev_append acc tl)
            | b :: tl -> take (b :: acc) tl
          in
          match take [] fresh_live.(core) with
          | Some (b, rest) ->
              b.death <- i;
              b.frees <- i :: b.frees;
              fresh_live.(core) <- rest
          | None -> (
              match fresh_live.(core) with
              | b :: rest ->
                  b.death <- i;
                  b.frees <- i :: b.frees;
                  fresh_live.(core) <- rest
              | [] -> ()))
      | Isa.Free_accumulator { core; key } ->
          keyed_free ~core ~kind:0 ~key ~ordinal:i
      | Isa.Free_ag_slot { core; key } ->
          keyed_free ~core ~kind:1 ~key ~ordinal:i)
    trace;
  let all = Array.of_list (List.rev !buffers) in
  (* [buffers] was built in reverse birth order *)
  all

(* --- placement ------------------------------------------------------------ *)

(* Best-fit with coalescing.  The address space of a core is modelled by
   the sorted list of currently-placed blocks; free intervals are its
   complement, so releasing a block coalesces its hole with any adjacent
   free space for free.  Each arriving buffer takes the *smallest* free
   interval that fits (ties to the lowest address), or opens new space
   at the top.  Returns the peak top-of-placement and the ordinal of the
   alloc event at which it was reached. *)
let place (buffers : buffer array) =
  (* events: (ordinal, is_birth, buffer), deaths before births *)
  let evs =
    Array.to_list buffers
    |> List.concat_map (fun b -> [ (b.birth, 1, b); (b.death, 0, b) ])
    |> List.sort (fun (o1, k1, b1) (o2, k2, b2) ->
           compare (o1, k1, b1.id) (o2, k2, b2.id))
  in
  let placed = ref [] in (* (offset, buffer) sorted by offset *)
  let peak = ref 0 in
  let peak_at = ref (-1) in
  List.iter
    (fun (ord, is_birth, b) ->
      if is_birth = 0 then
        placed := List.filter (fun (_, p) -> p.id <> b.id) !placed
      else begin
        (* scan the gaps of the sorted placement for the best fit *)
        let best_off = ref (-1) in
        let best_gap = ref max_int in
        let cursor = ref 0 in
        List.iter
          (fun (off, p) ->
            let gap = off - !cursor in
            if gap >= b.bytes && gap < !best_gap then begin
              best_gap := gap;
              best_off := !cursor
            end;
            cursor := max !cursor (off + p.bytes))
          !placed;
        let off = if !best_off >= 0 then !best_off else !cursor in
        let rec insert = function
          | [] -> [ (off, b) ]
          | (o, p) :: tl when o < off -> (o, p) :: insert tl
          | rest -> (off, b) :: rest
        in
        placed := insert !placed;
        if off + b.bytes > !peak then begin
          peak := off + b.bytes;
          peak_at := ord
        end
      end)
    evs;
  (!peak, !peak_at)

(* --- trace replay ----------------------------------------------------------- *)

(* Drive an allocator with one trace event; returns the bytes an
   allocation spilled (0 for a free). *)
let apply m (ev : Isa.mem_event) =
  match ev with
  | Isa.Alloc { core; bytes; request } -> Memalloc.alloc m ~core ~bytes request
  | Isa.Free { core; bytes } ->
      Memalloc.free m ~core ~bytes;
      0
  | Isa.Free_accumulator { core; key } ->
      Memalloc.free_accumulator m ~core ~key;
      0
  | Isa.Free_ag_slot { core; key } ->
      Memalloc.free_ag_slot m ~core ~key;
      0

let replay strategy ~core_count ~capacity trace =
  let m = Memalloc.create strategy ~core_count ~capacity in
  Array.iter (fun ev -> ignore (apply m ev)) trace;
  m

(* --- spill planning ------------------------------------------------------- *)

(* Plan one core: place the live buffers; while the placement peak
   exceeds the capacity, evict the largest buffer live at the moment the
   peak is reached (ties to the longest lifetime, then the oldest) and
   re-place.  Buffers larger than the whole scratchpad can never be
   resident and are evicted up front — this is precisely the
   configuration {!Memalloc.Doesnt_fit} rejects for the opportunistic
   disciplines. *)
let plan_core (buffers : buffer array) ~capacity =
  match capacity with
  | None ->
      let peak, _ = place buffers in
      (peak, [])
  | Some cap ->
      let spilled = ref [] in
      let resident =
        ref (Array.to_list buffers |> List.filter (fun b ->
                 if b.bytes > cap then begin
                   spilled := b :: !spilled;
                   false
                 end
                 else true))
      in
      let rec fit () =
        let arr = Array.of_list !resident in
        let peak, peak_at = place arr in
        if peak <= cap then peak
        else begin
          let victim =
            Array.to_list arr
            |> List.filter (fun b -> b.birth <= peak_at && peak_at < b.death)
            |> List.fold_left
                 (fun acc b ->
                   match acc with
                   | None -> Some b
                   | Some v ->
                       let kb = (b.bytes, b.death - b.birth, -b.id) in
                       let kv = (v.bytes, v.death - v.birth, -v.id) in
                       if compare kb kv > 0 then Some b else acc)
                 None
          in
          match victim with
          | Some v ->
              spilled := v :: !spilled;
              resident := List.filter (fun b -> b.id <> v.id) !resident;
              fit ()
          | None ->
              (* peak reached with nothing live: can't happen, but keep
                 the planner total *)
              peak
        end
      in
      let peak = fit () in
      (peak, !spilled)

let plan_of_trace ~core_count ~capacity ?spill_budget trace =
  let n = Array.length trace in
  let all = buffers_of_trace ~core_count trace in
  let resident = Array.make core_count 0 in
  let pair_bytes = Array.make n 0 in
  let skip = Array.make n false in
  let spill = ref 0 in
  let spilled_buffers = ref 0 in
  for core = 0 to core_count - 1 do
    let mine =
      Array.to_list all |> List.filter (fun b -> b.core = core)
      |> Array.of_list
    in
    let peak, spilled = plan_core mine ~capacity in
    resident.(core) <- peak;
    List.iter
      (fun b ->
        incr spilled_buffers;
        List.iter
          (fun (ord, bytes) ->
            pair_bytes.(ord) <- bytes;
            skip.(ord) <- true;
            spill := !spill + (2 * bytes))
          (List.rev b.allocs);
        List.iter (fun ord -> skip.(ord) <- true) b.frees)
      spilled
  done;
  (match spill_budget with
  | Some budget when !spill > budget ->
      raise
        (Memalloc.Doesnt_fit
           (Fmt.str
              "lifetime placement needs %dB of spill traffic, over the %dB \
               budget"
              !spill budget))
  | _ -> ());
  {
    events = n;
    pair_bytes;
    skip;
    resident;
    spill = !spill;
    spilled_buffers = !spilled_buffers;
  }

(* --- orchestration -------------------------------------------------------- *)

(* The memory report: demand from the profiling pass, which applied
   every event to its own unclamped [Lifetime] allocator; residency and
   spill from the plan; global traffic as the emitting pass counted it,
   planned round trips included. *)
let optimise ~capacity ?spill_budget ~schedule () =
  let first = schedule None in
  let plan =
    plan_of_trace ~core_count:first.Isa.core_count ~capacity ?spill_budget
      first.Isa.mem_trace
  in
  let prog = if plan.spill > 0 then schedule (Some plan) else first in
  if Array.length prog.Isa.mem_trace <> plan.events then
    failwith "Lifetime.optimise: second emission pass diverged from the plan";
  {
    prog with
    Isa.memory =
      {
        prog.Isa.memory with
        Isa.local_peak_bytes = first.Isa.memory.Isa.local_peak_bytes;
        local_resident_peak_bytes = plan.resident;
        spill_bytes = plan.spill;
      };
  }
