(* On-chip local-memory allocation strategies (Section IV-D3, Fig. 7).

   The schedulers request logical buffers from an allocator as they emit
   instructions; the strategy decides which requests get fresh blocks:

   - [Naive]    — a new block for every request; nothing is reclaimed
                  (Fig. 7a: most blocks are written once and never reused).
   - [Add_reuse]— accumulation targets reuse one accumulator block per
                  accumulation chain (Fig. 7b); other blocks still pile up.
   - [Ag_reuse] — additionally, each AG's staging slots are recycled
                  across operation cycles and dead blocks are reclaimed
                  (Fig. 7c).
   - [Lifetime] — the recording discipline behind {!Lifetime}: keyed
                  reuse as under AG-reuse, plus *every* free (including
                  staging slots via {!free_ag_slot}) reclaims, so demand
                  tracks the precise live set.  Capacity handling is
                  deliberately left to the placement planner: lifetime
                  allocators are created with [capacity = None] and
                  spills are planned globally, not clamped locally.

   The allocator tracks per-core demand and residency separately:

   - [demand_peak]   — the high-water mark of bytes callers logically
                       hold, *before* any capacity clamp.  This is what
                       the network asks of the scratchpad and can exceed
                       the hardware capacity.
   - [resident_peak] — the high-water mark of bytes actually resident
                       after the clamp; never exceeds the capacity.

   When a capacity is given (HT mode: the 64 kB scratchpad), requests
   exceeding it spill: the overflow is counted as global-memory
   round-trip traffic — this is what makes the naive strategy pay the
   extra global accesses of Fig. 10.  A single request larger than the
   whole scratchpad cannot round-trip at all (the consumer reads the
   buffer from local memory in one burst), so it raises {!Doesnt_fit}:
   such configurations are infeasible under the opportunistic
   disciplines and need the lifetime planner's deliberate spills. *)

type strategy = Naive | Add_reuse | Ag_reuse | Lifetime

exception Doesnt_fit of string

let () =
  Printexc.register_printer (function
    | Doesnt_fit msg -> Some (Fmt.str "Memalloc.Doesnt_fit: %s" msg)
    | _ -> None)

let strategy_name = function
  | Naive -> "naive"
  | Add_reuse -> "ADD-reuse"
  | Ag_reuse -> "AG-reuse"
  | Lifetime -> "lifetime"

let strategy_of_string = function
  | "naive" -> Naive
  | "add" | "add-reuse" | "ADD-reuse" -> Add_reuse
  | "ag" | "ag-reuse" | "AG-reuse" -> Ag_reuse
  | "lifetime" -> Lifetime
  | s -> invalid_arg (Fmt.str "Memalloc.strategy_of_string: %S" s)

(* What kind of buffer a request is for.  Keys are caller-chosen stable
   identifiers (e.g. the global AG id, or a replica id for accumulators). *)
type request =
  | Fresh                      (* plain value block *)
  | Accumulator of int         (* accumulation chain key *)
  | Ag_slot of int             (* per-AG staging slot key *)

type core_state = {
  mutable current : int;
  mutable demand_peak : int;
  mutable resident_peak : int;
  (* Bytes callers hold logically but which overflowed the capacity and
     were spilled, so they were never resident.  Frees reclaim from this
     pool first: subtracting a block's full size from [current] when part
     of it spilled would under-count residency and corrupt every
     subsequent spill computation. *)
  mutable phantom : int;
  (* Bytes of frees that exceeded the live set — a double-free or a
     free of something never allocated.  The reclaim clamp keeps the
     counters sane, but silently absorbing the underflow would hide the
     caller's bug; the verifier reports this as a diagnostic. *)
  mutable overfree : int;
  accumulators : (int, int) Hashtbl.t; (* key -> bytes held *)
  ag_slots : (int, int) Hashtbl.t;
}

type t = {
  strategy : strategy;
  capacity : int option;
  cores : core_state array;
  mutable spill_bytes : int;
}

let create strategy ~core_count ~capacity =
  {
    strategy;
    capacity;
    cores =
      Array.init core_count (fun _ ->
          {
            current = 0;
            demand_peak = 0;
            resident_peak = 0;
            phantom = 0;
            overfree = 0;
            accumulators = Hashtbl.create 16;
            ag_slots = Hashtbl.create 16;
          });
    spill_bytes = 0;
  }

let strategy t = t.strategy
let current t ~core = t.cores.(core).current
let demand_peak t ~core = t.cores.(core).demand_peak
let resident_peak t ~core = t.cores.(core).resident_peak
let spill_bytes t = t.spill_bytes

let demand_peaks t = Array.map (fun c -> c.demand_peak) t.cores
let resident_peaks t = Array.map (fun c -> c.resident_peak) t.cores

let overfree_bytes t =
  Array.fold_left (fun acc c -> acc + c.overfree) 0 t.cores

let overfree_bytes_on t ~core = t.cores.(core).overfree

(* A request larger than the whole scratchpad can never be resident: the
   opportunistic disciplines have no way to stream it, so the
   configuration is infeasible rather than silently mis-accounted. *)
let check_fits t bytes =
  match t.capacity with
  | Some cap when bytes > cap ->
      raise
        (Doesnt_fit
           (Fmt.str
              "single %dB request exceeds the %dB scratchpad under the %s \
               discipline; the lifetime allocator can stream it via planned \
               spills"
              bytes cap (strategy_name t.strategy)))
  | _ -> ()

(* Grow a core's live set by [bytes]; returns the bytes that had to spill
   to global memory to respect the capacity. *)
let grow t core bytes =
  let c = t.cores.(core) in
  c.current <- c.current + bytes;
  if c.current > c.demand_peak then c.demand_peak <- c.current;
  match t.capacity with
  | Some cap when c.current > cap ->
      let overflow = c.current - cap in
      c.current <- cap;
      if c.current > c.resident_peak then c.resident_peak <- c.current;
      c.phantom <- c.phantom + overflow;
      t.spill_bytes <- t.spill_bytes + (2 * overflow);
      overflow
  | _ ->
      if c.current > c.resident_peak then c.resident_peak <- c.current;
      0

(* Reclaim a logically-freed block: the spilled (phantom) portion was
   never resident, so only the remainder reduces [current].  Frees that
   exceed the live set are clamped but counted in [overfree] so the
   verifier can surface the caller's double-free. *)
let reclaim c bytes =
  let from_phantom = min bytes c.phantom in
  c.phantom <- c.phantom - from_phantom;
  let resident = bytes - from_phantom in
  if resident > c.current then begin
    c.overfree <- c.overfree + (resident - c.current);
    c.current <- 0
  end
  else c.current <- c.current - resident

(* A keyed block (accumulation chain, AG staging slot) is reused across
   requests under its key and grows to the largest of them.  [find] +
   [Not_found] rather than [find_opt]: the option box would be pure
   garbage at one lookup per allocation event. *)
let reuse t core table key bytes =
  match Hashtbl.find table key with
  | held when held >= bytes -> 0
  | held ->
      Hashtbl.replace table key bytes;
      grow t core (bytes - held)
  | exception Not_found ->
      Hashtbl.add table key bytes;
      grow t core bytes

(* Request a buffer of [bytes] on [core].  Returns the number of bytes
   that spilled (0 almost always; HT + naive overflows).  The schedulers'
   builder reaches this through [Lifetime.apply], once per allocation
   event. *)
let alloc t ~core ~bytes request =
  if bytes < 0 then invalid_arg (Fmt.str "Memalloc.alloc: negative size %d" bytes);
  check_fits t bytes;
  match (request, t.strategy) with
  | Fresh, _ | Accumulator _, Naive | Ag_slot _, (Naive | Add_reuse) ->
      grow t core bytes
  | Accumulator key, _ -> reuse t core t.cores.(core).accumulators key bytes
  | Ag_slot key, _ -> reuse t core t.cores.(core).ag_slots key bytes

(* Release a plain block.  Only the reclaiming disciplines act: the
   naive and ADD-reuse disciplines of Fig. 7 leave dead blocks in
   place.  Negative sizes are rejected exactly as at allocation — a
   negative free would *inflate* [current] through [reclaim] and corrupt
   every subsequent spill computation. *)
let free t ~core ~bytes =
  if bytes < 0 then invalid_arg (Fmt.str "Memalloc.free: negative size %d" bytes);
  match t.strategy with
  | Naive | Add_reuse -> ()
  | Ag_reuse | Lifetime -> reclaim t.cores.(core) bytes

(* Release an accumulation chain once its result has been consumed. *)
let free_accumulator t ~core ~key =
  match t.strategy with
  | Naive -> ()
  | Add_reuse | Ag_reuse | Lifetime -> (
      let c = t.cores.(core) in
      match Hashtbl.find_opt c.accumulators key with
      | Some held when t.strategy = Ag_reuse || t.strategy = Lifetime ->
          Hashtbl.remove c.accumulators key;
          reclaim c held
      | _ -> ())

(* Release a staging slot whose contents are provably dead.  Only the
   lifetime discipline frees slots (the Fig. 7 disciplines keep them
   resident forever, recycled but never reclaimed). *)
let free_ag_slot t ~core ~key =
  match t.strategy with
  | Naive | Add_reuse | Ag_reuse -> ()
  | Lifetime -> (
      let c = t.cores.(core) in
      match Hashtbl.find_opt c.ag_slots key with
      | Some held ->
          Hashtbl.remove c.ag_slots key;
          reclaim c held
      | None -> ())
