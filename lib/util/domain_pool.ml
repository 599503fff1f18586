(* Generic domain pool: fan independent (pure, deterministic) closures
   out across OCaml 5 domains, writing each result into its input slot.
   Both the compiler (island-model GA) and the simulator's callers
   (evaluation sweeps, synthesis) use it without depending on each
   other; this library is a leaf — it must stay free of pimcomp/pimsim
   dependencies.

   One implementation: long-lived worker domains fed through a
   mutex/condition job queue ([Persistent]).  The one-shot [map] is a
   pool created for the call, run once and shut down.

   Guarantees:

   - result ordering is deterministic: results.(i) always corresponds to
     items.(i), whatever interleaving the domains ran in;
   - the evaluations themselves must be deterministic (seeded RNG, no
     wall-clock dependence), hence a parallel run returns bit-identical
     results to a sequential one;
   - an exception in any worker is re-raised (with its backtrace) in the
     caller after the whole batch has drained, never swallowed;
   - a failure while *spawning* (e.g. resource exhaustion) still joins
     every domain spawned so far before re-raising — no worker is left
     running against state the caller has abandoned.

   Workers must not share mutable state through their closures; callers
   pre-populate caches before fanning out so the closures only read. *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

type 'b cell = Empty | Value of 'b | Raised of exn * Printexc.raw_backtrace

(* Long-lived worker domains: the serve daemon answers many small
   request batches, and respawning domains per batch would dominate the
   work (spawn alone costs more than a warm cache hit).  Workers run
   [init] once at spawn — the daemon uses it to pre-grow each domain's
   minor heap — and then stay warm across batches. *)
module Persistent = struct
  type t = {
    mutex : Mutex.t;
    work : Condition.t;       (* job queued, or shutdown flagged *)
    finished : Condition.t;   (* some batch counter reached zero *)
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
  }

  let worker t init () =
    init ();
    let rec loop () =
      Mutex.lock t.mutex;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.work t.mutex
      done;
      match Queue.take_opt t.queue with
      | None ->
          (* stopping with an empty queue *)
          Mutex.unlock t.mutex
      | Some job ->
          Mutex.unlock t.mutex;
          (* jobs never raise: [run] wraps them in result cells *)
          job ();
          loop ()
    in
    loop ()

  let shutdown t =
    Mutex.lock t.mutex;
    if not t.stopping then begin
      t.stopping <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.workers;
      t.workers <- []
    end
    else Mutex.unlock t.mutex

  (* [spawn] is [Domain.spawn] except under [map]'s test hook. *)
  let make ~spawn ~domains ~init =
    let t =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        workers = [];
      }
    in
    (* Spawn incrementally: if a spawn raises partway (the runtime caps
       live domains, and the OS can refuse a thread), stop and join the
       survivors before re-raising. *)
    (try
       for _ = 1 to max 1 domains do
         t.workers <- spawn (worker t init) :: t.workers
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       shutdown t;
       Printexc.raise_with_backtrace e bt);
    t

  let create ?domains ?(init = fun () -> ()) () =
    make ~spawn:Domain.spawn
      ~domains:(Option.value domains ~default:(default_domains ()))
      ~init

  let domain_count t = List.length t.workers

  let run t f items =
    let n = Array.length items in
    if n = 0 then [||]
    else begin
      let results = Array.make n Empty in
      (* Per-batch countdown so concurrent [run] calls (and their
         completion waits) never interfere. *)
      let remaining = ref n in
      Mutex.lock t.mutex;
      if t.stopping then begin
        Mutex.unlock t.mutex;
        invalid_arg "Domain_pool.Persistent.run: pool is shut down"
      end;
      for i = 0 to n - 1 do
        Queue.add
          (fun () ->
            results.(i) <-
              (match f items.(i) with
              | v -> Value v
              | exception e -> Raised (e, Printexc.get_raw_backtrace ()));
            Mutex.lock t.mutex;
            decr remaining;
            if !remaining = 0 then Condition.broadcast t.finished;
            Mutex.unlock t.mutex)
          t.queue
      done;
      Condition.broadcast t.work;
      while !remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      Mutex.unlock t.mutex;
      Array.map
        (function
          | Value v -> v
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Empty -> assert false)
        results
    end
end

let map ?domains ?(spawn = Domain.spawn) f items =
  let requested = Option.value domains ~default:(default_domains ()) in
  let d = min requested (Array.length items) in
  if d <= 1 then Array.map f items
  else
    let pool = Persistent.make ~spawn ~domains:d ~init:(fun () -> ()) in
    Fun.protect
      ~finally:(fun () -> Persistent.shutdown pool)
      (fun () -> Persistent.run pool f items)
