(* The simulate step of `pimcomp simulate` and serve's simulate op, and
   serve's record of the simulations it has already run.

   A simulation is a deterministic function of the program, the
   parallelism, the hardware and the batch count (a stream always runs
   at the default window with the detector on).  For a cache hit, the
   cache key fixes the parallelism and the hardware, and the handle's
   MAC of the served bytes fixes the program: equal MACs under the
   handle's secret mean equal bytes.  So a result recorded by (key, MAC,
   batches) is the answer a fresh run would give.  Misses and cache-off
   requests carry no MAC and record nothing.

   Per key the record keeps the MAC of the bytes it simulated and at
   most two results, one single-inference (batches = 1) and one stream;
   a new batch count replaces the stream result, and a new MAC replaces
   both.  A result is one or two KiB (the metrics with their per-core
   arrays), where a decoded program is megabytes. *)

type result =
  | Single of Metrics.t
  | Stream of (Batch.result * Engine.stream_stats)

let run ~parallelism ~batches hw program =
  if batches < 1 then
    invalid_arg (Fmt.str "batches must be at least 1, got %d" batches);
  if batches = 1 then Single (Engine.run ~parallelism hw program)
  else Stream (Batch.run_stream ~parallelism hw program ~batches)

type counts = { simulated : int; recalled : int }

type record = {
  mutex : Mutex.t;
  (* cache key -> the MAC of the bytes simulated under it, and their
     results by batch count *)
  results : (string, Digest.t * (int * result) list) Hashtbl.t;
  mutable simulated : int;
  mutable recalled : int;
}

let record () =
  {
    mutex = Mutex.create ();
    results = Hashtbl.create 16;
    simulated = 0;
    recalled = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* What [t] holds for [key] on the bytes whose MAC is [mac]. *)
let results_for t ~key ~mac =
  match Hashtbl.find_opt t.results key with
  | Some (m, results) when Digest.equal m mac -> results
  | _ -> []

let served t ~parallelism ~batches hw (s : Pimcomp.Compile.served) =
  let id =
    match s.Pimcomp.Compile.origin with
    | Cache_hit { key; mac } -> Some (key, mac)
    | Cache_off _ | Cache_miss _ -> None
  in
  let hit =
    Option.bind id (fun (key, mac) ->
        locked t (fun () ->
            let r = List.assoc_opt batches (results_for t ~key ~mac) in
            if Option.is_some r then t.recalled <- t.recalled + 1;
            r))
  in
  match hit with
  | Some r -> r
  | None ->
      let r =
        run ~parallelism ~batches hw (Lazy.force s.Pimcomp.Compile.program)
      in
      locked t (fun () ->
          t.simulated <- t.simulated + 1;
          Option.iter
            (fun (key, mac) ->
              let other_kind =
                List.filter
                  (fun (b, _) -> (b = 1) <> (batches = 1))
                  (results_for t ~key ~mac)
              in
              Hashtbl.replace t.results key (mac, (batches, r) :: other_kind))
            id);
      r

let counts t =
  locked t (fun () -> { simulated = t.simulated; recalled = t.recalled })
