(* Tests for the generic domain pool in the leaf library [Pimutil]:
   slot-ordered results, sequential/parallel equivalence (also on a
   simulator sweep), and exception propagation out of worker domains —
   the properties both the simulator sweeps and the island-model GA
   rely on. *)

let test_slot_ordering () =
  let items = Array.init 137 (fun i -> i) in
  let seq = Pimutil.Domain_pool.map ~domains:1 (fun i -> (i * i) + 1) items in
  List.iter
    (fun domains ->
      let par =
        Pimutil.Domain_pool.map ~domains (fun i -> (i * i) + 1) items
      in
      Alcotest.(check (array int))
        (Fmt.str "%d domains, slot order" domains)
        seq par)
    [ 2; 3; 8 ]

let test_domains_exceed_items () =
  let r = Pimutil.Domain_pool.map ~domains:16 (fun i -> i + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "3 items on 16 domains" [| 2; 3; 4 |] r

let test_empty_and_default () =
  Alcotest.(check (array int))
    "empty input" [||]
    (Pimutil.Domain_pool.map ~domains:4 (fun i -> i) [||]);
  Alcotest.(check bool) "default domain count >= 1" true
    (Pimutil.Domain_pool.default_domains () >= 1)

exception Boom of int

(* A worker exception must reach the caller whatever domain raised it,
   for every domain count — including the sequential degenerate case.
   In a parallel run the pool joins every domain before re-raising, so
   all items are still evaluated first (sequential [domains = 1] stops
   at the raise, plain [Array.map] semantics). *)
let test_exception_propagation () =
  let items = Array.init 12 (fun i -> i) in
  List.iter
    (fun domains ->
      let seen = Array.make 12 false in
      (match
         Pimutil.Domain_pool.map ~domains
           (fun i ->
             seen.(i) <- true;
             if i = 7 then raise (Boom i) else i)
           items
       with
      | _ -> Alcotest.fail "worker exception must reach the caller"
      | exception Boom 7 -> ());
      if domains > 1 then
        Alcotest.(check bool)
          (Fmt.str "%d domains: all items visited before the re-raise" domains)
          true
          (Array.for_all Fun.id seen))
    [ 1; 2; 5 ]

exception Spawn_refused

(* Domain.spawn itself can fail (thread/domain limits).  The pool used
   to leak the domains spawned before the failure; now it parks the
   work counter, joins every survivor, and re-raises.  The spawn hook
   counts started workers and a completion cell per worker proves each
   one finished before the exception reached the caller. *)
let test_partial_spawn_failure () =
  let allowed = 2 in
  let started = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let spawn body =
    if Atomic.fetch_and_add started 1 >= allowed then raise Spawn_refused;
    Domain.spawn (fun () ->
        body ();
        Atomic.incr finished)
  in
  let items = Array.init 64 (fun i -> i) in
  (match
     Pimutil.Domain_pool.map ~domains:8 ~spawn (fun i -> i * 2) items
   with
  | _ -> Alcotest.fail "spawn failure must re-raise in the caller"
  | exception Spawn_refused -> ());
  Alcotest.(check int) "spawn attempts" (allowed + 1) (Atomic.get started);
  Alcotest.(check int)
    "every spawned worker joined before the re-raise" allowed
    (Atomic.get finished)

module Persistent = Pimutil.Domain_pool.Persistent

let with_pool ?init ~domains f =
  let pool = Persistent.create ~domains ?init () in
  Fun.protect ~finally:(fun () -> Persistent.shutdown pool) (fun () -> f pool)

(* The persistent pool spawns its workers once: [init] runs once per
   worker however many batches the pool serves. *)
let test_persistent_pool () =
  let init_runs = Atomic.make 0 in
  with_pool ~domains:3
    ~init:(fun () -> Atomic.incr init_runs)
    (fun pool ->
      Alcotest.(check int) "domain count" 3 (Persistent.domain_count pool);
      for _ = 1 to 3 do
        ignore (Persistent.run pool Fun.id [| 1; 2; 3 |])
      done);
  (* Workers are joined by now, so every init has run exactly once. *)
  Alcotest.(check int) "init ran once per worker" 3 (Atomic.get init_runs)

(* Across many batches on the same warm domains, [run] gives [map]'s
   slot-ordered results. *)
let test_pool_matches_map () =
  with_pool ~domains:3 (fun pool ->
      for round = 1 to 5 do
        let items = Array.init (round * 13) (fun i -> i) in
        let f i = (i * i) + round in
        Alcotest.(check (array int))
          (Fmt.str "round %d matches map" round)
          (Pimutil.Domain_pool.map ~domains:3 f items)
          (Persistent.run pool f items)
      done)

(* A worker exception reaches the caller, and the pool survives the
   failing batch. *)
let test_pool_exception () =
  with_pool ~domains:2 (fun pool ->
      (match
         Persistent.run pool
           (fun i -> if i = 3 then raise (Boom i) else i)
           (Array.init 8 (fun i -> i))
       with
      | _ -> Alcotest.fail "worker exception must reach the caller"
      | exception Boom 3 -> ());
      Alcotest.(check (array int))
        "pool usable after a failing batch" [| 0; 2; 4 |]
        (Persistent.run pool (fun i -> 2 * i) [| 0; 1; 2 |]))

(* A second shutdown is a no-op, and run then refuses. *)
let test_pool_shutdown () =
  let pool = Persistent.create ~domains:2 () in
  Persistent.shutdown pool;
  Persistent.shutdown pool;
  match Persistent.run pool (fun i -> i) [| 1 |] with
  | _ -> Alcotest.fail "run after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* A simulator sweep over (program, parallelism) points, fanned across
   domains as `pimcomp sweep` runs it, is bit-identical to the sequential
   sweep, and each point matches the reference engine.  The programs are
   the tiny network at its native size mapped onto 8 cores. *)
let test_simulate_matches_sequential () =
  let hw = Pimhw.Config.puma_like in
  let compiled mode =
    let options =
      { Pimcomp.Compile.default_options with
        strategy = Pimcomp.Compile.Puma_like; core_count = Some 8; mode }
    in
    (Pimcomp.Compile.compile ~options hw (Nnir.Zoo.tiny ())).program
  in
  let ht = compiled Pimcomp.Mode.High_throughput in
  let ll = compiled Pimcomp.Mode.Low_latency in
  let points = [| (ht, 4); (ht, 20); (ll, 4); (ll, 20) |] in
  let sweep domains =
    Pimutil.Domain_pool.map ~domains
      (fun (program, parallelism) -> Pimsim.Engine.run ~parallelism hw program)
      points
  in
  let seq = sweep 1 in
  Alcotest.(check bool) "parallel sweep bit-identical to sequential" true
    (seq = sweep 4);
  Array.iteri
    (fun i (program, parallelism) ->
      Alcotest.(check bool) (Fmt.str "point %d matches Engine_ref" i) true
        (seq.(i) = Pimsim.Engine_ref.run ~parallelism hw program))
    points

let () =
  Alcotest.run "domain_pool"
    [
      ( "map",
        [
          Alcotest.test_case "slot ordering" `Quick test_slot_ordering;
          Alcotest.test_case "domains > items" `Quick test_domains_exceed_items;
          Alcotest.test_case "empty and default" `Quick test_empty_and_default;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "partial spawn failure" `Quick
            test_partial_spawn_failure;
        ] );
      ( "persistent",
        [ Alcotest.test_case "warm pool" `Quick test_persistent_pool ] );
      ( "pool",
        [
          Alcotest.test_case "matches map, reusable" `Quick
            test_pool_matches_map;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "matches sequential and Engine_ref" `Quick
            test_simulate_matches_sequential;
        ] );
    ]
