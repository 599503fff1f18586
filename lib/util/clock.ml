(* Wall-clock, not [Sys.time]: CPU seconds both under-report
   multi-threaded work and hide I/O waits, and the paper's Table II
   reports elapsed time. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)
