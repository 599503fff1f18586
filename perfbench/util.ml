(* Helpers shared by the three workloads: clocks, seeded order, order
   statistics, process metrics, the scratch directory, modelled metrics,
   the run's outcome, epochs and the exact-repeat check. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let div a b = if b = 0. then 0. else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* --- seeded draws --------------------------------------------------------- *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffled st items =
  let a = Array.copy items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- order statistics ----------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let rank_value a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* The p-th percentile as a Gaussian-weighted mean of the order
   statistics, centred on rank p*n with the standard deviation of the
   sample quantile (sqrt (p (1 - p) / n)) -- a normal approximation of
   the Harrell-Davis estimator.  It estimates the same quantile as the
   nearest-rank value, but one noisy op next to that rank moves it far
   less, which matters where op costs form separate clusters. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let q = p /. 100. in
  let sd = sqrt (q *. (1. -. q) /. float_of_int n) in
  if n < 2 || sd = 0. then rank_value a p
  else
    let cdf x = 0.5 *. (1. +. Float.erf ((x -. q) /. (sd *. sqrt 2.))) in
    let total = cdf 1. -. cdf 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i x ->
        let lo = float_of_int i /. float_of_int n in
        let hi = float_of_int (i + 1) /. float_of_int n in
        acc := !acc +. (x *. (cdf hi -. cdf lo)))
      a;
    !acc /. total

let median xs = percentile xs 50.

(* The tail: the highest integer percentile with at least ten samples
   beyond its nearest rank (the maximum with fewer than eleven samples),
   with its value and the number of samples beyond. *)
let tail xs =
  let n = List.length xs in
  if n <= 10 then (100, percentile xs 100., 0)
  else
    let p = 100 * (n - 10) / n in
    let r = int_of_float (Float.ceil (float_of_int (p * n) /. 100.)) in
    (p, percentile xs (float_of_int p), n - r)

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* --- process metrics ------------------------------------------------------ *)

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* --- work directory ------------------------------------------------------- *)

(* Scratch files live under .bench_work in the working directory (the
   checkout root when run through run.sh). *)
let work_root = ".bench_work"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* The name is fixed, not per process: paths reach allocation sizes,
   which the exact-repeat check compares across runs.  Runs of one
   checkout never overlap. *)
let fresh_dir tag =
  let d = Filename.concat (Sys.getcwd ()) (Filename.concat work_root tag) in
  rm_rf d;
  mkdir_p d;
  d

(* --- modelled metrics ----------------------------------------------------- *)

(* Modelled time per inference as Synth_eval defines it. *)
let model_time_ns (m : Pimsim.Metrics.t) =
  match m.Pimsim.Metrics.mode with
  | Pimcomp.Mode.Low_latency -> m.Pimsim.Metrics.latency_ns
  | Pimcomp.Mode.High_throughput -> 1e9 /. m.Pimsim.Metrics.throughput_ips

let energy_uj (m : Pimsim.Metrics.t) =
  Pimsim.Metrics.total_pj m.Pimsim.Metrics.energy /. 1e6

(* Maximum per-core resident local-memory peak of a program, in KiB. *)
let local_peak_kb (p : Pimcomp.Isa.t) =
  float_of_int
    (Array.fold_left max 0
       p.Pimcomp.Isa.memory.Pimcomp.Isa.local_resident_peak_bytes)
  /. 1024.

(* The modelled end-to-end metrics over a workload's program set, from
   each modelled inference's (time ns, energy uJ). *)
let modelled ~inferences ~programs =
  [
    ("model_time_ns_geo", geomean (List.map fst inferences));
    ("model_energy_uj_geo", geomean (List.map snd inferences));
    ( "program_instrs",
      float_of_int
        (List.fold_left (fun acc p -> acc + Pimcomp.Isa.num_instrs p) 0 programs)
    );
    ("local_peak_kb", geomean (List.map local_peak_kb programs));
  ]

(* --- one run's result ----------------------------------------------------- *)

type outcome = {
  setup_s : float;  (** this process's own set-up; 0 in the traced run *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed checks *)
  metrics : (string * float) list;
  notes : string list;  (** printed before the result line *)
  repeat_ops : string list;
      (** per-op values that must repeat exactly for the same seed *)
  repeat_end : string list;  (** whole-run values that must repeat exactly *)
}

(* A run does a fixed amount of work: whole epochs, as many as fit in
   [seconds] at the workload's nominal epoch time (measured on a 2-core
   VM), at least one.  An epoch holds the same multiset of ops for every
   seed -- the seed orders them -- so every run of a workload does the
   same work and per-op statistics do not drift with the seed. *)
let epochs ~seconds ~epoch_seconds =
  max 1 (int_of_float (Float.round (seconds /. epoch_seconds)))

(* [stop] ends the run after the current epoch (a dead daemon). *)
let run_epochs ?(stop = fun () -> false) ~epochs next_epoch f =
  let out = ref [] in
  let i = ref 0 in
  while !i < epochs && not (stop ()) do
    Array.iter (fun op -> out := f op :: !out) (next_epoch ());
    incr i
  done;
  List.rev !out

(* Exact-repeat check: values that are deterministic for a seed are kept
   per (workload, seed, trace, binaries) under .bench_work/repeat and
   compared with the previous run's: per-op lines over the ops both
   runs reached, whole-run lines in full.  Any difference is
   nondeterminism, reported as a failed check. *)
let repeat_check ~key ~binaries ~ops ~whole =
  let digest =
    Digest.to_hex
      (Digest.string (String.concat "" (List.map Digest.file binaries)))
  in
  let dir = Filename.concat work_root "repeat" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%s.txt" key digest) in
  let lines = ops @ List.map (fun l -> "end " ^ l) whole in
  let errors =
    if not (Sys.file_exists path) then []
    else
      let prev =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      let is_end l = String.length l > 4 && String.sub l 0 4 = "end " in
      let prev_ops = List.filter (fun l -> not (is_end l)) prev in
      let prev_end = List.filter is_end prev in
      let rec first_diff a b =
        match (a, b) with
        | x :: a, y :: b -> if x = y then first_diff a b else Some (x, y)
        | _ -> None
      in
      (match first_diff prev_ops ops with
      | Some (was, now) ->
          [ Printf.sprintf "repeat: per-op value drifted: %S vs %S" was now ]
      | None -> [])
      @
      if prev_end <> List.map (fun l -> "end " ^ l) whole then
        [ "repeat: whole-run values drifted from the previous run" ]
      else []
  in
  Pimutil.Atomic_io.write_text path (String.concat "\n" lines ^ "\n");
  errors
