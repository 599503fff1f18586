(* Content-addressed compile cache: a directory of {!Artifact}
   containers named <key>.pimart, where the key is a canonical digest
   of everything that determines the compiled program — the NNIR graph,
   the compile options and the hardware configuration (computed by
   {!Compile.cache_key}; the field canonicalisation lives here as
   {!digest_fields}).

   Correctness engineering, per invariant:

   - the digest is MD5 over a *canonical rendering*: fields sorted by
     name and length-prefixed, so reordering cannot change the key and
     no (name, value) pair can alias another's byte sequence.
     [Hashtbl.hash] is explicitly rejected — it truncates its traversal
     (default meaningful limit ~10 nodes) and would collide distinct
     graphs;
   - entries are published with temp-file + rename ({!Artifact.to_file}
     via {!Pimutil.Atomic_io}), so a crashed or concurrent writer can
     never leave a torn entry; concurrent stores of the same key both
     produce complete files and the later rename wins;
   - an entry is distrusted until proven, once per handle: its first
     load runs the container checksum ({!Artifact.load}), the key match
     against the request and a full {!Verify.run} against the request's
     graph and hardware config.  Any failure deletes the entry and
     reports a miss — the caller recompiles, and the cache heals
     itself.  A passing entry is recorded with an HMAC-MD5 of its file
     bytes under a secret drawn when the handle opened; a later hit
     whose bytes carry the same MAC under the same key is recalled:
     the checksum, the decode and the verifier are skipped, and the
     program is decoded only when the caller forces it;
   - eviction is LRU by file mtime (hits touch their entry), triggered
     on store when [max_bytes] is set; the newest entry always
     survives.

   The handle is domain-safe: counters and the eviction scan are under
   a mutex, file content is protected by the atomic-rename discipline. *)

type summary = { graph_name : string; cores : int; instructions : int }

let summary (program : Isa.t) =
  {
    graph_name = program.Isa.graph_name;
    cores = program.Isa.core_count;
    instructions = Isa.num_instrs program;
  }

type t = {
  dir : string;
  max_bytes : int option;
  mutex : Mutex.t;
  ipad : string;
  opad : string;
  (* key -> MAC of the bytes this handle verified under it, and their
     program's summary *)
  verified : (string, Digest.t * summary) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejected : int;
  mutable recalled : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  rejected : int;
  recalled : int;
  entries : int;
  bytes : int;
}

(* --- canonical digest ------------------------------------------------------ *)

(* Length-prefixing both halves of every field makes the rendering
   injective: ("a", "b=c") and ("a=b", "c") produce different byte
   strings, unlike naive "k=v;" concatenation.  Sorting by field name
   (then value, for robustness against duplicate names) makes the
   digest independent of the order the caller assembled the fields. *)
let digest_fields fields =
  let canonical =
    List.sort compare fields
    |> List.map (fun (k, v) ->
           Fmt.str "%d:%s=%d:%s;" (String.length k) k (String.length v) v)
    |> String.concat ""
  in
  Digest.to_hex (Digest.string canonical)

(* --- keyed MAC --------------------------------------------------------------- *)

(* HMAC-MD5 (RFC 2104): MD5 (K xor opad, MD5 (K xor ipad, message)),
   with K zero-padded to MD5's 64-byte block (hashed first when
   longer).  The hit path reads each entry into a buffer that already
   begins with the inner pad, so MACing a file never copies it. *)
let block = 64

let pads key =
  let key = if String.length key > block then Digest.string key else key in
  let pad c =
    String.init block (fun i ->
        if i < String.length key then
          Char.chr (Char.code key.[i] lxor Char.code c)
        else c)
  in
  (pad '\x36', pad '\x5c')

(* [padded] is the inner pad followed by the message. *)
let mac ~opad padded = Digest.string (opad ^ Digest.string padded)

let hmac_md5 ~key message =
  let ipad, opad = pads key in
  Digest.to_hex (mac ~opad (ipad ^ message))

(* --- store ----------------------------------------------------------------- *)

let entry_suffix = ".pimart"

let path_of t key = Filename.concat t.dir (key ^ entry_suffix)

let open_dir ?max_bytes dir =
  (match max_bytes with
  | Some b when b < 0 -> invalid_arg "Cache.open_dir: negative max_bytes"
  | _ -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Fmt.str "Cache.open_dir: %s is not a directory" dir);
  (* OS entropy, not the GA's seeded Rng; the secret never leaves the
     handle, so an equal MAC means equal bytes. *)
  let secret =
    let st = Random.State.make_self_init () in
    String.init 16 (fun _ -> Char.chr (Random.State.int st 256))
  in
  let ipad, opad = pads secret in
  {
    dir;
    max_bytes;
    mutex = Mutex.create ();
    ipad;
    opad;
    verified = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    evictions = 0;
    rejected = 0;
    recalled = 0;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Entries present on disk: (path, mtime, size), temp files skipped. *)
let scan_entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if
               Filename.check_suffix name entry_suffix
               && not (Pimutil.Atomic_io.is_temp_file name)
             then
               let path = Filename.concat t.dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                   Some (path, st_mtime, st_size)
               | _ | (exception Unix.Unix_error _) -> None
             else None)

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let touch path =
  (* The LRU clock.  An explicit gettimeofday stamp, not the kernel's
     own file timestamping: write mtimes come from the coarse per-tick
     clock (~ms granularity), so back-to-back stores and hits tie and
     LRU order would degenerate to directory-scan order.  gettimeofday
     is µs-resolved, which keeps successive entries ordered. *)
  let now = Unix.gettimeofday () in
  try Unix.utimes path now now with Unix.Unix_error _ -> ()

(* Load + validate one entry: [Some (hit, recalled)], or [None] when it
   cannot be trusted.  A first load by this handle runs every check and
   records the bytes' MAC; bytes that match the record are recalled.
   No counters here — [lookup] owns the bookkeeping. *)
let load_entry t ~key ~graph ~config path =
  match Artifact.open_file ~pad:t.ipad path with
  | exception Artifact.Corrupt _ -> None
  | entry when Artifact.key entry <> key -> None
  | entry -> (
      let mac = mac ~opad:t.opad (Artifact.bytes entry) in
      match locked t (fun () -> Hashtbl.find_opt t.verified key) with
      | Some (m, s) when Digest.equal m mac ->
          (* Bytes this handle verified under this key: decode them
             when, and only if, the caller uses the program. *)
          Some ((s, lazy (Artifact.decode entry), mac), true)
      | _ -> (
          match Artifact.load entry with
          | exception Artifact.Corrupt _ -> None
          | program when Verify.run ~graph ~config program = [] ->
              let s = summary program in
              locked t (fun () -> Hashtbl.replace t.verified key (mac, s));
              Some ((s, Lazy.from_val program, mac), false)
          | _ -> None))

let lookup t ~key ~graph ~config () =
  let path = path_of t key in
  if not (Sys.file_exists path) then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    None
  end
  else
    match load_entry t ~key ~graph ~config path with
    | Some (hit, recalled) ->
        touch path;
        locked t (fun () ->
            t.hits <- t.hits + 1;
            if recalled then t.recalled <- t.recalled + 1);
        Some hit
    | None ->
        (* Poisoned entry: drop it and recompile — never serve it. *)
        remove_quietly path;
        locked t (fun () ->
            t.rejected <- t.rejected + 1;
            t.misses <- t.misses + 1);
        None

let find t ~key ~graph ~config () =
  Option.map
    (fun (_, program, _) -> Lazy.force program)
    (lookup t ~key ~graph ~config ())

let enforce_budget t =
  match t.max_bytes with
  | None -> ()
  | Some budget ->
      locked t (fun () ->
          let entries =
            List.sort
              (fun (_, a, _) (_, b, _) -> compare (a : float) b)
              (scan_entries t)
          in
          let total =
            List.fold_left (fun acc (_, _, s) -> acc + s) 0 entries
          in
          let excess = ref (total - budget) in
          let remaining = ref (List.length entries) in
          List.iter
            (fun (path, _, size) ->
              (* oldest first; always keep the newest entry, even if it
                 alone exceeds the budget *)
              if !excess > 0 && !remaining > 1 then begin
                remove_quietly path;
                excess := !excess - size;
                decr remaining;
                t.evictions <- t.evictions + 1
              end)
            entries)

let store t ~key program =
  let path = path_of t key in
  Artifact.to_file path (Artifact.make ~key program);
  touch path;
  enforce_budget t

let trim t =
  let before = locked t (fun () -> t.evictions) in
  enforce_budget t;
  locked t (fun () -> t.evictions) - before

let stats t =
  let entries = scan_entries t in
  let bytes = List.fold_left (fun acc (_, _, s) -> acc + s) 0 entries in
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        rejected = t.rejected;
        recalled = t.recalled;
        entries = List.length entries;
        bytes;
      })

(* The one rendering of the counters, in the order of serve's [stats]
   answer and BENCH_CACHE.json's [stats] object. *)
let stats_fields { hits; recalled; misses; rejected; evictions; entries; bytes }
    =
  [
    ("hits", hits);
    ("recalled", recalled);
    ("misses", misses);
    ("rejected", rejected);
    ("evictions", evictions);
    ("entries", entries);
    ("bytes", bytes);
  ]

let pp_stats ppf s =
  Fmt.(list ~sep:(any "  ") (fun ppf (name, n) -> pf ppf "%s %d" name n))
    ppf (stats_fields s)

let clear t =
  locked t (fun () ->
      let entries = scan_entries t in
      List.iter (fun (path, _, _) -> remove_quietly path) entries;
      List.length entries)

let list t =
  scan_entries t
  |> List.sort (fun (_, a, _) (_, b, _) -> compare (b : float) a)
  |> List.map (fun (path, mtime, size) ->
         let key = Filename.chop_suffix (Filename.basename path) entry_suffix in
         let graph =
           try Artifact.graph_name_of_file path
           with Artifact.Corrupt _ -> "<corrupt>"
         in
         (key, graph, size, mtime))
