(* Tests for the content-addressed compile cache and its supporting
   layers: the pimart artifact container (exact round-trips, checksum
   rejection of poisoned bytes), the canonical field digest (order
   independence, injective rendering), cache-key sensitivity, the
   verified hit path and its per-handle record (HMAC-MD5 against the
   RFC 2202 vectors, recalled hits, changed bytes checked again), LRU
   eviction, serve's record of simulations run on hits, and the
   crash-safety of the shared atomic writer. *)

let hw = Pimhw.Config.puma_like

let graph name = Nnir.Zoo.build ~input_size:(Nnir.Zoo.min_input_size name) name

let fast_ga =
  Pimcomp.Compile.Genetic_algorithm
    {
      Pimcomp.Genetic.default_params with
      population = 8;
      iterations = 6;
      patience = None;
    }

let options ?(seed = 7) ?(mode = Pimcomp.Mode.Low_latency)
    ?(allocator = Pimcomp.Memalloc.Ag_reuse)
    ?(strategy = Pimcomp.Compile.Puma_like) () =
  {
    Pimcomp.Compile.default_options with
    mode;
    parallelism = 20;
    seed;
    allocator;
    strategy;
  }

let compile ?seed ?mode ?allocator ?strategy name =
  let options = options ?seed ?mode ?allocator ?strategy () in
  (Pimcomp.Compile.compile ~options hw (graph name)).Pimcomp.Compile.program

let dummy_key = String.make 32 'a'

(* Fresh scratch directory per test; tests clean up after themselves
   but a unique name keeps reruns independent either way. *)
let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "pimcomp-test-cache.%d.%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
    dir

(* --- artifact container ----------------------------------------------------- *)

let test_artifact_roundtrip_zoo () =
  List.iter
    (fun (name, mode) ->
      let program = compile ~mode name in
      let a = Pimcomp.Artifact.make ~key:dummy_key program in
      let b = Pimcomp.Artifact.of_string (Pimcomp.Artifact.to_string a) in
      Alcotest.(check bool)
        (Fmt.str "%s round-trips exactly" name)
        true (a = b))
    [
      ("tiny", Pimcomp.Mode.High_throughput);
      ("tiny", Pimcomp.Mode.Low_latency);
      ("mlp", Pimcomp.Mode.Low_latency);
      ("lenet", Pimcomp.Mode.High_throughput);
    ]

(* Random mappings: Random_search with arbitrary seeds explores the
   chromosome space, so the encoded payloads differ per case while the
   container must stay exact. *)
let test_artifact_roundtrip_random =
  QCheck.Test.make ~count:25 ~name:"artifact round-trip, random mappings"
    QCheck.(
      pair (int_range 0 10_000)
        (pair bool (int_range 0 2)))
    (fun (seed, (ht, alloc)) ->
      let mode =
        if ht then Pimcomp.Mode.High_throughput else Pimcomp.Mode.Low_latency
      in
      let allocator =
        match alloc with
        | 0 -> Pimcomp.Memalloc.Naive
        | 1 -> Pimcomp.Memalloc.Add_reuse
        | _ -> Pimcomp.Memalloc.Ag_reuse
      in
      let strategy =
        Pimcomp.Compile.Random_search
          {
            Pimcomp.Genetic.default_params with
            population = 4;
            iterations = 3;
            patience = None;
          }
      in
      let program = compile ~seed ~mode ~allocator ~strategy "tiny" in
      let a = Pimcomp.Artifact.make ~key:dummy_key program in
      a = Pimcomp.Artifact.of_string (Pimcomp.Artifact.to_string a))

let test_artifact_rejects_corruption () =
  let program = compile "tiny" in
  let a = Pimcomp.Artifact.make ~key:dummy_key program in
  let text = Pimcomp.Artifact.to_string a in
  let corrupt label s =
    match Pimcomp.Artifact.of_string s with
    | _ -> Alcotest.failf "%s: accepted corrupt container" label
    | exception Pimcomp.Artifact.Corrupt _ -> ()
  in
  corrupt "empty" "";
  corrupt "bad magic" ("x" ^ text);
  corrupt "truncated payload" (String.sub text 0 (String.length text - 3));
  corrupt "trailing bytes" (text ^ "z");
  (* Single bit flip deep in the payload: the checksum must catch it
     before the bytes reach the decoder. *)
  let b = Bytes.of_string text in
  let i = Bytes.length b - 5 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  corrupt "bit flip" (Bytes.to_string b)

let test_artifact_key_validation () =
  let program = compile "tiny" in
  List.iter
    (fun bad ->
      match Pimcomp.Artifact.make ~key:bad program with
      | _ -> Alcotest.failf "accepted bad key %S" bad
      | exception Invalid_argument _ -> ())
    [ ""; "abc"; String.make 32 'G'; String.make 33 'a' ]

(* --- payload codec ---------------------------------------------------------- *)

(* Exact, and down to the Marshal image, which also records sharing:
   the compiled and the decoded program hold the same static activation
   values ([Isa.vact]) and share nothing else. *)
let check_round_trip ?(image = true) label program =
  let a = Pimcomp.Artifact.make ~key:dummy_key program in
  let b = Pimcomp.Artifact.of_string (Pimcomp.Artifact.to_string a) in
  Alcotest.(check bool) (label ^ " round-trips exactly") true (a = b);
  if image then
    Alcotest.(check bool)
      (label ^ " keeps its Marshal image")
      true
      (Marshal.to_string b.Pimcomp.Artifact.program []
      = Marshal.to_string program [])

let allocators =
  Pimcomp.Memalloc.[ Naive; Add_reuse; Ag_reuse; Lifetime ]

let test_codec_zoo () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          List.iter
            (fun allocator ->
              check_round_trip
                (Fmt.str "%s %a %s" name Pimcomp.Mode.pp mode
                   (Pimcomp.Memalloc.strategy_name allocator))
                (compile ~mode ~allocator name))
            allocators)
        Pimcomp.Mode.all)
    Nnir.Zoo.names

let test_codec_paper_networks () =
  List.iter
    (fun name ->
      let g =
        Nnir.Zoo.build ~input_size:(Nnir.Zoo.scaled_input_size ~factor:4 name)
          name
      in
      List.iter
        (fun mode ->
          check_round_trip
            (Fmt.str "%s %a at factor 4" name Pimcomp.Mode.pp mode)
            (Pimcomp.Compile.compile ~options:(options ~mode ()) hw g)
              .Pimcomp.Compile.program)
        Pimcomp.Mode.all)
    Nnir.Zoo.paper_benchmarks

(* Programs no scheduler emits.  The codec stores any [Isa.t]; judging
   it is the verifier's job.  Their values round-trip; their activations,
   the test's own [Vact] values, come back as [Isa.vact]'s. *)
let test_codec_handmade () =
  let open Pimcomp.Isa in
  let sigmoid = Vact Nnir.Op.Sigmoid in
  let fresh_sigmoid () = Vact (Sys.opaque_identity Nnir.Op.Sigmoid) in
  let mvm ag xbars =
    Mvm
      {
        ag;
        windows = -3;
        xbars;
        input_bytes = max_int;
        output_bytes = min_int;
      }
  in
  let instr ?(deps = []) node_id op = { op; deps; node_id } in
  let memory =
    {
      local_peak_bytes = [| -1; max_int; 0 |];
      local_resident_peak_bytes = [||];
      spill_bytes = min_int;
      global_load_bytes = 0;
      global_store_bytes = -7;
    }
  in
  let program =
    {
      graph_name = "handmade";
      mode = Pimcomp.Mode.Low_latency;
      allocator = Pimcomp.Memalloc.Lifetime;
      core_count = 3;
      cores =
        [|
          [|
            (* an AG outside the table, above and below it; deps not
               below their index, negative and repeated *)
            instr ~deps:[ 4; -1 ] (-1) (mvm 5 7);
            instr ~deps:[ 0; 0; 1 ] min_int (mvm (-1) 2);
            instr max_int (mvm 1 2);
            instr ~deps:[ 2 ] 7 (Vec { kind = sigmoid; elements = -1 });
            instr 7 (Vec { kind = sigmoid; elements = -1 });
            instr 7 (Vec { kind = fresh_sigmoid (); elements = 0 });
            instr 8 (Vec { kind = Vact Nnir.Op.Tanh; elements = 3 });
            instr 7 (Vec { kind = sigmoid; elements = 0 });
            (* zero tags, twice, and tags that wrap *)
            instr (-1) (Send { dst = -2; bytes = 0; tag = 0 });
            instr (-1) (Send { dst = -2; bytes = 0; tag = 0 });
            instr 0 (Recv { src = 99; bytes = -5; tag = max_int });
            instr 0 (Recv { src = 99; bytes = -5; tag = min_int });
            instr 0 (Load { bytes = -1 });
            instr 0 (Store { bytes = 0 });
            instr 0 (Store { bytes = 0 });
          |];
          [||];
          [|
            instr 7 (Vec { kind = sigmoid; elements = 4 });
            instr ~deps:[ 1_000_000 ] 7 (Vec { kind = Vmove; elements = 0 });
          |];
        |];
      ag_core = [| 0; -1 |];
      ag_xbars = [| 4; 2 |];
      num_tags = 0;
      pipeline_depth = -1;
      memory;
      mem_trace =
        [|
          Alloc { core = -1; bytes = max_int; request = Fresh };
          Alloc { core = -1; bytes = max_int; request = Accumulator (-3) };
          Free { core = -1; bytes = max_int };
          Free_accumulator { core = 5; key = min_int };
          Free_ag_slot { core = 5; key = 0 };
          Alloc { core = 0; bytes = 0; request = Ag_slot max_int };
        |];
    }
  in
  check_round_trip ~image:false "hand-made program" program;
  check_round_trip ~image:false "empty program"
    {
      program with
      graph_name = "empty";
      core_count = 0;
      cores = [||];
      ag_core = [||];
      ag_xbars = [||];
      memory = { memory with local_peak_bytes = [||] };
      mem_trace = [||];
    }

(* Every activation is [Isa.vact]'s value for its kind: in a compiled
   program, and in what the .pimart and .isa readers make of its bytes.
   A scheduler or reader that allocates its own [Vact] fails here. *)
let test_codec_static_activations () =
  let seen = ref 0 in
  let static label (p : Pimcomp.Isa.t) =
    Array.iteri
      (fun c core ->
        Array.iteri
          (fun i (instr : Pimcomp.Isa.instr) ->
            match instr.op with
            | Vec { kind = Vact k as kind; _ } ->
                incr seen;
                if kind != Pimcomp.Isa.vact k then
                  Alcotest.failf "%s: core %d instr %d: a %s value of its own"
                    label c i
                    (Pimcomp.Isa.vec_kind_name kind)
            | _ -> ())
          core)
      p.cores
  in
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          let label = Fmt.str "%s %a" name Pimcomp.Mode.pp mode in
          let p = compile ~mode name in
          static label p;
          static (label ^ " .pimart")
            (Pimcomp.Artifact.of_string
               (Pimcomp.Artifact.to_string
                  (Pimcomp.Artifact.make ~key:dummy_key p)))
              .Pimcomp.Artifact.program;
          static (label ^ " .isa")
            (Pimcomp.Isa_text.of_string (Pimcomp.Isa_text.to_string p)))
        Pimcomp.Mode.all)
    Nnir.Zoo.names;
  Alcotest.(check bool) "activations checked" true (!seen > 0)

(* A container's first three header lines and its payload. *)
let split_container text =
  let line_end from = String.index_from text from '\n' + 1 in
  let head = line_end (line_end (line_end 0)) in
  let payload = line_end head in
  ( String.sub text 0 head,
    String.sub text payload (String.length text - payload) )

(* [payload] behind [head] and a payload line that matches it, so that
   the bytes pass every container check and reach the decoder. *)
let repack head payload =
  String.concat ""
    [
      head;
      Fmt.str "payload %d %s\n" (String.length payload)
        (Digest.to_hex (Digest.string payload));
      payload;
    ]

let decodes_or_corrupt text =
  match Pimcomp.Artifact.of_string text with
  | _ -> true
  | exception Pimcomp.Artifact.Corrupt _ -> true

(* Random bytes, and real payloads cut (0), with a byte flipped (1),
   with a byte inserted (2) or with a random tail after a prefix (3),
   each behind a header whose length and MD5 match, so that every case
   reaches the decoder. *)
let test_codec_total =
  let samples =
    lazy
      (Array.of_list
         (List.concat_map
            (fun name ->
              List.map
                (fun mode ->
                  split_container
                    (Pimcomp.Artifact.to_string
                       (Pimcomp.Artifact.make ~key:dummy_key
                          (compile ~mode name))))
                Pimcomp.Mode.all)
            [ "tiny"; "mlp"; "lenet" ]))
  in
  let mutate (sample, kind, at, byte) =
    let samples = Lazy.force samples in
    let head, payload = samples.(sample mod Array.length samples) in
    let n = String.length payload in
    let at = at mod (n + 1) in
    let payload =
      match kind with
      | 0 -> String.sub payload 0 at
      | 1 when at < n ->
          String.mapi
            (fun i x ->
              if i = at then Char.chr (Char.code x lxor max 1 byte) else x)
            payload
      | 2 ->
          String.sub payload 0 at ^ String.make 1 (Char.chr byte)
          ^ String.sub payload at (n - at)
      | _ ->
          String.sub payload 0 at
          ^ String.init (byte mod 16) (fun i ->
                Char.chr ((byte * (i + 7)) land 0xff))
    in
    (head, payload)
  in
  QCheck.Test.make ~count:3000
    ~name:"any payload decodes to a program or raises Corrupt"
    QCheck.(
      pair string
        (quad (int_bound 1000) (int_bound 3) (int_bound 1_000_000)
           (int_bound 255)))
    (fun (random, m) ->
      let head, payload = mutate m in
      decodes_or_corrupt (repack head random)
      && decodes_or_corrupt (repack head payload))

let test_codec_truncations () =
  List.iter
    (fun name ->
      let head, payload =
        split_container
          (Pimcomp.Artifact.to_string
             (Pimcomp.Artifact.make ~key:dummy_key
                (compile ~mode:Pimcomp.Mode.High_throughput name)))
      in
      let n = String.length payload in
      let cuts =
        List.init (min 256 n) Fun.id
        @ List.init (min 256 n) (fun i -> n - 1 - i)
        @ List.init 64 (fun i -> 256 + (i * (n - 512) / 64))
        |> List.filter (fun k -> k >= 0 && k < n)
      in
      List.iter
        (fun k ->
          match
            Pimcomp.Artifact.of_string (repack head (String.sub payload 0 k))
          with
          | _ -> Alcotest.failf "%s: payload cut at %d of %d decoded" name k n
          | exception Pimcomp.Artifact.Corrupt _ -> ())
        cuts)
    Nnir.Zoo.names

(* The cache key a program was served under. *)
let key_of (s : Pimcomp.Compile.served) =
  match s.origin with
  | Cache_miss { key; _ } | Cache_hit { key; _ } -> key
  | Cache_off _ -> Alcotest.fail "served with the cache off"

(* An entry written under an older artifact version (version 2 held a
   Marshal image, version 3 could share an activation value by VEC code
   9) is rejected once, counted, and recompiled. *)
let test_codec_old_version () =
  List.iter
    (fun header ->
      let dir = scratch () in
      let cache = Pimcomp.Cache.open_dir dir in
      let g = graph "tiny" in
      let options = options () in
      let serve () = Pimcomp.Compile.compile_program ~options ~cache hw g in
      let path = Filename.concat dir (key_of (serve ()) ^ ".pimart") in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let header_end = String.index text '\n' in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc header;
          output_string oc
            (String.sub text header_end (String.length text - header_end)));
      let outcomes =
        List.map
          (fun () ->
            Pimcomp.Compile.outcome_name (serve ()).Pimcomp.Compile.origin)
          [ (); () ]
      in
      Alcotest.(check (list string))
        (header ^ ": recompiled, then served")
        [ "miss"; "hit" ] outcomes;
      Alcotest.(check int) (header ^ ": rejected once") 1
        (Pimcomp.Cache.stats cache).Pimcomp.Cache.rejected;
      ignore (Pimcomp.Cache.clear cache))
    [ "pimart 2"; "pimart 3" ]

(* Version 4 has no VEC code 9 (version 3's "the last activation value
   of this node"): behind a valid header and MD5, a code 9 after an
   activation of the same node is corrupt, where the same payload with
   code 3 (vrelu) decodes. *)
let test_codec_code9_rejected () =
  let head, _ =
    split_container
      (Pimcomp.Artifact.to_string
         (Pimcomp.Artifact.make ~key:dummy_key (compile "tiny")))
  in
  (* name "tiny", LL, AG-reuse, one core, no tags, depth 1, empty AG
     tables; one core of two VECs on node 5, without deps: vrelu of 4
     elements, then [code] with the elements repeated; empty peak
     tables, no spill or global traffic, no trace events *)
  let payload code =
    "\x04tiny" ^ "\x01\x02" ^ "\x01\x00\x01" ^ "\x00\x00" ^ "\x01\x02"
    ^ "\x19\x0a\x00\x04"
    ^ String.make 1 (Char.chr (0x81 lor (code lsl 3)))
    ^ "\x00\x00" ^ String.make 6 '\x00'
  in
  (match
     (Pimcomp.Artifact.of_string (repack head (payload 3)))
       .Pimcomp.Artifact.program
       .cores
   with
  | [| [| _; { op = Vec { kind; elements = 4 }; deps = []; node_id = 5 } |] |]
    when kind == Pimcomp.Isa.vact Nnir.Op.Relu ->
      ()
  | _ -> Alcotest.fail "code 3 decodes to a different program"
  | exception Pimcomp.Artifact.Corrupt m -> Alcotest.failf "code 3: %s" m);
  match Pimcomp.Artifact.of_string (repack head (payload 9)) with
  | _ -> Alcotest.fail "VEC code 9 decoded"
  | exception Pimcomp.Artifact.Corrupt _ -> ()

(* A count is checked against the bytes left before anything of that
   size is allocated. *)
let test_codec_huge_length () =
  let uint n =
    let b = Buffer.create 9 in
    let n = ref n in
    while !n lsr 7 <> 0 do
      Buffer.add_char b (Char.chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char b (Char.chr !n);
    Buffer.contents b
  in
  let head, _ =
    split_container
      (Pimcomp.Artifact.to_string
         (Pimcomp.Artifact.make ~key:dummy_key (compile "tiny")))
  in
  (* name "tiny", HT, naive, core count 1, 0 tags, depth 0, then the AG
     core table's length *)
  let payload =
    uint 4 ^ "tiny" ^ "\x00\x00\x01\x00\x00" ^ uint (1 lsl 40)
    ^ String.make 16 '\x00'
  in
  let before = Gc.minor_words () in
  (match Pimcomp.Artifact.of_string (repack head payload) with
  | _ -> Alcotest.fail "a 2^40-element table decoded"
  | exception Pimcomp.Artifact.Corrupt _ -> ());
  Alcotest.(check bool) "nothing of that size allocated" true
    (Gc.minor_words () -. before < 100_000.)

(* --- canonical digest ------------------------------------------------------- *)

let test_digest_order_independent () =
  let fields =
    [ ("graph", "tiny"); ("mode", "LL"); ("seed", "42"); ("hw.rows", "128") ]
  in
  let d = Pimcomp.Cache.digest_fields fields in
  Alcotest.(check string) "reversed field order" d
    (Pimcomp.Cache.digest_fields (List.rev fields));
  Alcotest.(check string) "shuffled field order" d
    (Pimcomp.Cache.digest_fields
       [ ("seed", "42"); ("hw.rows", "128"); ("graph", "tiny"); ("mode", "LL") ])

let test_digest_injective_rendering () =
  (* Naive "k=v;" concatenation would alias these pairs; the
     length-prefixed rendering must not. *)
  let d1 = Pimcomp.Cache.digest_fields [ ("a", "b=c") ] in
  let d2 = Pimcomp.Cache.digest_fields [ ("a=b", "c") ] in
  Alcotest.(check bool) "boundary moves change the digest" true (d1 <> d2);
  let d3 = Pimcomp.Cache.digest_fields [ ("a", "b;c") ] in
  let d4 = Pimcomp.Cache.digest_fields [ ("a", "b"); ("c", "") ] in
  Alcotest.(check bool) "separator bytes in values" true (d3 <> d4)

let test_cache_key_sensitivity () =
  let g = graph "tiny" in
  let base = options () in
  let key o = Pimcomp.Compile.cache_key ~options:o hw g in
  let k0 = key base in
  Alcotest.(check string) "deterministic" k0 (key base);
  (* Program-invariant fields must not move the key. *)
  Alcotest.(check string) "verify flag excluded" k0
    (key { base with Pimcomp.Compile.verify = false });
  (* Semantically relevant fields must. *)
  let differs label o =
    Alcotest.(check bool) label true (key o <> k0)
  in
  differs "seed" { base with Pimcomp.Compile.seed = 8 };
  differs "mode" { base with Pimcomp.Compile.mode = Pimcomp.Mode.High_throughput };
  differs "parallelism" { base with Pimcomp.Compile.parallelism = 4 };
  differs "allocator"
    { base with Pimcomp.Compile.allocator = Pimcomp.Memalloc.Naive };
  differs "strategy" { base with Pimcomp.Compile.strategy = fast_ga };
  (* Different graph, different hardware. *)
  Alcotest.(check bool) "graph" true
    (Pimcomp.Compile.cache_key ~options:base hw (graph "mlp") <> k0);
  Alcotest.(check bool) "hardware" true
    (Pimcomp.Compile.cache_key ~options:base
       { hw with Pimhw.Config.xbar_rows = hw.Pimhw.Config.xbar_rows * 2 }
       g
    <> k0)

(* The MAC that records a verified entry: HMAC-MD5 (RFC 2104), checked
   against the seven HMAC-MD5 cases of RFC 2202, which cover short and
   block-sized keys, binary data and keys longer than a block. *)
let test_hmac_md5_rfc2202 () =
  List.iteri
    (fun i (key, data, expected) ->
      Alcotest.(check string)
        (Fmt.str "RFC 2202 case %d" (i + 1))
        expected
        (Pimcomp.Cache.hmac_md5 ~key data))
    [
      (String.make 16 '\x0b', "Hi There", "9294727a3638bb1c13f48ef8158bfc9d");
      ( "Jefe",
        "what do ya want for nothing?",
        "750c783e6ab0b503eaa86e310a5db738" );
      ( String.make 16 '\xaa',
        String.make 50 '\xdd',
        "56be34521d144c88dbb8c733f0e8b3f6" );
      ( String.init 25 (fun i -> Char.chr (i + 1)),
        String.make 50 '\xcd',
        "697eaf0aca3a3aea3a75164746ffaa79" );
      ( String.make 16 '\x0c',
        "Test With Truncation",
        "56461ef2342edc00f9bab995690efd4c" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key and Larger Than One \
         Block-Size Data",
        "6f630fad67cda0ee1fb1f562db3aa53e" );
    ]

(* --- cache behaviour -------------------------------------------------------- *)

let test_cold_warm_evict () =
  let dir = scratch () in
  let opts = options () in
  let g = graph "tiny" in
  (* Each request opens the directory afresh, so the hit below comes
     from disk. *)
  let request () =
    Pimcomp.Compile.compile_program ~options:opts
      ~cache:(Pimcomp.Cache.open_dir dir) hw g
  in
  (* Cold: full compile, stored. *)
  let cold = request () in
  Alcotest.(check string) "first request misses" "miss"
    (Pimcomp.Compile.outcome_name cold.Pimcomp.Compile.origin);
  Alcotest.(check bool) "miss carries the full record" true
    (match cold.Pimcomp.Compile.origin with
    | Cache_miss { result; _ } ->
        result.Pimcomp.Compile.program
        == Lazy.force cold.Pimcomp.Compile.program
    | Cache_off _ | Cache_hit _ -> false);
  (* Warm: loaded, verified, bit-identical. *)
  let warm = request () in
  Alcotest.(check string) "second request hits" "hit"
    (Pimcomp.Compile.outcome_name warm.Pimcomp.Compile.origin);
  Alcotest.(check bool) "hit program bit-identical to the fresh compile"
    true
    (Lazy.force warm.Pimcomp.Compile.program
    = Lazy.force cold.Pimcomp.Compile.program);
  Alcotest.(check string) "hit and miss agree on the key" (key_of cold)
    (key_of warm);
  (* Recalled: one shared handle verifies the entry on its first request
     and answers the second from its record, decoding on demand. *)
  let shared = Pimcomp.Cache.open_dir dir in
  let request () =
    Pimcomp.Compile.compile_program ~options:opts ~cache:shared hw g
  in
  ignore (request ());
  let recalled = request () in
  Alcotest.(check string) "recalled request hits" "hit"
    (Pimcomp.Compile.outcome_name recalled.Pimcomp.Compile.origin);
  Alcotest.(check int) "answered from the record" 1
    (Pimcomp.Cache.stats shared).Pimcomp.Cache.recalled;
  let program = Lazy.force recalled.Pimcomp.Compile.program in
  Alcotest.(check bool) "recalled summary matches the forced program" true
    (recalled.Pimcomp.Compile.summary = Pimcomp.Cache.summary program);
  Alcotest.(check bool) "recalled program bit-identical to the fresh compile"
    true
    (program = Lazy.force cold.Pimcomp.Compile.program);
  (* Eviction: a 1-byte budget keeps only the newest entry. *)
  let cache = Pimcomp.Cache.open_dir ~max_bytes:1 dir in
  let mlp = compile "mlp" in
  let mlp_key =
    Pimcomp.Compile.cache_key ~options:(options ()) hw (graph "mlp")
  in
  Pimcomp.Cache.store cache ~key:mlp_key mlp;
  let stats = Pimcomp.Cache.stats cache in
  Alcotest.(check int) "older entry evicted" 1 stats.Pimcomp.Cache.entries;
  Alcotest.(check bool) "eviction counted" true
    (stats.Pimcomp.Cache.evictions >= 1);
  Alcotest.(check bool) "newest entry survives and serves" true
    (Pimcomp.Cache.find cache ~key:mlp_key ~graph:(graph "mlp") ~config:hw ()
    <> None);
  Alcotest.(check int) "clear removes the survivor" 1
    (Pimcomp.Cache.clear cache)

(* [found_first]: the handle has found (verified and recorded) the entry
   before the bit flip, so the flipped bytes must fail the record's MAC
   and be checked again. *)
let poisoned_entry_rejected ~found_first =
  let dir = scratch () in
  let cache = Pimcomp.Cache.open_dir dir in
  let g = graph "tiny" in
  let opts = options () in
  let key = Pimcomp.Compile.cache_key ~options:opts hw g in
  let program = compile "tiny" in
  let label = Fmt.str "%s (found first: %b)" in
  Pimcomp.Cache.store cache ~key program;
  let path = Filename.concat dir (key ^ ".pimart") in
  Alcotest.(check bool) (label "entry on disk" found_first) true
    (Sys.file_exists path);
  if found_first then
    Alcotest.(check bool) (label "clean entry served" found_first) true
      (Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () = Some program);
  (* Poison the stored artifact with a single bit flip near the end of
     the marshalled payload. *)
  let text = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string text in
  let i = Bytes.length b - 7 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  (match Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () with
  | Some _ -> Alcotest.fail "poisoned entry must never be served"
  | None -> ());
  let stats = Pimcomp.Cache.stats cache in
  Alcotest.(check int) (label "rejection counted" found_first) 1
    stats.Pimcomp.Cache.rejected;
  Alcotest.(check int) (label "rejection is a miss" found_first) 1
    stats.Pimcomp.Cache.misses;
  Alcotest.(check bool)
    (label "poisoned file deleted (self-healing)" found_first)
    false (Sys.file_exists path);
  (* The cache heals: a recompile stores a clean entry, served again. *)
  Pimcomp.Cache.store cache ~key program;
  (match Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () with
  | Some loaded ->
      Alcotest.(check bool) (label "healed entry bit-identical" found_first)
        true (loaded = program)
  | None -> Alcotest.fail "healed entry must serve");
  ignore (Pimcomp.Cache.clear cache)

let test_poisoned_entry_rejected () =
  poisoned_entry_rejected ~found_first:false;
  poisoned_entry_rejected ~found_first:true

let test_verified_once_per_handle () =
  let dir = scratch () in
  let cache = Pimcomp.Cache.open_dir dir in
  let g = graph "tiny" in
  let key = Pimcomp.Compile.cache_key ~options:(options ()) hw g in
  let program = compile "tiny" in
  Pimcomp.Cache.store cache ~key program;
  let find cache i =
    match Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () with
    | Some loaded ->
        Alcotest.(check bool)
          (Fmt.str "find %d returns the stored program" i)
          true (loaded = program)
    | None -> Alcotest.failf "find %d missed" i
  in
  List.iter (find cache) [ 1; 2; 3 ];
  let stats = Pimcomp.Cache.stats cache in
  Alcotest.(check int) "three hits" 3 stats.Pimcomp.Cache.hits;
  Alcotest.(check int) "the first verifies, the other two are recalled" 2
    stats.Pimcomp.Cache.recalled;
  (* The record belongs to the handle: a second one verifies again. *)
  let other = Pimcomp.Cache.open_dir dir in
  find other 4;
  let stats = Pimcomp.Cache.stats other in
  Alcotest.(check int) "second handle hits" 1 stats.Pimcomp.Cache.hits;
  Alcotest.(check int) "second handle's first find is not recalled" 0
    stats.Pimcomp.Cache.recalled;
  ignore (Pimcomp.Cache.clear cache)

(* A valid container under a recorded key, with different bytes: the
   record must not vouch for it.  A memory report one byte off is a
   memory-drift violation, so the entry fails the verifier. *)
let test_changed_bytes_verified_again () =
  let dir = scratch () in
  let cache = Pimcomp.Cache.open_dir dir in
  let g = graph "tiny" in
  let key = Pimcomp.Compile.cache_key ~options:(options ()) hw g in
  let program = compile "tiny" in
  Pimcomp.Cache.store cache ~key program;
  Alcotest.(check bool) "clean entry served and recorded" true
    (Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () = Some program);
  let memory = program.Pimcomp.Isa.memory in
  let drifted =
    {
      program with
      Pimcomp.Isa.memory =
        {
          memory with
          Pimcomp.Isa.global_load_bytes =
            memory.Pimcomp.Isa.global_load_bytes + 1;
        };
    }
  in
  Pimcomp.Cache.store cache ~key drifted;
  (match Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () with
  | Some _ -> Alcotest.fail "changed bytes must be verified, not recalled"
  | None -> ());
  let stats = Pimcomp.Cache.stats cache in
  Alcotest.(check int) "rejection counted" 1 stats.Pimcomp.Cache.rejected;
  Alcotest.(check int) "nothing recalled" 0 stats.Pimcomp.Cache.recalled;
  Alcotest.(check bool) "rejected file deleted" false
    (Sys.file_exists (Filename.concat dir (key ^ ".pimart")));
  ignore (Pimcomp.Cache.clear cache)

let test_wrong_key_rejected () =
  let dir = scratch () in
  let cache = Pimcomp.Cache.open_dir dir in
  let g = graph "tiny" in
  let program = compile "tiny" in
  let key = Pimcomp.Compile.cache_key ~options:(options ()) hw g in
  (* An artifact whose internal key disagrees with its file name (e.g. a
     renamed or hand-copied entry) must be rejected. *)
  Pimcomp.Artifact.to_file
    (Filename.concat dir (key ^ ".pimart"))
    (Pimcomp.Artifact.make ~key:dummy_key program);
  (match Pimcomp.Cache.find cache ~key ~graph:g ~config:hw () with
  | Some _ -> Alcotest.fail "key mismatch must be rejected"
  | None -> ());
  Alcotest.(check int) "rejection counted" 1
    (Pimcomp.Cache.stats cache).Pimcomp.Cache.rejected;
  ignore (Pimcomp.Cache.clear cache)

(* --- simulation record -------------------------------------------------------- *)

(* Bit for bit: Marshal writes every float's 8 bytes. *)
let bits (r : Pimsim.Simulate.result) = Marshal.to_string r [ Marshal.No_sharing ]

let fresh ~batches program =
  if batches = 1 then
    Pimsim.Simulate.Single (Pimsim.Engine.run ~parallelism:20 hw program)
  else
    Pimsim.Simulate.Stream
      (Pimsim.Batch.run_stream ~parallelism:20 hw program ~batches)

let check_counts label ~simulated ~recalled sims =
  let c = Pimsim.Simulate.counts sims in
  Alcotest.(check (pair int int))
    (label ^ ": (simulated, recalled)")
    (simulated, recalled)
    (c.Pimsim.Simulate.simulated, c.Pimsim.Simulate.recalled)

(* A handle, a record and the request [opts] on [name], served through
   the cache: the first request misses and stores. *)
let sim_setup ?(mode = Pimcomp.Mode.High_throughput) name =
  let dir = scratch () in
  let cache = Pimcomp.Cache.open_dir dir in
  let opts = options ~mode () in
  let g = graph name in
  let serve () = Pimcomp.Compile.compile_program ~options:opts ~cache hw g in
  let program = Lazy.force (serve ()).Pimcomp.Compile.program in
  (dir, cache, Pimsim.Simulate.record (), serve, program)

let simulate sims ~batches served =
  Pimsim.Simulate.served sims ~parallelism:20 ~batches hw served

let test_sim_recalled_bit_identical () =
  let _, cache, sims, serve, program = sim_setup "lenet" in
  List.iter
    (fun batches ->
      let label = Fmt.str "batches %d" batches in
      let first = simulate sims ~batches (serve ()) in
      let served = serve () in
      let again = simulate sims ~batches served in
      Alcotest.(check bool)
        (label ^ ": recalled without decoding the program")
        false
        (Lazy.is_val served.Pimcomp.Compile.program);
      Alcotest.(check bool)
        (label ^ ": first answer equals a fresh run")
        true
        (bits first = bits (fresh ~batches program));
      Alcotest.(check bool)
        (label ^ ": recalled answer equals a fresh run")
        true
        (bits again = bits (fresh ~batches program)))
    [ 1; 64 ];
  check_counts "one run per batch count" ~simulated:2 ~recalled:2 sims;
  ignore (Pimcomp.Cache.clear cache)

(* A miss and a cache-off request carry no MAC: their runs are not
   recorded, so the next hit runs the engine. *)
let test_sim_miss_records_nothing () =
  let _, cache, sims, serve, program = sim_setup "tiny" in
  ignore (Pimcomp.Cache.clear cache);
  let miss = serve () in
  Alcotest.(check string) "the request misses" "miss"
    (Pimcomp.Compile.outcome_name miss.Pimcomp.Compile.origin);
  ignore (simulate sims ~batches:1 miss);
  let off =
    Pimcomp.Compile.compile_program ~options:(options ()) hw (graph "tiny")
  in
  ignore (simulate sims ~batches:1 off);
  ignore (simulate sims ~batches:1 off);
  check_counts "miss and cache-off runs" ~simulated:3 ~recalled:0 sims;
  Alcotest.(check bool) "the hit after the miss runs the engine" true
    (bits (simulate sims ~batches:1 (serve ())) = bits (fresh ~batches:1 program));
  check_counts "first hit" ~simulated:4 ~recalled:0 sims;
  ignore (Pimcomp.Cache.clear cache)

(* A different valid program under a recorded key: the other mode's
   program for the same network passes the verifier, so it is served,
   and the record must not answer for it. *)
let test_sim_changed_bytes_simulated_again () =
  let dir, cache, sims, serve, ll = sim_setup ~mode:Pimcomp.Mode.Low_latency "tiny" in
  let ht = compile ~mode:Pimcomp.Mode.High_throughput "tiny" in
  let before = simulate sims ~batches:1 (serve ()) in
  ignore (simulate sims ~batches:1 (serve ()));
  check_counts "recorded" ~simulated:1 ~recalled:1 sims;
  let key = key_of (serve ()) in
  Pimcomp.Artifact.to_file
    (Filename.concat dir (key ^ ".pimart"))
    (Pimcomp.Artifact.make ~key ht);
  let planted = serve () in
  Alcotest.(check bool) "the planted program is served" true
    (Pimcomp.Compile.outcome_name planted.Pimcomp.Compile.origin = "hit"
    && Lazy.force planted.Pimcomp.Compile.program = ht);
  let after = simulate sims ~batches:1 planted in
  check_counts "new bytes run the engine" ~simulated:2 ~recalled:1 sims;
  Alcotest.(check bool) "the two programs simulate differently" true
    (bits (fresh ~batches:1 ll) <> bits (fresh ~batches:1 ht));
  Alcotest.(check bool) "before: the first program's run" true
    (bits before = bits (fresh ~batches:1 ll));
  Alcotest.(check bool) "after: the planted program's run" true
    (bits after = bits (fresh ~batches:1 ht));
  Alcotest.(check bool) "the planted program's run is recalled" true
    (bits (simulate sims ~batches:1 (serve ())) = bits after);
  check_counts "recalled after the change" ~simulated:2 ~recalled:2 sims;
  ignore (Pimcomp.Cache.clear cache)

(* One single-inference and one stream result per key: batches 1 and 4
   are kept apart, and batches 8 replaces the stream result of 4. *)
let test_sim_batch_counts_kept_apart () =
  let _, cache, sims, serve, program = sim_setup "tiny" in
  let expect (batches, simulated, recalled) =
    let label = Fmt.str "batches %d" batches in
    Alcotest.(check bool) (label ^ " equals a fresh run") true
      (bits (simulate sims ~batches (serve ()))
      = bits (fresh ~batches program));
    check_counts label ~simulated ~recalled sims
  in
  List.iter expect
    [
      (1, 1, 0);
      (4, 2, 0);
      (1, 2, 1);
      (4, 2, 2);
      (8, 3, 2);
      (8, 3, 3);
      (4, 4, 3);
      (1, 4, 4);
    ];
  ignore (Pimcomp.Cache.clear cache)

(* Requests on two domains share the handle and the record; their
   answers equal the fresh sequential runs, whichever domain ran the
   engine and whichever recalled. *)
let test_sim_record_across_domains () =
  let _, cache, sims, serve, program = sim_setup "tiny" in
  let jobs = [| 1; 4; 1; 4; 1; 4 |] in
  let sequential = Array.map (fun batches -> bits (fresh ~batches program)) jobs in
  for round = 1 to 3 do
    let parallel =
      Pimutil.Domain_pool.map ~domains:2
        (fun batches -> bits (simulate sims ~batches (serve ())))
        jobs
    in
    Alcotest.(check (array string))
      (Fmt.str "round %d equals the sequential runs" round)
      sequential parallel
  done;
  let c = Pimsim.Simulate.counts sims in
  Alcotest.(check int) "every request counted once" 18
    (c.Pimsim.Simulate.simulated + c.Pimsim.Simulate.recalled);
  Alcotest.(check bool) "later rounds recalled" true
    (c.Pimsim.Simulate.recalled >= 12);
  ignore (Pimcomp.Cache.clear cache)

(* --- atomic writer ---------------------------------------------------------- *)

exception Writer_died

let test_atomic_write_crash_safety () =
  let dir = scratch () in
  let path = Filename.concat dir "out.txt" in
  Pimutil.Atomic_io.write_text path "first version\n";
  Alcotest.(check string) "initial write lands" "first version\n"
    (In_channel.with_open_bin path In_channel.input_all);
  (* A writer that dies mid-stream must leave the target untouched and
     no temp file behind. *)
  (match
     Pimutil.Atomic_io.write_file path (fun oc ->
         output_string oc "torn half-writ";
         raise Writer_died)
   with
  | _ -> Alcotest.fail "writer exception must re-raise"
  | exception Writer_died -> ());
  Alcotest.(check string) "target untouched after crash" "first version\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check (list string)) "no temp files left" []
    (Array.to_list (Sys.readdir dir)
    |> List.filter Pimutil.Atomic_io.is_temp_file);
  Sys.remove path

let () =
  Alcotest.run "cache"
    [
      ( "artifact",
        [
          Alcotest.test_case "zoo round-trips" `Quick
            test_artifact_roundtrip_zoo;
          QCheck_alcotest.to_alcotest test_artifact_roundtrip_random;
          Alcotest.test_case "corruption rejected" `Quick
            test_artifact_rejects_corruption;
          Alcotest.test_case "key validation" `Quick
            test_artifact_key_validation;
        ] );
      ( "codec",
        [
          Alcotest.test_case "zoo x modes x allocators round-trip" `Quick
            test_codec_zoo;
          Alcotest.test_case "paper networks at factor 4 round-trip" `Quick
            test_codec_paper_networks;
          Alcotest.test_case "hand-made programs round-trip" `Quick
            test_codec_handmade;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
            test_codec_total;
          Alcotest.test_case "truncated payloads rejected" `Quick
            test_codec_truncations;
          Alcotest.test_case "2^40-element length rejected" `Quick
            test_codec_huge_length;
          Alcotest.test_case "version-2 entry rejected once" `Quick
            test_codec_old_version;
          Alcotest.test_case "activations are static values" `Quick
            test_codec_static_activations;
          Alcotest.test_case "VEC code 9 rejected" `Quick
            test_codec_code9_rejected;
        ] );
      ( "digest",
        [
          Alcotest.test_case "order independent" `Quick
            test_digest_order_independent;
          Alcotest.test_case "injective rendering" `Quick
            test_digest_injective_rendering;
          Alcotest.test_case "cache-key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "HMAC-MD5 matches RFC 2202" `Quick
            test_hmac_md5_rfc2202;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold, warm, evict" `Quick test_cold_warm_evict;
          Alcotest.test_case "poisoned entry rejected" `Quick
            test_poisoned_entry_rejected;
          Alcotest.test_case "wrong key rejected" `Quick
            test_wrong_key_rejected;
          Alcotest.test_case "verified once per handle" `Quick
            test_verified_once_per_handle;
          Alcotest.test_case "changed bytes are verified again" `Quick
            test_changed_bytes_verified_again;
        ] );
      ( "sim-record",
        [
          Alcotest.test_case "recalled run is bit-identical" `Quick
            test_sim_recalled_bit_identical;
          Alcotest.test_case "misses and cache-off record nothing" `Quick
            test_sim_miss_records_nothing;
          Alcotest.test_case "changed bytes are simulated again" `Quick
            test_sim_changed_bytes_simulated_again;
          Alcotest.test_case "batch counts kept apart" `Quick
            test_sim_batch_counts_kept_apart;
          Alcotest.test_case "shared across domains" `Quick
            test_sim_record_across_domains;
        ] );
      ( "atomic-io",
        [
          Alcotest.test_case "crash safety" `Quick
            test_atomic_write_crash_safety;
        ] );
    ]
