(* Serialised compile artifacts — the on-disk unit of the compile cache.

   A container wraps the compiled {!Isa.t} with the cache key it was
   compiled under and an MD5 over the payload bytes:

     pimart 1
     key <32 hex chars>
     graph <name>
     payload <byte count> <32 hex chars>
     <payload bytes>

   The payload is the OCaml Marshal encoding of the program: parsing
   the textual .isa dump costs a large fraction of a fresh compile on
   the big low-latency streams, which would defeat the cache, while
   unmarshalling is an order of magnitude cheaper.  Marshal is unsafe
   on corrupted input (it trusts its framing), so [of_string] checks
   the length and MD5 *before* the bytes reach [Marshal.from_string] —
   a torn or bit-flipped entry fails the checksum and is reported as
   {!Corrupt}, never fed to the unmarshaller.  Semantic trust is
   layered above: {!Cache} re-verifies every loaded program with
   {!Verify} ("a cache hit is indistinguishable from a fresh compile").

   Like every published file in the toolchain, [to_file] goes through
   {!Pimutil.Atomic_io}, so a crashed writer cannot leave a torn entry
   behind. *)

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

type t = { key : string; program : Isa.t }

let magic = "pimart"
let version = 2 (* v2: Isa.t memory report gained local_resident_peak_bytes *)

let is_hex s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let make ~key program =
  if not (is_hex key) then
    invalid_arg "Artifact.make: key must be 32 lowercase hex chars";
  { key; program }

let to_string t =
  let payload = Marshal.to_string t.program [] in
  let buf = Buffer.create (String.length payload + 128) in
  Buffer.add_string buf (Fmt.str "%s %d\n" magic version);
  Buffer.add_string buf (Fmt.str "key %s\n" t.key);
  Buffer.add_string buf (Fmt.str "graph %s\n" t.program.Isa.graph_name);
  Buffer.add_string buf
    (Fmt.str "payload %d %s\n" (String.length payload)
       (Digest.to_hex (Digest.string payload)));
  Buffer.add_string buf payload;
  Buffer.contents buf

(* [line_end text from] — index of the next '\n'; headers are tiny, the
   payload after them is raw bytes and is never scanned. *)
let split_line text from =
  match String.index_from_opt text from '\n' with
  | Some i -> (String.sub text from (i - from), i + 1)
  | None -> corrupt "truncated header"

(* The container check — magic, version, key, graph and payload lines,
   payload length and MD5 — without the unmarshal: the key, the graph
   name and the payload bytes. *)
let open_container text =
  let header, pos = split_line text 0 in
  (match String.split_on_char ' ' header with
  | [ m; v ] when m = magic ->
      if v <> string_of_int version then
        corrupt "unsupported artifact version %s" v
  | _ -> corrupt "not a pimart container");
  let key_line, pos = split_line text pos in
  let key =
    match String.split_on_char ' ' key_line with
    | [ "key"; k ] when is_hex k -> k
    | _ -> corrupt "malformed key line"
  in
  let graph_line, pos = split_line text pos in
  let graph_name =
    match String.split_on_char ' ' graph_line with
    | [ "graph"; g ] -> g
    | _ -> corrupt "malformed graph line"
  in
  let payload_line, pos = split_line text pos in
  let bytes, md5 =
    match String.split_on_char ' ' payload_line with
    | [ "payload"; b; m ] when is_hex m -> (
        match int_of_string_opt b with
        | Some b when b >= 0 -> (b, m)
        | _ -> corrupt "malformed payload byte count")
    | _ -> corrupt "malformed payload line"
  in
  if String.length text - pos <> bytes then
    corrupt "payload is %d bytes, header declares %d"
      (String.length text - pos) bytes;
  let payload = String.sub text pos bytes in
  let actual = Digest.to_hex (Digest.string payload) in
  if actual <> md5 then
    corrupt "payload checksum mismatch (%s, expected %s)" actual md5;
  (key, graph_name, payload)

let of_string text =
  let key, graph_name, payload = open_container text in
  let program : Isa.t =
    (* The checksum passed, so these are exactly the bytes [to_string]
       marshalled; unmarshalling is now safe. *)
    try Marshal.from_string payload 0
    with Failure m -> corrupt "unmarshal failed: %s" m
  in
  if program.Isa.graph_name <> graph_name then
    corrupt "graph name %S disagrees with header %S" program.Isa.graph_name
      graph_name;
  { key; program }

let to_file path t = Pimutil.Atomic_io.write_text path (to_string t)

let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> corrupt "unreadable artifact: %s" m

let of_file path = of_string (read path)

let graph_name_of_file path =
  let _, graph_name, _ = open_container (read path) in
  graph_name
