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
   layered above: each {!Cache} handle verifies a program with {!Verify}
   on its first load of the entry ("a cache hit is indistinguishable
   from a fresh compile").

   One header parser ([open_at]) serves every reader.  The payload is
   checksummed and unmarshalled at its offset in the bytes read, never
   copied out; the cache reads a file into a buffer that begins with
   its MAC's inner pad ([open_file ~pad]).

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

(* [split_line text from] — the line at [from] and the index after its
   '\n'; headers are tiny, the payload after them is raw bytes and is
   never scanned. *)
let split_line text from =
  match String.index_from_opt text from '\n' with
  | Some i -> (String.sub text from (i - from), i + 1)
  | None -> corrupt "truncated header"

(* A container that ends [text] (after the caller's pad, if any), its
   header checked: the payload is the [len] bytes at [pos], the rest of
   [text], with MD5 [md5].  Neither hashed nor decoded yet. *)
type opened = {
  text : string;
  key : string;
  graph_name : string;
  pos : int;
  len : int;
  md5 : string;
}

(* The one header parser: magic, version, key, graph and payload lines,
   and the payload length. *)
let open_at text start =
  let header, pos = split_line text start in
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
  let len, md5 =
    match String.split_on_char ' ' payload_line with
    | [ "payload"; b; m ] when is_hex m -> (
        match int_of_string_opt b with
        | Some b when b >= 0 -> (b, m)
        | _ -> corrupt "malformed payload byte count")
    | _ -> corrupt "malformed payload line"
  in
  if String.length text - pos <> len then
    corrupt "payload is %d bytes, header declares %d"
      (String.length text - pos) len;
  { text; key; graph_name; pos; len; md5 }

let key o = o.key
let bytes o = o.text

let check_payload o =
  let actual = Digest.to_hex (Digest.substring o.text o.pos o.len) in
  if actual <> o.md5 then
    corrupt "payload checksum mismatch (%s, expected %s)" actual o.md5

let decode o =
  let program : Isa.t =
    try Marshal.from_string o.text o.pos
    with Failure m -> corrupt "unmarshal failed: %s" m
  in
  if program.Isa.graph_name <> o.graph_name then
    corrupt "graph name %S disagrees with header %S" program.Isa.graph_name
      o.graph_name;
  program

let load o =
  (* Once the checksum passes, these are exactly the bytes [to_string]
     marshalled; unmarshalling is now safe. *)
  check_payload o;
  decode o

let of_string text =
  let o = open_at text 0 in
  { key = o.key; program = load o }

let to_file path t = Pimutil.Atomic_io.write_text path (to_string t)

(* The file's bytes after [pad], in one buffer that is never copied. *)
let read ~pad path =
  try
    In_channel.with_open_bin path (fun ic ->
        match Unix.fstat (Unix.descr_of_in_channel ic) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (
            let p = String.length pad in
            let buf = Bytes.create (p + st_size) in
            Bytes.blit_string pad 0 buf 0 p;
            match In_channel.really_input ic buf p st_size with
            | Some () -> Bytes.unsafe_to_string buf
            | None -> corrupt "unreadable artifact: %s shrank while read" path)
        | _ -> corrupt "unreadable artifact: %s is not a regular file" path)
  with Sys_error m | Unix.Unix_error (_, _, m) ->
    corrupt "unreadable artifact: %s" m

let open_file ~pad path = open_at (read ~pad path) (String.length pad)

let of_file path = of_string (read ~pad:"" path)

let graph_name_of_file path =
  let o = open_file ~pad:"" path in
  check_payload o;
  o.graph_name
