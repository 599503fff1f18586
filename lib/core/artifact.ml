(* Serialised compile artifacts — the on-disk unit of the compile cache.

   A container wraps the compiled {!Isa.t} with the cache key it was
   compiled under and an MD5 over the payload bytes:

     pimart 4
     key <32 hex chars>
     graph <name>
     payload <byte count> <32 hex chars>
     <payload bytes>

   The payload is a compact binary encoding of the program
   (docs/formats.md, "payload grammar"): row-wise per core, LEB128
   varints, and flag bits in each instruction's head byte that stand
   for "the same as the previous one on this core".  Parsing the
   textual .isa dump costs a large fraction of a fresh compile on the
   big low-latency streams, which would defeat the cache; this
   encoding is read in one pass and is less than half the size of the
   OCaml Marshal image it replaced, so a hit reads and MACs fewer
   bytes.

   The decoder is total: it checks every length against the bytes
   left before it allocates, every kind, flag and table index against
   its range, and that nothing trails the program, and raises
   {!Corrupt} on any failure.  No bytes can crash it, so the MD5 is
   an integrity check (torn or bit-flipped entries), not a guard the
   decoder's safety depends on.  Semantic trust is layered above: each
   {!Cache} handle verifies a program with {!Verify} on its first load
   of the entry ("a cache hit is indistinguishable from a fresh
   compile").

   One header parser ([open_at]) serves every reader.  The payload is
   checksummed and decoded at its offset in the bytes read, never
   copied out; the cache reads a file into a buffer that begins with
   its MAC's inner pad ([open_file ~pad]).

   Like every published file in the toolchain, [to_file] goes through
   {!Pimutil.Atomic_io}, so a crashed writer cannot leave a torn entry
   behind. *)

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

type t = { key : string; program : Isa.t }

let magic = "pimart"

(* v2: Isa.t memory report gained local_resident_peak_bytes; v3: the
   payload codec below replaced Marshal; v4: VEC code 9 (the node's last
   activation value) is gone, activations being static values *)
let version = 4

let is_hex s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let make ~key program =
  if not (is_hex key) then
    invalid_arg "Artifact.make: key must be 32 lowercase hex chars";
  { key; program }

(* --- payload codec ----------------------------------------------------------- *)

(* Instruction kinds, in the low three bits of an instruction's head
   byte; the five bits above them are the op's flags. *)
let k_mvm = 0
let k_vec = 1
let k_load = 2
let k_store = 3
let k_send = 4
let k_recv = 5

(* VEC kind codes, in head bits 3-6, index [vec_kinds].  The table is
   the file format's, not [Isa]'s order; its activations are
   [Isa.vact]'s values, so a decoded program holds the same values as
   the compiled one, down to its Marshal image. *)
let vec_kinds =
  Isa.
    [|
      Vadd; Vmul; Vmax; vact Relu; vact Sigmoid; vact Tanh; Vpool; Vsoftmax;
      Vmove;
    |]

let vec_code : Isa.vec_kind -> int = function
  | Vadd -> 0
  | Vmul -> 1
  | Vmax -> 2
  | Vact Relu -> 3
  | Vact Sigmoid -> 4
  | Vact Tanh -> 5
  | Vpool -> 6
  | Vsoftmax -> 7
  | Vmove -> 8

(* Allocation-trace kinds, in the low three bits of an event's head
   byte; bit 3 repeats the previous event's core, bit 4 its bytes. *)
let e_fresh = 0
let e_accumulator = 1
let e_ag_slot = 2
let e_free = 3
let e_free_accumulator = 4
let e_free_ag_slot = 5

(* What the flag bits compare with: each field's value in the previous
   instruction of its kind on this core, all 0 at the start of a core.
   [comm] holds the peer, bytes and tag of the last SEND (0-2) and RECV
   (3-5). *)
type row = {
  mutable node : int;
  mutable ag : int;
  mutable windows : int;
  mutable input : int;
  mutable output : int;
  mutable elements : int;
  mutable load : int;
  mutable store : int;
  comm : int array;
}

let new_row () =
  {
    node = 0;
    ag = 0;
    windows = 0;
    input = 0;
    output = 0;
    elements = 0;
    load = 0;
    store = 0;
    comm = Array.make 6 0;
  }

let flag c bit = if c then bit else 0
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* --- writer --- *)

let put_byte b n = Buffer.add_char b (Char.unsafe_chr n)

(* [n]'s 63 bits, seven a byte, low first, the high bit set on every
   byte but the last: 0-127 take one byte, a negative int nine. *)
let put_uint b n =
  let n = ref n in
  while !n lsr 7 <> 0 do
    put_byte b (!n land 0x7f lor 0x80);
    n := !n lsr 7
  done;
  put_byte b !n

let put_sint b n = put_uint b (zigzag n)

let put_ints b a =
  put_uint b (Array.length a);
  Array.iter (put_uint b) a

let in_table a i = i >= 0 && i < Array.length a

(* [i] at index [idx] of its core. *)
let put_instr b ~ag_xbars row idx (i : Isa.instr) =
  let head =
    match i.op with
    | Mvm m ->
        k_mvm
        lor flag (m.ag = row.ag) 0x08
        lor flag (m.windows = row.windows) 0x10
        lor flag (in_table ag_xbars m.ag && m.xbars = ag_xbars.(m.ag)) 0x20
        lor flag (m.input_bytes = row.input) 0x40
        lor flag (m.output_bytes = row.output) 0x80
    | Vec v ->
        k_vec
        lor (vec_code v.kind lsl 3)
        lor flag (v.elements = row.elements) 0x80
    | Load l -> k_load lor flag (l.bytes = row.load) 0x08
    | Store s -> k_store lor flag (s.bytes = row.store) 0x08
    | Send { dst = peer; bytes; tag } | Recv { src = peer; bytes; tag } ->
        let c = match i.op with Send _ -> 0 | _ -> 3 in
        (if c = 0 then k_send else k_recv)
        lor flag (peer = row.comm.(c)) 0x08
        lor flag (bytes = row.comm.(c + 1)) 0x10
        lor flag (tag = row.comm.(c + 2) + 1) 0x20
  in
  put_byte b head;
  put_sint b (i.node_id - row.node);
  row.node <- i.node_id;
  put_uint b (List.length i.deps);
  List.iter (fun d -> put_uint b (idx - 1 - d)) (List.rev i.deps);
  match i.op with
  | Mvm m ->
      if head land 0x08 = 0 then put_sint b (m.ag - row.ag);
      if head land 0x10 = 0 then put_uint b m.windows;
      if head land 0x20 = 0 then put_uint b m.xbars;
      if head land 0x40 = 0 then put_uint b m.input_bytes;
      if head land 0x80 = 0 then put_uint b m.output_bytes;
      row.ag <- m.ag;
      row.windows <- m.windows;
      row.input <- m.input_bytes;
      row.output <- m.output_bytes
  | Vec v ->
      if head land 0x80 = 0 then put_uint b v.elements;
      row.elements <- v.elements
  | Load { bytes } ->
      if head land 0x08 = 0 then put_uint b bytes;
      row.load <- bytes
  | Store { bytes } ->
      if head land 0x08 = 0 then put_uint b bytes;
      row.store <- bytes
  | Send { dst = peer; bytes; tag } | Recv { src = peer; bytes; tag } ->
      let c = if head land 7 = k_send then 0 else 3 in
      if head land 0x08 = 0 then put_uint b peer;
      if head land 0x10 = 0 then put_uint b bytes;
      if head land 0x20 = 0 then put_sint b (tag - row.comm.(c + 2));
      row.comm.(c) <- peer;
      row.comm.(c + 1) <- bytes;
      row.comm.(c + 2) <- tag

(* [last] holds the previous event's core and bytes. *)
let put_event b (last : int array) (e : Isa.mem_event) =
  let kind, core, bytes, key =
    match e with
    | Alloc { core; bytes; request = Fresh } -> (e_fresh, core, bytes, 0)
    | Alloc { core; bytes; request = Accumulator k } ->
        (e_accumulator, core, bytes, k)
    | Alloc { core; bytes; request = Ag_slot k } -> (e_ag_slot, core, bytes, k)
    | Free { core; bytes } -> (e_free, core, bytes, 0)
    | Free_accumulator { core; key } ->
        (e_free_accumulator, core, last.(1), key)
    | Free_ag_slot { core; key } -> (e_free_ag_slot, core, last.(1), key)
  in
  let has_bytes = kind <= e_free in
  put_byte b
    (kind
    lor flag (core = last.(0)) 0x08
    lor flag (has_bytes && bytes = last.(1)) 0x10);
  if core <> last.(0) then put_uint b core;
  if has_bytes && bytes <> last.(1) then put_uint b bytes;
  if kind <> e_fresh && kind <> e_free then put_uint b key;
  last.(0) <- core;
  last.(1) <- bytes

let encode (p : Isa.t) =
  let b = Buffer.create (64 + (4 * Isa.num_instrs p)) in
  put_uint b (String.length p.graph_name);
  Buffer.add_string b p.graph_name;
  put_byte b (match p.mode with High_throughput -> 0 | Low_latency -> 1);
  put_byte b
    (match p.allocator with
    | Naive -> 0
    | Add_reuse -> 1
    | Ag_reuse -> 2
    | Lifetime -> 3);
  put_uint b p.core_count;
  put_uint b p.num_tags;
  put_uint b p.pipeline_depth;
  put_ints b p.ag_core;
  put_ints b p.ag_xbars;
  put_uint b (Array.length p.cores);
  Array.iter
    (fun core ->
      let row = new_row () in
      put_uint b (Array.length core);
      Array.iteri (put_instr b ~ag_xbars:p.ag_xbars row) core)
    p.cores;
  let m = p.memory in
  put_ints b m.local_peak_bytes;
  put_ints b m.local_resident_peak_bytes;
  put_uint b m.spill_bytes;
  put_uint b m.global_load_bytes;
  put_uint b m.global_store_bytes;
  put_uint b (Array.length p.mem_trace);
  Array.iter (put_event b [| 0; 0 |]) p.mem_trace;
  Buffer.contents b

(* --- reader --- *)

(* The payload is [s]'s bytes from [pos] to [stop]. *)
type reader = { s : string; mutable pos : int; stop : int }

let rec uint_tail r pos shift acc =
  if pos >= r.stop then corrupt "payload ends inside a number"
  else
    let c = Char.code (String.unsafe_get r.s pos) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then begin
      r.pos <- pos + 1;
      acc
    end
    else if shift = 56 then corrupt "number longer than nine bytes"
    else uint_tail r (pos + 1) (shift + 7) acc

let[@inline] uint r =
  let pos = r.pos in
  if pos >= r.stop then corrupt "payload ends inside a number"
  else
    let c = Char.code (String.unsafe_get r.s pos) in
    if c < 0x80 then begin
      r.pos <- pos + 1;
      c
    end
    else uint_tail r pos 0 0

let[@inline] sint r = unzigzag (uint r)

let[@inline] byte r =
  if r.pos >= r.stop then corrupt "payload ends early"
  else begin
    r.pos <- r.pos + 1;
    Char.code (String.unsafe_get r.s (r.pos - 1))
  end

(* A count of items that take at least a byte each. *)
let length r what =
  let n = uint r in
  if n < 0 || n > r.stop - r.pos then
    corrupt "%s count %d exceeds the %d payload bytes left" what n
      (r.stop - r.pos);
  n

let ints r what = Array.init (length r what) (fun _ -> uint r)

let no_flags head mask what =
  if head land mask <> 0 then corrupt "unused flag bits set on %s" what

(* The instruction at index [idx] of its core, read in [put_instr]'s
   order. *)
let get_instr r ~ag_xbars row idx =
  let head = byte r in
  let node_id = row.node + sint r in
  row.node <- node_id;
  let deps = ref [] in
  for _ = 1 to length r "dependency" do
    deps := (idx - 1 - uint r) :: !deps
  done;
  let op : Isa.op =
    match head land 7 with
    | 0 (* mvm *) ->
        let ag = if head land 0x08 = 0 then row.ag + sint r else row.ag in
        let windows = if head land 0x10 = 0 then uint r else row.windows in
        let xbars =
          if head land 0x20 = 0 then uint r
          else if in_table ag_xbars ag then Array.unsafe_get ag_xbars ag
          else corrupt "MVM on AG %d takes its crossbars from no table entry" ag
        in
        let input = if head land 0x40 = 0 then uint r else row.input in
        let output = if head land 0x80 = 0 then uint r else row.output in
        row.ag <- ag;
        row.windows <- windows;
        row.input <- input;
        row.output <- output;
        Mvm { ag; windows; xbars; input_bytes = input; output_bytes = output }
    | 1 (* vec *) ->
        let code = (head lsr 3) land 0x0f in
        if code >= Array.length vec_kinds then
          corrupt "unknown VEC kind %d" code;
        let kind = Array.unsafe_get vec_kinds code in
        let elements = if head land 0x80 = 0 then uint r else row.elements in
        row.elements <- elements;
        Vec { kind; elements }
    | 2 (* load *) ->
        no_flags head 0xf0 "a LOAD";
        let bytes = if head land 0x08 = 0 then uint r else row.load in
        row.load <- bytes;
        Load { bytes }
    | 3 (* store *) ->
        no_flags head 0xf0 "a STORE";
        let bytes = if head land 0x08 = 0 then uint r else row.store in
        row.store <- bytes;
        Store { bytes }
    | (4 | 5) as k (* send, recv *) ->
        no_flags head 0xc0 "a SEND or RECV";
        let c = if k = k_send then 0 else 3 in
        let peer = if head land 0x08 = 0 then uint r else row.comm.(c) in
        let bytes = if head land 0x10 = 0 then uint r else row.comm.(c + 1) in
        let tag =
          row.comm.(c + 2) + if head land 0x20 = 0 then sint r else 1
        in
        row.comm.(c) <- peer;
        row.comm.(c + 1) <- bytes;
        row.comm.(c + 2) <- tag;
        if k = k_send then Send { dst = peer; bytes; tag }
        else Recv { src = peer; bytes; tag }
    | k -> corrupt "unknown instruction kind %d" k
  in
  { Isa.op; deps = !deps; node_id }

(* Static fillers for the instruction and trace arrays.  Seeding a
   large array with a young value, as [Array.init] does with its first
   element, makes the runtime run a minor collection first, which
   would promote everything decoded so far. *)
let dummy_instr = { Isa.op = Load { bytes = 0 }; deps = []; node_id = 0 }
let dummy_event = Isa.Free { core = 0; bytes = 0 }

let get_event r (last : int array) : Isa.mem_event =
  let head = byte r in
  let kind = head land 7 in
  if kind > e_free_ag_slot then corrupt "unknown trace event kind %d" kind;
  let has_bytes = kind <= e_free in
  no_flags head (if has_bytes then 0xe0 else 0xf0) "a trace event";
  let core = if head land 0x08 = 0 then uint r else last.(0) in
  let bytes = if has_bytes && head land 0x10 = 0 then uint r else last.(1) in
  last.(0) <- core;
  last.(1) <- bytes;
  if kind = e_fresh then Alloc { core; bytes; request = Fresh }
  else if kind = e_free then Free { core; bytes }
  else
    let key = uint r in
    if kind = e_accumulator then
      Alloc { core; bytes; request = Accumulator key }
    else if kind = e_ag_slot then Alloc { core; bytes; request = Ag_slot key }
    else if kind = e_free_accumulator then Free_accumulator { core; key }
    else Free_ag_slot { core; key }

let decode_payload s pos stop : Isa.t =
  let r = { s; pos; stop } in
  let name_len = length r "graph name byte" in
  let graph_name = String.sub s r.pos name_len in
  r.pos <- r.pos + name_len;
  let mode : Mode.t =
    match byte r with
    | 0 -> High_throughput
    | 1 -> Low_latency
    | m -> corrupt "unknown mode %d" m
  in
  let allocator : Memalloc.strategy =
    match byte r with
    | 0 -> Naive
    | 1 -> Add_reuse
    | 2 -> Ag_reuse
    | 3 -> Lifetime
    | a -> corrupt "unknown allocator %d" a
  in
  let core_count = uint r in
  let num_tags = uint r in
  let pipeline_depth = uint r in
  let ag_core = ints r "AG core" in
  let ag_xbars = ints r "AG crossbar" in
  let cores =
    Array.init (length r "core") (fun _ ->
        let row = new_row () in
        let n = length r "instruction" in
        let instrs = Array.make n dummy_instr in
        for idx = 0 to n - 1 do
          Array.unsafe_set instrs idx (get_instr r ~ag_xbars row idx)
        done;
        instrs)
  in
  let local_peak_bytes = ints r "demand peak" in
  let local_resident_peak_bytes = ints r "resident peak" in
  let spill_bytes = uint r in
  let global_load_bytes = uint r in
  let global_store_bytes = uint r in
  let last = [| 0; 0 |] in
  let mem_trace = Array.make (length r "trace event") dummy_event in
  for i = 0 to Array.length mem_trace - 1 do
    Array.unsafe_set mem_trace i (get_event r last)
  done;
  if r.pos <> stop then
    corrupt "%d bytes follow the program in the payload" (stop - r.pos);
  {
    graph_name;
    mode;
    allocator;
    core_count;
    cores;
    ag_core;
    ag_xbars;
    num_tags;
    pipeline_depth;
    memory =
      {
        local_peak_bytes;
        local_resident_peak_bytes;
        spill_bytes;
        global_load_bytes;
        global_store_bytes;
      };
    mem_trace;
  }

(* --- container --------------------------------------------------------------- *)

let to_string t =
  let payload = encode t.program in
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
  let program = decode_payload o.text o.pos (o.pos + o.len) in
  if program.Isa.graph_name <> o.graph_name then
    corrupt "graph name %S disagrees with header %S" program.Isa.graph_name
      o.graph_name;
  program

let load o =
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
