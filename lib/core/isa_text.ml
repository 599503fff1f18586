(* Textual serialisation of compiled operation streams — the "generated
   instruction flow" artefact of the dataflow-scheduling stage (the
   PUMA-style ISA dump).  Round-trips exactly through [of_string].

   Format (one line each, in this order; docs/formats.md has the
   grammar):

     program <name> mode=HT allocator=AG-reuse cores=4 tags=7 depth=3
     memory spill=0 gload=1024 gstore=512 peaks=100,0,20,0 rpeaks=100,0,20,0
     trace alloc core=0 bytes=128 req=fresh      (also req=acc:K, req=ag:K)
     trace free core=0 bytes=128
     trace freeacc core=0 key=3
     trace freeag core=0 key=3
     ag <id> core=<c> xbars=<n>
     core <c>
       <idx>: MVM ag=5 w=2 xb=2 in=64 out=128 deps=1,2 node=7
       <idx>: VEC vadd n=256 deps= node=7
       <idx>: LOAD 1024 deps= node=3
       <idx>: STORE 64 deps=4 node=3
       <idx>: SEND dst=4 bytes=128 tag=9 deps=2 node=3
       <idx>: RECV src=2 bytes=64 tag=11 deps= node=3

   [rpeaks] (per-core resident peaks) is optional on input and defaults
   to [peaks] — pre-lifetime dumps carried a single peak array.

   Both directions are single passes over one buffer: the printer
   writes keywords and digits straight into a [Buffer], and the parser
   reads the text with one cursor, line form by line form, parsing
   integers in place.  Neither goes through [Fmt] except to word an
   error. *)

exception Parse_error of { line : int; message : string }

let errf line fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* --- printing ------------------------------------------------------------ *)

let add_int = Pimutil.Decimal.add_int

let add_csv buf a =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf v)
    a

let rec add_deps buf = function
  | [] -> ()
  | [ d ] -> add_int buf d
  | d :: rest ->
      add_int buf d;
      Buffer.add_char buf ',';
      add_deps buf rest

(* [key] is all the text before the integer, separators included. *)
let add_field buf key v =
  Buffer.add_string buf key;
  add_int buf v

let add_instr buf idx (i : Isa.instr) =
  Buffer.add_string buf "  ";
  add_int buf idx;
  (match i.Isa.op with
  | Isa.Mvm m ->
      add_field buf ": MVM ag=" m.ag;
      add_field buf " w=" m.windows;
      add_field buf " xb=" m.xbars;
      add_field buf " in=" m.input_bytes;
      add_field buf " out=" m.output_bytes
  | Isa.Vec v ->
      Buffer.add_string buf ": VEC ";
      Buffer.add_string buf (Isa.vec_kind_name v.kind);
      add_field buf " n=" v.elements
  | Isa.Load l -> add_field buf ": LOAD " l.bytes
  | Isa.Store s -> add_field buf ": STORE " s.bytes
  | Isa.Send s ->
      add_field buf ": SEND dst=" s.dst;
      add_field buf " bytes=" s.bytes;
      add_field buf " tag=" s.tag
  | Isa.Recv r ->
      add_field buf ": RECV src=" r.src;
      add_field buf " bytes=" r.bytes;
      add_field buf " tag=" r.tag);
  Buffer.add_string buf " deps=";
  add_deps buf i.Isa.deps;
  add_field buf " node=" i.Isa.node_id;
  Buffer.add_char buf '\n'

let add_mem_event buf (ev : Isa.mem_event) =
  (match ev with
  | Isa.Alloc { core; bytes; request } -> (
      add_field buf "trace alloc core=" core;
      add_field buf " bytes=" bytes;
      match request with
      | Memalloc.Fresh -> Buffer.add_string buf " req=fresh"
      | Memalloc.Accumulator k -> add_field buf " req=acc:" k
      | Memalloc.Ag_slot k -> add_field buf " req=ag:" k)
  | Isa.Free { core; bytes } ->
      add_field buf "trace free core=" core;
      add_field buf " bytes=" bytes
  | Isa.Free_accumulator { core; key } ->
      add_field buf "trace freeacc core=" core;
      add_field buf " key=" key
  | Isa.Free_ag_slot { core; key } ->
      add_field buf "trace freeag core=" core;
      add_field buf " key=" key);
  Buffer.add_char buf '\n'

let to_string (t : Isa.t) =
  (* lines run 35-60 bytes: room for 64 each keeps the buffer from
     growing, which would copy the dump so far *)
  let buf =
    Buffer.create (64 * (Isa.num_instrs t + Array.length t.Isa.mem_trace + 4))
  in
  Buffer.add_string buf "program ";
  Buffer.add_string buf t.Isa.graph_name;
  Buffer.add_string buf " mode=";
  Buffer.add_string buf (Mode.to_string t.Isa.mode);
  Buffer.add_string buf " allocator=";
  Buffer.add_string buf (Memalloc.strategy_name t.Isa.allocator);
  add_field buf " cores=" t.Isa.core_count;
  add_field buf " tags=" t.Isa.num_tags;
  add_field buf " depth=" t.Isa.pipeline_depth;
  let m = t.Isa.memory in
  add_field buf "\nmemory spill=" m.Isa.spill_bytes;
  add_field buf " gload=" m.Isa.global_load_bytes;
  add_field buf " gstore=" m.Isa.global_store_bytes;
  Buffer.add_string buf " peaks=";
  add_csv buf m.Isa.local_peak_bytes;
  Buffer.add_string buf " rpeaks=";
  add_csv buf m.Isa.local_resident_peak_bytes;
  Buffer.add_char buf '\n';
  Array.iter (add_mem_event buf) t.Isa.mem_trace;
  Array.iteri
    (fun ag core ->
      add_field buf "ag " ag;
      add_field buf " core=" core;
      add_field buf " xbars=" t.Isa.ag_xbars.(ag);
      Buffer.add_char buf '\n')
    t.Isa.ag_core;
  Array.iteri
    (fun core instrs ->
      add_field buf "core " core;
      Buffer.add_char buf '\n';
      Array.iteri (add_instr buf) instrs)
    t.Isa.cores;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------- *)

(* The one cursor: [pos] indexes [s], and [line] is the 1-based line that
   [pos] is on. *)
type cursor = { s : string; mutable pos : int; mutable line : int }

let is_blank ch = ch = ' ' || ch = '\t'

(* Whether a token ends at [p]: a blank, a newline, a CR that ends the
   line, or the end of the text. *)
let ends_token c p =
  let s = c.s in
  p >= String.length s
  ||
  match String.unsafe_get s p with
  | ' ' | '\t' | '\n' -> true
  | '\r' -> p + 1 = String.length s || String.unsafe_get s (p + 1) = '\n'
  | _ -> false

let at_eol c =
  c.pos >= String.length c.s
  || (match String.unsafe_get c.s c.pos with '\n' | '\r' -> true | _ -> false)
     && ends_token c c.pos

let skip_blanks c =
  while c.pos < String.length c.s && is_blank (String.unsafe_get c.s c.pos) do
    c.pos <- c.pos + 1
  done

let token_end c =
  let p = ref c.pos in
  while not (ends_token c !p) do
    incr p
  done;
  !p

(* What the cursor is looking at, for error messages only. *)
let found c =
  if c.pos >= String.length c.s then "the end of the text"
  else if at_eol c then "the end of the line"
  else
    let len = min 40 (token_end c - c.pos) in
    Fmt.str "%S" (String.sub c.s c.pos len)

let expected c what = errf c.line "expected %s, found %s" what (found c)

(* Whether the text at the cursor starts with [w]. *)
let looking_at c w =
  let s = c.s and p = c.pos and n = String.length w in
  p + n <= String.length s
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (p + !i) = String.unsafe_get w !i do
    incr i
  done;
  !i = n

(* Consume the whole token [w] if it is the one at the cursor. *)
let keyword c w =
  if looking_at c w && ends_token c (c.pos + String.length w) then (
    c.pos <- c.pos + String.length w;
    true)
  else false

(* One or more blanks. *)
let sep c =
  if c.pos < String.length c.s && is_blank (String.unsafe_get c.s c.pos) then
    skip_blanks c
  else expected c "a space"

(* A separator, then the [key=] that must come next. *)
let field c key =
  sep c;
  if looking_at c key then c.pos <- c.pos + String.length key
  else expected c (Fmt.str "%S" key)

(* -?[0-9]+, fitting an OCaml int, ending where a token, a list item or
   an instruction index may end.  Accumulates on the non-positive side
   so that [min_int] parses. *)
let int c =
  let s = c.s and start = c.pos in
  let n = String.length s in
  let neg = start < n && String.unsafe_get s start = '-' in
  let p = ref (if neg then start + 1 else start) in
  let first = !p and acc = ref 0 and fits = ref true in
  while
    !p < n && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false
  do
    let d = Char.code (String.unsafe_get s !p) - 48 in
    (* whether [!acc * 10 - d] stays at or above [min_int] *)
    if !acc < (min_int + d) / 10 then fits := false;
    acc := (!acc * 10) - d;
    incr p
  done;
  if !p = first then expected c "an integer";
  if
    not
      (ends_token c !p
      || String.unsafe_get s !p = ','
      || String.unsafe_get s !p = ':')
  then errf c.line "invalid integer %s" (found { c with pos = start });
  if not (!fits && (neg || !acc <> min_int)) then
    errf c.line "integer %s does not fit an OCaml int"
      (found { c with pos = start });
  c.pos <- !p;
  if neg then !acc else - !acc

(* Consume [ch] if it is next. *)
let skip_char c ch =
  if c.pos < String.length c.s && String.unsafe_get c.s c.pos = ch then (
    c.pos <- c.pos + 1;
    true)
  else false

let rec more_ints c acc =
  let d = int c in
  if skip_char c ',' then more_ints c (d :: acc) else List.rev (d :: acc)

(* A comma-separated list, possibly empty: [deps=] and the peaks. *)
let int_list c =
  if ends_token c c.pos then []
  else
    let first = int c in
    if skip_char c ',' then first :: more_ints c [] else [ first ]

let rec find_choice c stop what = function
  | (name, v) :: rest ->
      if String.length name = stop - c.pos && looking_at c name then (
        c.pos <- stop;
        v)
      else find_choice c stop what rest
  | [] -> errf c.line "unknown %s %s" what (found c)

(* The token at the cursor, matched in place against [choices]. *)
let choice c what choices = find_choice c (token_end c) what choices

(* Blanks, then the end of the line, which is consumed. *)
let end_line c =
  skip_blanks c;
  if not (at_eol c) then
    errf c.line "unexpected %s at the end of the line" (found c);
  if c.pos < String.length c.s && String.unsafe_get c.s c.pos = '\r' then
    c.pos <- c.pos + 1;
  if c.pos < String.length c.s then (
    c.pos <- c.pos + 1;
    c.line <- c.line + 1)

(* Skip blank lines and leading blanks: the cursor ends on the first
   token of the next line, or at the end of the text. *)
let rec next_line c =
  skip_blanks c;
  if c.pos < String.length c.s && at_eol c then (
    end_line c;
    next_line c)

let unexpected_line c =
  errf c.line
    "unexpected line starting %s: lines come in the order program, memory, \
     trace, ag, core"
    (found c)

(* An append-only array: the parser's one growable store. *)
type 'a grow = { mutable items : 'a array; mutable len : int }

let grow () = { items = [||]; len = 0 }

let push g x =
  if g.len = Array.length g.items then (
    let items = Array.make (max 16 (2 * g.len)) x in
    Array.blit g.items 0 items 0 g.len;
    g.items <- items);
  Array.unsafe_set g.items g.len x;
  g.len <- g.len + 1

let contents g = Array.sub g.items 0 g.len

(* The accepted words are the printer's own names. *)
let modes = List.map (fun m -> (Mode.to_string m, m)) Mode.all

let allocators =
  List.map
    (fun a -> (Memalloc.strategy_name a, a))
    Memalloc.[ Naive; Add_reuse; Ag_reuse; Lifetime ]

let vec_kinds =
  List.map
    (fun k -> (Isa.vec_kind_name k, k))
    Isa.[ Vadd; Vmul; Vmax; vact Relu; vact Sigmoid; vact Tanh; Vpool;
          Vsoftmax; Vmove ]

let instr_kinds =
  [ ("MVM", `Mvm); ("VEC", `Vec); ("LOAD", `Load); ("STORE", `Store);
    ("SEND", `Send); ("RECV", `Recv) ]

let trace_kinds =
  [ ("alloc", `Alloc); ("free", `Free); ("freeacc", `Freeacc);
    ("freeag", `Freeag) ]

(* After "memory". *)
let memory_line c =
  field c "spill=";
  let spill_bytes = int c in
  field c "gload=";
  let global_load_bytes = int c in
  field c "gstore=";
  let global_store_bytes = int c in
  field c "peaks=";
  let local_peak_bytes = Array.of_list (int_list c) in
  skip_blanks c;
  (* pre-lifetime dumps carry no rpeaks; their disciplines resided
     exactly what they demanded up to the clamp, and without the
     capacity here the demand array is the best reconstruction *)
  let local_resident_peak_bytes =
    if at_eol c then Array.copy local_peak_bytes
    else if looking_at c "rpeaks=" then (
      c.pos <- c.pos + 7;
      Array.of_list (int_list c))
    else expected c "\"rpeaks=\" or the end of the line"
  in
  end_line c;
  {
    Isa.spill_bytes;
    global_load_bytes;
    global_store_bytes;
    local_peak_bytes;
    local_resident_peak_bytes;
  }

(* After "trace". *)
let trace_line c : Isa.mem_event =
  sep c;
  let kind = choice c "trace event" trace_kinds in
  field c "core=";
  let core = int c in
  let ev : Isa.mem_event =
    match kind with
    | `Alloc ->
        field c "bytes=";
        let bytes = int c in
        field c "req=";
        let request =
          if keyword c "fresh" then Memalloc.Fresh
          else if looking_at c "acc:" then (
            c.pos <- c.pos + 4;
            Memalloc.Accumulator (int c))
          else if looking_at c "ag:" then (
            c.pos <- c.pos + 3;
            Memalloc.Ag_slot (int c))
          else errf c.line "unknown allocation request %s" (found c)
        in
        Isa.Alloc { core; bytes; request }
    | `Free ->
        field c "bytes=";
        Isa.Free { core; bytes = int c }
    | `Freeacc ->
        field c "key=";
        Isa.Free_accumulator { core; key = int c }
    | `Freeag ->
        field c "key=";
        Isa.Free_ag_slot { core; key = int c }
  in
  end_line c;
  ev

(* An instruction line, at its index; [count] is the core's count so
   far, which the redundant index must equal, else deps silently
   rebind. *)
let instr_line c count : Isa.instr =
  (match String.unsafe_get c.s c.pos with
  | '0' .. '9' | '-' -> ()
  | _ -> unexpected_line c);
  let idx = int c in
  if idx <> count then
    errf c.line "instruction index %d but the core has %d so far" idx count;
  if not (skip_char c ':') then expected c "\":\" after the index";
  sep c;
  let op : Isa.op =
    match choice c "instruction kind" instr_kinds with
    | `Mvm ->
        field c "ag=";
        let ag = int c in
        field c "w=";
        let windows = int c in
        field c "xb=";
        let xbars = int c in
        field c "in=";
        let input_bytes = int c in
        field c "out=";
        let output_bytes = int c in
        Isa.Mvm { ag; windows; xbars; input_bytes; output_bytes }
    | `Vec ->
        sep c;
        let kind = choice c "vector kind" vec_kinds in
        field c "n=";
        Isa.Vec { kind; elements = int c }
    | `Load ->
        sep c;
        Isa.Load { bytes = int c }
    | `Store ->
        sep c;
        Isa.Store { bytes = int c }
    | `Send ->
        field c "dst=";
        let dst = int c in
        field c "bytes=";
        let bytes = int c in
        field c "tag=";
        Isa.Send { dst; bytes; tag = int c }
    | `Recv ->
        field c "src=";
        let src = int c in
        field c "bytes=";
        let bytes = int c in
        field c "tag=";
        Isa.Recv { src; bytes; tag = int c }
  in
  field c "deps=";
  let deps = int_list c in
  field c "node=";
  let node_id = int c in
  end_line c;
  { Isa.op; deps; node_id }

let of_string text =
  let c = { s = text; pos = 0; line = 1 } in
  next_line c;
  if not (keyword c "program") then expected c "the program line";
  let header_line = c.line in
  sep c;
  let name_end = token_end c in
  let graph_name = String.sub text c.pos (name_end - c.pos) in
  c.pos <- name_end;
  field c "mode=";
  let mode = choice c "mode" modes in
  field c "allocator=";
  let allocator = choice c "allocator" allocators in
  field c "cores=";
  let core_count = int c in
  if core_count < 0 then errf c.line "cores=%d is negative" core_count;
  field c "tags=";
  let num_tags = int c in
  field c "depth=";
  let pipeline_depth = int c in
  end_line c;
  next_line c;
  let memory = if keyword c "memory" then Some (memory_line c) else None in
  let trace = grow () in
  while
    next_line c;
    keyword c "trace"
  do
    push trace (trace_line c)
  done;
  let ag_core = grow () and ag_xbars = grow () in
  while
    next_line c;
    keyword c "ag"
  do
    sep c;
    let id = int c in
    if id <> ag_core.len then
      errf c.line "ag %d out of order: the next AG is %d" id ag_core.len;
    field c "core=";
    push ag_core (int c);
    field c "xbars=";
    push ag_xbars (int c);
    end_line c
  done;
  (* Core headers come in order and below [cores=], and each core's
     array is built from its own lines.  The only arrays [cores=] sizes
     are built after every header has been seen, so a short text that
     declares many cores allocates nothing per declared core. *)
  let cores = grow () and body = grow () in
  let finish_core () =
    push cores (contents body);
    body.len <- 0
  in
  let headers = ref 0 in
  while
    next_line c;
    c.pos < String.length text
  do
    if keyword c "core" then (
      sep c;
      let k = int c in
      if k <> !headers then
        errf c.line "core %d out of order: the next core is %d" k !headers;
      if k >= core_count then
        errf c.line "core %d outside the program's %d cores" k core_count;
      end_line c;
      if !headers > 0 then finish_core ();
      incr headers)
    else if !headers = 0 then unexpected_line c
    else push body (instr_line c body.len)
  done;
  if !headers > 0 then finish_core ();
  if !headers <> core_count then
    errf header_line "cores=%d but %d core header(s) follow" core_count
      !headers;
  let memory =
    match memory with
    | Some m -> m
    | None ->
        {
          Isa.spill_bytes = 0;
          global_load_bytes = 0;
          global_store_bytes = 0;
          local_peak_bytes = Array.make core_count 0;
          local_resident_peak_bytes = Array.make core_count 0;
        }
  in
  {
    Isa.graph_name;
    mode;
    allocator;
    core_count;
    cores = contents cores;
    ag_core = contents ag_core;
    ag_xbars = contents ag_xbars;
    num_tags;
    pipeline_depth;
    memory;
    mem_trace = contents trace;
  }

let to_file path t = Pimutil.Atomic_io.write_text path (to_string t)

let of_file path =
  In_channel.with_open_text path (fun ic ->
      of_string (In_channel.input_all ic))
