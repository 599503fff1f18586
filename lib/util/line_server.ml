(* Line-oriented request loop for the serve daemon: blocking read for
   the first request, then an opportunistic drain of whatever further
   complete lines are already buffered or readable without blocking
   (bounded by [max_batch]).  A pipelining client therefore gets its
   requests answered as one concurrent batch, while an interactive
   client still sees single-request latency.  Responses are written in
   request order, one line each.  A line longer than [max_line_bytes]
   is cut there and the rest of it dropped, so one request never holds
   more than that in memory.

   The loop owns nothing but the file descriptors; protocol parsing and
   request execution live in the [handle] callback. *)

type verdict = Continue | Stop

let read_chunk fd bytes =
  match Unix.read fd bytes 0 (Bytes.length bytes) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1 (* retry *)
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0 (* hung up: EOF *)

let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd bytes !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let max_batch = 64
let max_line_bytes = 1 lsl 20

let serve ~input ~output ~handle =
  let chunk = Bytes.create 65536 in
  (* the current line's bytes so far, at most [max_line_bytes] *)
  let line = Buffer.create 4096 in
  (* the current line reached the cap: its first [max_line_bytes] bytes
     are queued, and the rest is dropped up to its newline *)
  let cut = ref false in
  let queued = Queue.create () in
  let eof = ref false in
  let keep start stop =
    if not !cut then begin
      let room = max_line_bytes - Buffer.length line in
      if stop - start > room then begin
        Buffer.add_subbytes line chunk start room;
        Queue.add (Buffer.contents line) queued;
        Buffer.clear line;
        cut := true
      end
      else Buffer.add_subbytes line chunk start (stop - start)
    end
  in
  let end_line () =
    if !cut then cut := false
    else begin
      Queue.add (Buffer.contents line) queued;
      Buffer.clear line
    end
  in
  (* Scan only the bytes just read: each newline ends the current line,
     and a trailing fragment stays in [line] until its newline (or EOF)
     arrives. *)
  let fill_once () =
    let n = read_chunk input chunk in
    if n = 0 then eof := true
    else begin
      let start = ref 0 in
      while !start < n do
        let stop = ref !start in
        while !stop < n && Bytes.get chunk !stop <> '\n' do
          incr stop
        done;
        keep !start !stop;
        if !stop < n then end_line ();
        start := !stop + 1
      done
    end
  in
  let rec take k =
    if k = 0 || Queue.is_empty queued then []
    else
      let l = Queue.pop queued in
      l :: take (k - 1)
  in
  let running = ref true in
  while !running do
    (* Block until at least one complete line is queued (or EOF). *)
    while Queue.is_empty queued && not !eof do
      fill_once ()
    done;
    (* Drain whatever else is ready, up to the batch bound. *)
    while
      Queue.length queued < max_batch && (not !eof) && readable_now input
    do
      fill_once ()
    done;
    (* a final unterminated line still counts as a request *)
    if !eof && Buffer.length line > 0 then end_line ();
    (match List.filter (fun l -> String.trim l <> "") (take max_batch) with
    | [] -> ()
    | requests ->
        let responses, verdict = handle requests in
        (* A client that hung up ends its own conversation, never the
           process: EPIPE (the caller ignores SIGPIPE) or ECONNRESET. *)
        (if responses <> [] then
           try write_all output (String.concat "\n" responses ^ "\n")
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             running := false);
        if verdict = Stop then running := false);
    if !eof && Queue.is_empty queued then running := false
  done
