(* Line-oriented request loop for the serve daemon: blocking read for
   the first request, then an opportunistic drain of whatever further
   complete lines are already buffered or readable without blocking
   (bounded by [max_batch]).  A pipelining client therefore gets its
   requests answered as one concurrent batch, while an interactive
   client still sees single-request latency.  Responses are written in
   request order, one line each.

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

let serve ~input ~output ~handle =
  let chunk = Bytes.create 65536 in
  let pending = Buffer.create 4096 in
  let eof = ref false in
  (* Split complete lines off the front of [pending]; a trailing
     fragment stays buffered until its newline (or EOF) arrives. *)
  let take_lines () =
    let text = Buffer.contents pending in
    let rec split start acc =
      match String.index_from_opt text start '\n' with
      | Some i -> split (i + 1) (String.sub text start (i - start) :: acc)
      | None ->
          Buffer.clear pending;
          Buffer.add_substring pending text start (String.length text - start);
          List.rev acc
    in
    split 0 []
  in
  let fill_once () =
    let n = read_chunk input chunk in
    if n = 0 then eof := true
    else if n > 0 then Buffer.add_subbytes pending chunk 0 n
  in
  let queued = ref [] in
  let running = ref true in
  while !running do
    (* Block until at least one complete line is queued (or EOF). *)
    while !queued = [] && not !eof do
      fill_once ();
      queued := take_lines ()
    done;
    (* Drain whatever else is ready, up to the batch bound. *)
    while
      List.length !queued < max_batch && (not !eof) && readable_now input
    do
      fill_once ();
      queued := !queued @ take_lines ()
    done;
    (if !eof then begin
       (* a final unterminated line still counts as a request *)
       let rest = Buffer.contents pending in
       Buffer.clear pending;
       if rest <> "" then queued := !queued @ [ rest ]
     end);
    let batch, rest =
      let rec split i acc = function
        | [] -> (List.rev acc, [])
        | l when i = max_batch -> (List.rev acc, l)
        | x :: tl -> split (i + 1) (x :: acc) tl
      in
      split 0 [] !queued
    in
    queued := rest;
    (match List.filter (fun l -> String.trim l <> "") batch with
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
    if !eof && !queued = [] then running := false
  done
