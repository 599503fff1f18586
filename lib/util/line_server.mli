(** Request loop for line protocols (the serve daemon): blocks for the
    first complete line, opportunistically drains further lines that
    are already readable (so pipelined clients form concurrent batches
    of at most 64 lines), and hands each non-empty batch to [handle].
    Responses are written back in order, one line each, and flushed
    before the next read.  The loop ends on EOF, or when [handle]
    returns {!Stop} (its responses are still written first).  A client
    that hangs up ([ECONNRESET] on a read, [EPIPE] or [ECONNRESET] on a
    write) ends the loop like EOF; the caller must ignore [SIGPIPE] for
    a write to see [EPIPE] rather than die. *)

type verdict = Continue | Stop

val max_line_bytes : int
(** 1 MiB.  A longer line reaches [handle], in order, as its first
    [max_line_bytes] bytes, and the rest of it up to its newline is
    dropped: it still gets exactly one answer, and no line holds more
    memory than this. *)

val serve :
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  handle:(string list -> string list * verdict) ->
  unit
