(* Two requests that must end only their own conversation, never the
   daemon.  Starts `pimcomp serve --socket S --jobs 1` (the binary is
   argv.(1)), then:

   - a client sends one compile and closes without reading;
   - the next client asks to compile a directory named `*.nnt` and then
     pings, and expects an error answer followed by the ping's;
   - it then expects `ping` and `shutdown` to be answered and the daemon
     to exit 0.

   Exits 1 with a reason otherwise.

     serve_hangup.exe PATH/TO/pimcomp_cli.exe *)

let deadline = Unix.gettimeofday () +. 60.0
let socket_path = Printf.sprintf "serve-hangup-%d.sock" (Unix.getpid ())
let dir_nnt = Printf.sprintf "serve-hangup-%d.nnt" (Unix.getpid ())

let clean_up () =
  (try Sys.remove socket_path with Sys_error _ -> ());
  try Sys.rmdir dir_nnt with Sys_error _ -> ()

let fail daemon fmt =
  Printf.ksprintf
    (fun msg ->
      (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
      clean_up ();
      prerr_endline ("serve_hangup: " ^ msg);
      exit 1)
    fmt

let status_name = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let check_alive daemon =
  match Unix.waitpid [ Unix.WNOHANG ] daemon with
  | 0, _ -> ()
  | _, status -> fail daemon "daemon died early: %s" (status_name status)

(* Retries until the daemon listens, failing if it dies first. *)
let rec connect daemon =
  check_alive daemon;
  if Unix.gettimeofday () > deadline then fail daemon "timed out connecting";
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect daemon

let send fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  assert (n = Bytes.length b)

(* Reads until [lines] newlines have arrived or the peer closes. *)
let read_lines daemon fd lines =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let count () =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
      (Buffer.contents buf)
  in
  let closed = ref false in
  while (not !closed) && count () < lines do
    let wait = deadline -. Unix.gettimeofday () in
    if wait <= 0.0 then fail daemon "timed out waiting for answers";
    match Unix.select [ fd ] [] [] wait with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> closed := true
        | n -> Buffer.add_subbytes buf chunk 0 n
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true)
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = Sys.argv.(1) in
  let daemon =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket_path; "--jobs"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let hang_up = connect daemon in
  send hang_up "{\"op\":\"compile\",\"network\":\"tiny\",\"fast\":true}\n";
  Unix.close hang_up;
  Sys.mkdir dir_nnt 0o755;
  let client = connect daemon in
  send client
    ("{\"op\":\"compile\",\"network\":\"" ^ dir_nnt
   ^ "\"}\n{\"op\":\"ping\"}\n");
  (match read_lines daemon client 2 with
  | [ error; "{\"ok\":true}" ]
    when String.starts_with ~prefix:"{\"ok\":false" error ->
      ()
  | answers ->
      fail daemon "directory compile and ping got %d answer(s): [%s]"
        (List.length answers) (String.concat "; " answers));
  send client "{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n";
  (match read_lines daemon client 2 with
  | [ "{\"ok\":true}"; "{\"ok\":true}" ] -> ()
  | answers ->
      fail daemon "ping and shutdown got %d answer(s): [%s]"
        (List.length answers) (String.concat "; " answers));
  Unix.close client;
  let rec wait_exit () =
    match Unix.waitpid [ Unix.WNOHANG ] daemon with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then
          fail daemon "daemon did not exit after shutdown";
        Unix.sleepf 0.05;
        wait_exit ()
    | _, Unix.WEXITED 0 -> clean_up ()
    | _, status -> fail daemon "daemon ended with %s" (status_name status)
  in
  wait_exit ()
