(* A cache entry whose checksum-valid payload is not a program.  Plants
   a foreign Marshal value behind a valid header, length and MD5, then
   drives the three commands that read the entry:

   - `pimcomp compile tiny --fast --cache D` stores one entry (the
     binary is argv.(1));
   - `pimcomp cache stats --dir D` must print `entries 1  bytes B`, B
     the entry's size, and nothing else: a fresh handle's counters are
     all 0, so the offline report is what the directory holds;
   - its payload is replaced by [Marshal.to_string 0 []] and the
     `payload` line is rewritten with the new length and MD5;
   - `pimcomp cache list --dir D` must exit 0 and print one line, with
     the entry's key and the graph name `tiny`: listing reads the
     header only;
   - `pimcomp compile tiny --fast --cache D` must exit 0, report
     `rejected 1` and recompile (a cache miss);
   - with the entry planted again, `pimcomp serve --cache D --jobs 1`
     must answer a compile of `tiny` as a miss and then a `ping`.

   Before the payload had its own decoder, the last two commands fed
   these bytes to the unmarshaller and died of SIGSEGV.  Exits 1 with a
   reason otherwise.

     cache_list.exe PATH/TO/pimcomp_cli.exe *)

let dir = Printf.sprintf "cache-list-%d" (Unix.getpid ())

let clean_up () =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      clean_up ();
      prerr_endline ("cache_list: " ^ msg);
      exit 1)
    fmt

let status_name = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Runs [exe args] with [input] on its standard input, returning its
   exit status and standard output. *)
let run ?(input = "") exe args =
  let ic, oc = Unix.open_process_args exe (Array.of_list (exe :: args)) in
  output_string oc input;
  close_out oc;
  let out = In_channel.input_all ic in
  (Unix.close_process (ic, oc), out)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Rewrites the entry with a payload that is not a program but carries
   a valid length and checksum. *)
let plant path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let header_end = ref 0 in
  for _ = 1 to 3 do
    header_end := String.index_from text !header_end '\n' + 1
  done;
  let payload = Marshal.to_string 0 [] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 !header_end);
      Printf.fprintf oc "payload %d %s\n" (String.length payload)
        (Digest.to_hex (Digest.string payload));
      output_string oc payload)

let () =
  let exe = Sys.argv.(1) in
  clean_up ();
  (match run exe [ "compile"; "tiny"; "--fast"; "--cache"; dir ] with
  | Unix.WEXITED 0, _ -> ()
  | status, _ -> fail "compile --cache: %s" (status_name status));
  let key, entry =
    match Sys.readdir dir with
    | [| entry |] when Filename.check_suffix entry ".pimart" ->
        (Filename.chop_suffix entry ".pimart", Filename.concat dir entry)
    | entries -> fail "expected one cache entry, found %d" (Array.length entries)
  in
  (match run exe [ "cache"; "stats"; "--dir"; dir ] with
  | Unix.WEXITED 0, out ->
      let expected =
        Printf.sprintf "entries 1  bytes %d\n" (Unix.stat entry).Unix.st_size
      in
      if out <> expected then fail "cache stats: expected %S, got %S" expected out
  | status, _ -> fail "cache stats: %s" (status_name status));
  plant entry;
  (match run exe [ "cache"; "list"; "--dir"; dir ] with
  | Unix.WEXITED 0, out -> (
      match String.split_on_char '\n' out |> List.filter (( <> ) "") with
      | [ line ] -> (
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | k :: "tiny" :: _ when k = key -> ()
          | _ -> fail "expected %s and tiny, got %S" key line)
      | lines -> fail "expected one line, got %d" (List.length lines))
  | status, _ -> fail "cache list: %s" (status_name status));
  (match run exe [ "compile"; "tiny"; "--fast"; "--cache"; dir ] with
  | Unix.WEXITED 0, out ->
      List.iter
        (fun sub ->
          if not (contains out sub) then
            fail "compile over the planted entry: no %S in:\n%s" sub out)
        [ "cache miss: key " ^ key; "rejected 1" ]
  | status, _ ->
      fail "compile over the planted entry: %s" (status_name status));
  plant entry;
  (match
     run exe
       [ "serve"; "--cache"; dir; "--jobs"; "1" ]
       ~input:
         "{\"op\":\"compile\",\"network\":\"tiny\",\"fast\":true}\n\
          {\"op\":\"ping\"}\n"
   with
  | Unix.WEXITED 0, out -> (
      match String.split_on_char '\n' out |> List.filter (( <> ) "") with
      | [ compile; ping ]
        when contains compile "\"outcome\":\"miss\""
             && contains compile ("\"key\":\"" ^ key ^ "\"")
             && ping = "{\"ok\":true}" ->
          ()
      | _ -> fail "serve over the planted entry answered:\n%s" out)
  | status, _ -> fail "serve over the planted entry: %s" (status_name status));
  clean_up ()
