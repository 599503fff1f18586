(* `pimcomp cache list` must never unmarshal a payload.  Plants a cache
   entry whose payload is a foreign Marshal value behind a valid
   header, length and MD5, then lists the cache:

   - `pimcomp compile tiny --fast --cache D` stores one entry (the
     binary is argv.(1));
   - its payload is replaced by [Marshal.to_string 0 []] and the
     `payload` line is rewritten with the new length and MD5;
   - `pimcomp cache list --dir D` must exit 0 and print one line, with
     the entry's key and the graph name `tiny`.

   Unmarshalling that payload as a program crashes the process, so the
   listing must take the name from the checked header.  Exits 1 with a
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

(* Runs [exe args], returning its exit status and standard output. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

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
  let key =
    match Sys.readdir dir with
    | [| entry |] when Filename.check_suffix entry ".pimart" ->
        plant (Filename.concat dir entry);
        Filename.chop_suffix entry ".pimart"
    | entries -> fail "expected one cache entry, found %d" (Array.length entries)
  in
  (match run exe [ "cache"; "list"; "--dir"; dir ] with
  | Unix.WEXITED 0, out -> (
      match String.split_on_char '\n' out |> List.filter (( <> ) "") with
      | [ line ] -> (
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | k :: "tiny" :: _ when k = key -> ()
          | _ -> fail "expected %s and tiny, got %S" key line)
      | lines -> fail "expected one line, got %d" (List.length lines))
  | status, _ -> fail "cache list: %s" (status_name status));
  clean_up ()
