(* Tests for the serve daemon's request loop, in process: requests come
   from a temporary file, and [handle] records every line it is given
   and answers each with its length. *)

let with_input text f =
  let path = Filename.temp_file "line_server" ".in" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let input = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close input) (fun () -> f input))

let serve_text text =
  let seen = ref [] in
  let answers = Filename.temp_file "line_server" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove answers)
    (fun () ->
      let output = Unix.openfile answers [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close output)
        (fun () ->
          with_input text (fun input ->
              Pimutil.Line_server.serve ~input ~output ~handle:(fun lines ->
                  seen := !seen @ lines;
                  ( List.map (fun l -> string_of_int (String.length l)) lines,
                    Pimutil.Line_server.Continue ))));
      (!seen, In_channel.with_open_bin answers In_channel.input_all))

(* A long line shows as its first byte and its length, and as mixed
   when its bytes differ, so that a failure report stays short. *)
let summary l =
  let n = String.length l in
  if n <= 8 then l
  else
    Printf.sprintf "%c*%d%s" l.[0] n
      (if String.for_all (Char.equal l.[0]) l then "" else " mixed")

(* A line twice the cap reaches [handle] cut to the cap, the rest of it
   is dropped, and the lines after it arrive whole: a line exactly the
   cap long, even unterminated at EOF, is not cut. *)
let test_overlong_line_cut () =
  let cap = Pimutil.Line_server.max_line_bytes in
  let seen, answers =
    serve_text
      (String.make (2 * cap) 'x' ^ "\nping\n" ^ String.make cap 'y')
  in
  Alcotest.(check (list string))
    "lines given to handle"
    [ Printf.sprintf "x*%d" cap; "ping"; Printf.sprintf "y*%d" cap ]
    (List.map summary seen);
  Alcotest.(check string)
    "one answer per line"
    (Printf.sprintf "%d\n4\n%d\n" cap cap)
    answers

let test_batches_in_order () =
  let lines = List.init 150 (Printf.sprintf "request %d") in
  let seen, answers = serve_text (String.concat "\n" lines ^ "\n\n") in
  Alcotest.(check (list string)) "every line, in order" lines seen;
  Alcotest.(check int)
    "one answer per non-empty line" 150
    (List.length (String.split_on_char '\n' (String.trim answers)))

let () =
  Alcotest.run "line_server"
    [
      ( "requests",
        [
          Alcotest.test_case "overlong line cut" `Quick test_overlong_line_cut;
          Alcotest.test_case "batches in order" `Quick test_batches_in_order;
        ] );
    ]
