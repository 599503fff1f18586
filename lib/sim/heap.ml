(* Array-based binary min-heap of timestamped events, the simulator's
   event queue.  Ties break on (core, index) so runs are deterministic. *)

type entry = { time : float; core : int; index : int }

type t = { mutable data : entry array; mutable size : int }

let dummy = { time = 0.0; core = -1; index = -1 }

let create () = { data = Array.make 256 dummy; size = 0 }

let less a b =
  a.time < b.time
  || (a.time = b.time && (a.core < b.core || (a.core = b.core && a.index < b.index)))

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h entry =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (2 * h.size) dummy in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- dummy;
    if h.size > 0 then sift_down h 0;
    Some top
  end

(* Int-packed variant for the flat-arena engine: an event is a float
   timestamp, one encoded int code (unit release or instruction
   completion) and an opaque payload int, held in three parallel
   unboxed arrays.  No records are allocated on push, no [Some] on pop —
   the popped event is read back through [last_time] / [last_code] /
   [last_pay].  Ties break on the code, which the engine encodes so that
   (code order) = (release before completion, then (core, index) order),
   reproducing the reference engine's deterministic tie-breaking
   exactly.  The payload never influences pop order; the engine uses it
   to map a completion back to its (window slot, instruction) pair.

   All indices are bounded by [size] by construction, so the sifts use
   unsafe accesses. *)
module Packed_payload = struct
  type t = {
    mutable times : float array;
    mutable codes : int array;
    mutable pays : int array;
    mutable size : int;
    mutable time0 : float; (* last popped *)
    mutable code0 : int;
    mutable pay0 : int;
  }

  let create () =
    { times = Array.make 256 0.0; codes = Array.make 256 0;
      pays = Array.make 256 0; size = 0; time0 = 0.0; code0 = -1; pay0 = -1 }

  let last_time h = h.time0
  let last_code h = h.code0
  let last_pay h = h.pay0

  let push h time code pay =
    let n = h.size in
    if n = Array.length h.times then begin
      let times = Array.make (2 * n) 0.0
      and codes = Array.make (2 * n) 0
      and pays = Array.make (2 * n) 0 in
      Array.blit h.times 0 times 0 n;
      Array.blit h.codes 0 codes 0 n;
      Array.blit h.pays 0 pays 0 n;
      h.times <- times;
      h.codes <- codes;
      h.pays <- pays
    end;
    let times = h.times and codes = h.codes and pays = h.pays in
    let i = ref n in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pt = Array.unsafe_get times parent in
      if time < pt || (time = pt && code < Array.unsafe_get codes parent)
      then begin
        Array.unsafe_set times !i pt;
        Array.unsafe_set codes !i (Array.unsafe_get codes parent);
        Array.unsafe_set pays !i (Array.unsafe_get pays parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set codes !i code;
    Array.unsafe_set pays !i pay;
    h.size <- n + 1

  let pop h =
    if h.size = 0 then false
    else begin
      let times = h.times and codes = h.codes and pays = h.pays in
      h.time0 <- Array.unsafe_get times 0;
      h.code0 <- Array.unsafe_get codes 0;
      h.pay0 <- Array.unsafe_get pays 0;
      let n = h.size - 1 in
      h.size <- n;
      if n > 0 then begin
        let time = Array.unsafe_get times n
        and code = Array.unsafe_get codes n
        and pay = Array.unsafe_get pays n in
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 in
          if l >= n then continue := false
          else begin
            let r = l + 1 in
            let lt = Array.unsafe_get times l in
            let c, ct =
              if r < n then begin
                let rt = Array.unsafe_get times r in
                if
                  rt < lt
                  || (rt = lt
                     && Array.unsafe_get codes r < Array.unsafe_get codes l)
                then (r, rt)
                else (l, lt)
              end
              else (l, lt)
            in
            if
              ct < time
              || (ct = time && Array.unsafe_get codes c < code)
            then begin
              Array.unsafe_set times !i ct;
              Array.unsafe_set codes !i (Array.unsafe_get codes c);
              Array.unsafe_set pays !i (Array.unsafe_get pays c);
              i := c
            end
            else continue := false
          end
        done;
        Array.unsafe_set times !i time;
        Array.unsafe_set codes !i code;
        Array.unsafe_set pays !i pay
      end;
      true
    end
end
