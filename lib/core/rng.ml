(* Deterministic PRNG for the genetic algorithm: a splitmix-style mixer
   on the native 63-bit int (constants are the splitmix64 ones truncated
   to the word size).  Native-int arithmetic keeps every draw
   allocation-free — the GA draws tens of random numbers per child, so a
   boxed-int64 generator shows up in mapping-stage profiles.

   A dedicated generator keeps compilation reproducible for a given seed
   regardless of what else the host program does with [Random], and makes
   property-test shrinking stable. *)

type t = { mutable state : int }

let create ~seed = { state = seed }

(* 62-bit non-negative mixer output; additions and multiplications wrap
   mod the word size, as in the 64-bit original. *)
let bits t =
  t.state <- t.state + 0x1E3779B97F4A7C15;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

(* Uniform int in [0, bound), by rejection sampling: draws land in
   [0, 2^62), and any draw above the largest multiple of [bound] in that
   range is retried, so [r mod bound] is exactly uniform (a bare
   [r mod bound] over-weights small residues for non-power-of-two
   bounds).  Still deterministic: the same seed yields the same stream
   of accepted draws. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let r = ref (bits t) in
  (* The rejected partial final bucket is (max_int - rem, max_int] with
     [rem] = 2^62 mod bound < bound, so every draw at or below
     [max_int - bound + 1] is accepted without computing [rem]; the two
     divisions run only for draws above it, which are rare unless
     [bound] is a sizeable fraction of 2^62. *)
  if !r > max_int - bound + 1 then begin
    let rem = ((max_int mod bound) + 1) mod bound in
    let cutoff = max_int - rem in
    while !r > cutoff do
      r := bits t
    done
  end;
  !r mod bound

(* Split off a statistically independent child stream (splitmix-style).
   The child's initial state folds two mixer outputs into one full-width
   word ([bits] yields 62 bits; the shifted second draw fills the top),
   so the child's draw sequence mix(child_state + k*gamma) shares no
   state arithmetic with the parent's continuation — successive splits
   are as unrelated as any two mixer outputs.  Deterministic: the same
   parent state yields the same sequence of children, and splitting
   advances the parent stream by exactly two draws. *)
let split t =
  let a = bits t in
  let b = bits t in
  { state = a lxor (b lsl 31) }

let float t bound =
  let r = float_of_int (bits t lsr 9) in
  bound *. r /. 9007199254740992.0 (* 2^53 *)

let bool t = bits t land 1 = 1

(* Uniform int in [lo, hi] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
