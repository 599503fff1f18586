(* Decimal digits of [m <= 0], most significant first.  Working on the
   non-positive side lets [min_int] through without a special case. *)
let rec add_neg_digits buf m =
  if m <= -10 then add_neg_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then (
    Buffer.add_char buf '-';
    add_neg_digits buf n)
  else add_neg_digits buf (-n)
