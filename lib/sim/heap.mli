(** Binary min-heap event queue with deterministic tie-breaking. *)

type entry = { time : float; core : int; index : int }
type t

val create : unit -> t
val push : t -> entry -> unit
val pop : t -> entry option

(** Int-packed min-heap over (float time, int code) pairs, each
    carrying an opaque payload int, held in parallel unboxed arrays: no
    allocation on push or pop.  Ties break on the code; the payload
    never influences pop order.  After [pop] returns [true], read the
    event back with [last_time] / [last_code] / [last_pay].  The engine
    uses the payload to decode a completion into its (window slot,
    instruction) pair. *)
module Packed_payload : sig
  type t

  val create : unit -> t
  val push : t -> float -> int -> int -> unit
  val pop : t -> bool
  val last_time : t -> float
  val last_code : t -> int
  val last_pay : t -> int
end
