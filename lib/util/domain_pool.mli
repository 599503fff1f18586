(** Generic domain pool: fan independent (pure, deterministic) closures
    out across OCaml 5 domains.

    Ordering guarantee: [map f items] returns an array whose [i]-th
    element is [f items.(i)] regardless of which domain evaluated it or
    in which order — so a parallel run is bit-identical to a sequential
    one whenever [f] itself is deterministic.  Exceptions raised by [f]
    are re-raised in the caller (with backtrace) after all domains are
    joined; a failure while spawning joins the domains spawned so far
    before re-raising, so no worker outlives the call.

    Closures must not share mutable state: pre-populate any cache before
    fanning out.  This library is a leaf — usable from both [pimcomp]
    and [pimsim] without coupling them. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map :
  ?domains:int ->
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~domains f items] evaluates [f] over [items] on a one-shot
    {!Persistent} pool of [domains] workers (default {!default_domains};
    clamped to the item count), shut down before [map] returns.
    [domains <= 1] degrades to a plain sequential [Array.map].  [spawn]
    is a test hook substituting for [Domain.spawn] (e.g. a wrapper that
    fails after k spawns, to exercise the pool's partial-spawn cleanup
    path); production callers never pass it. *)

(** Long-lived worker domains behind a job queue, for callers that issue
    many small batches (the serve daemon): domains spawn once, run
    [init] (e.g. growing the minor heap for the schedulers' allocation
    profile), and stay warm across {!Persistent.run} calls. *)
module Persistent : sig
  type t

  val create : ?domains:int -> ?init:(unit -> unit) -> unit -> t
  (** Spawns [domains] workers (default {!default_domains}, at least 1),
      each running [init] once before accepting jobs.  On a partial
      spawn failure the survivors are joined before the exception
      re-raises. *)

  val domain_count : t -> int

  val run : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Slot-ordered, deterministic results; a worker exception is
      re-raised after the whole batch has drained.  Executed on the
      pool's warm domains.  Safe to call from multiple domains.  Raises
      [Invalid_argument] after {!shutdown}. *)

  val shutdown : t -> unit
  (** Stops the workers after the queue drains and joins them.
      Idempotent. *)
end
