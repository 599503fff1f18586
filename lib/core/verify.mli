(** Static verification of compiled {!Isa.t} programs — the contract
    between the compiler backend and the simulator, checked before any
    simulation runs (cf. PIMSIM-NN's ISA-as-interface and the staged
    invariants of paper §III-B/§IV).

    Three families of checks:

    - {b structural} — dependency indices in range and strictly
      backward, node provenance exists in the source graph, AG tables in
      bounds, MVMs only drive AGs mapped to their own core with the
      crossbar count of the AG table, operand sizes non-negative;
    - {b communication} — every SEND pairs with exactly one RECV of
      equal tag and bytes and mirrored endpoints, tags unique, and the
      global dependency + rendezvous graph is acyclic (a cycle is a
      guaranteed rendezvous deadlock the engine could only manifest as a
      stalled run);
    - {b resources} — the allocation trace stamped into the program
      replays through a fresh {!Memalloc} to exactly the recorded
      memory report (per-core peaks, spill), LOAD/STORE traffic in the
      instruction stream sums to the recorded global traffic, and
      per-core crossbar usage fits the {!Pimhw.Config} capacity. *)

type kind =
  | Dep_out_of_range      (** dep index negative, self or forward *)
  | Bad_operand           (** negative byte/element/window count, shape
                              mismatch between tables and [core_count] *)
  | Unknown_node          (** provenance [node_id] not in source graph *)
  | Ag_out_of_range       (** AG id outside the AG table *)
  | Ag_foreign_core       (** MVM drives an AG mapped to another core *)
  | Xbars_mismatch        (** MVM xbars differs from the AG table *)
  | Endpoint_out_of_range (** SEND/RECV peer core invalid or self *)
  | Tag_out_of_range      (** rendezvous tag outside [0, num_tags) *)
  | Duplicate_tag         (** tag used by more than one SEND or RECV *)
  | Unmatched_send        (** SEND with no RECV on its tag *)
  | Unmatched_recv        (** RECV with no SEND on its tag *)
  | Rendezvous_mismatch   (** matched pair disagrees on bytes/endpoints *)
  | Rendezvous_deadlock   (** dependency + rendezvous graph has a cycle *)
  | Memory_drift          (** stamped memory report differs from replay *)
  | Memory_overfree       (** replay reclaimed more bytes than were ever
                              live on a core: a double-free or a free of
                              something never allocated *)
  | Capacity_exceeded     (** per-core crossbars over the config limit,
                              a lifetime placement peak over the
                              scratchpad, or a single request larger
                              than the whole scratchpad *)

val kind_name : kind -> string

type violation = {
  kind : kind;
  core : int option;   (** offending core, when attributable *)
  instr : int option;  (** offending instruction index on that core *)
  message : string;    (** human-readable explanation *)
}

val pp_violation : violation Fmt.t

val run : ?graph:Nnir.Graph.t -> ?config:Pimhw.Config.t -> Isa.t -> violation list
(** All three families, in order: structural, communication, resources.
    Empty list = the program verifies.  [graph] enables node-provenance
    validation.  Without [config] the peak/spill replay is skipped for
    high-throughput programs (their scratchpad capacity is a hardware
    parameter), but global-traffic recomputation always runs. *)

val report : violation list Fmt.t
(** Multi-line rendering: one line per violation, or a clean bill. *)
