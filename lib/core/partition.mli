(** Node partitioning (paper Section IV-B): conv/FC weight matrices cut
    into Array Groups (AGs) sized to the crossbar array. *)

type info = {
  node_id : Nnir.Node.id;
  name : string;
  weight_rows : int;
  weight_cols : int;
  ags_per_replica : int;
  xbars_per_ag : int;
  windows : int;
  out_height : int;
  out_width : int;
  out_channels : int;
  output_bytes_per_window : int;
}

val ceil_div : int -> int -> int
val xbars_per_replica : info -> int
val of_node : Pimhw.Config.t -> Nnir.Graph.t -> Nnir.Node.t -> info

type table

val of_graph : Pimhw.Config.t -> Nnir.Graph.t -> table
val entries : table -> info array
val table_config : table -> Pimhw.Config.t
val table_graph : table -> Nnir.Graph.t
val num_weighted : table -> int
val entry : table -> int -> info
val index_of_node : table -> Nnir.Node.id -> int
(** Dense weighted index of a node id, or [-1]. *)

val info_of_node : table -> Nnir.Node.id -> info option

val min_xbars : table -> int
(** Crossbars required at replication 1 (feasibility floor). *)

val fit_core_count : table -> int
(** Default core-count policy: smallest count fitting the network at
    replication 1 times 1.5 (headroom for replication). *)
