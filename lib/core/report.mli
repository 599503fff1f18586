(** Human-readable compilation reports. *)

val pp_replication : Compile.t Fmt.t
val pp_summary : Compile.t Fmt.t
