(** Simulated per-MPM clock, in cycles. *)

type t = { mutable now : Cost.cycles }

val create : unit -> t
val now : t -> Cost.cycles
val us : t -> float
val advance : t -> Cost.cycles -> unit
val pp : t Fmt.t
