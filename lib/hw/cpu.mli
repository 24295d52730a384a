(** One processor of an MPM: local clock, TLB, reverse TLB, counters.
    Each CPU carries its own local time so the engine can interleave
    processors at effect granularity. *)

type t = {
  id : int;
  tlb : Tlb.t;
  rtlb : Rtlb.t;
  mutable local_time : Cost.cycles;
  mutable busy_cycles : Cost.cycles;
  mutable idle_cycles : Cost.cycles;
  mutable switches : int;
}

val create : id:int -> t

val charge : t -> Cost.cycles -> unit
(** Charge cycles of useful work. *)

val idle_until : t -> Cost.cycles -> unit
(** Advance the clock, accounting the gap as idle. *)

val pp : t Fmt.t
