(** The system resource manager's allocation ledger (section 3): memory in
    page groups, processors and network capacity as percentages, granted
    over extended periods for application kernels to suballocate.

    The live grants are the only record: committed processor and network
    capacity are sums over them, so free plus granted groups always
    partition the governed set. *)

type grant = private {
  kernel_name : string;
  groups : int list;
  cpu_percent : int;  (** of every processor *)
  net_percent : int;
}

type t

val create : groups:int list -> t
(** A ledger governing [groups], all free. *)

val free_group_count : t -> int

val grants : t -> grant list
(** Live (unreleased) grants, most recent first. *)

val allocate :
  t ->
  kernel_name:string ->
  group_count:int ->
  cpu_percent:int ->
  net_percent:int ->
  (grant, [ `No_memory | `No_cpu | `No_net ]) result
(** Grant [group_count] free page groups, [cpu_percent] of every processor
    and [net_percent] of network capacity, if the live grants leave room
    (at most 100% committed of each). *)

val release : t -> grant -> unit
(** Return a grant's resources to the pool.  Idempotent: releasing a grant
    that is no longer listed does nothing. *)
