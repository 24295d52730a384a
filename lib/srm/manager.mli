(** The system resource manager (section 3): the first kernel on each MPM.

    Created, loaded and locked at boot with full permissions; initiates
    execution of other application kernels (kernel objects + page-group,
    processor-percentage and priority grants), owns kernel objects and
    handles their writeback, swaps application kernels out and in, and
    polices I/O rates. *)

open Cachekernel
open Aklib

type launched = {
  name : string;
  ak : App_kernel.t;
  grant : Ledger.grant;
  mutable loaded : bool;
  mutable swap_outs : int;
}

type tap = {
  tap_name : string;
  quota_per_epoch : int;
  counter : unit -> int;
  disconnect : unit -> unit;
  reconnect : unit -> unit;
  mutable last_count : int;
  mutable disconnected : bool;
  mutable penalties : int;
}

type t = {
  inst : Instance.t;
  ak : App_kernel.t;
  ledger : Ledger.t;
  mutable kernels : launched list;
  mutable taps : tap list;
  mutable kernel_writebacks : int;
  mutable misbehaving : (Oid.t * Oid.t) list;
      (** (kernel, thread) pairs escalated by the Cache Kernel's forwarding
          watchdog when a forwarded fault went unresolved *)
}

val oid : t -> Oid.t

val boot : Instance.t -> ?own_groups:int -> unit -> (t, Api.error) result
(** Boot the SRM as the first kernel; ungranted page groups form the
    allocation pool. *)

(** {1 The one way in}

    Every load of an application kernel's kernel object — {!launch},
    {!swap_in_kernel} and {!restart_node} — goes through one internal
    [install]: load the kernel's [App_kernel.spec], apply the grant
    (read-write access to its page groups, then {!Api.set_cpu_quota} with
    its processor percentage), then {!App_kernel.install}.  The grant is
    applied on every load, so a reloaded kernel runs at its grant's
    percentage, not at the one it was prepared with. *)

val launch :
  t ->
  App_kernel.t ->
  group_count:int ->
  cpu_percent:int ->
  ?net_percent:int ->
  unit ->
  (launched, Api.error) result
(** Allocate a grant, install the kernel, and give it the granted page
    groups.  A failed install releases the grant. *)

val swap_out_kernel : t -> launched -> (unit, Api.error) result
(** Unload the kernel object — every space, thread and mapping it owns is
    written back; it then consumes no Cache Kernel descriptors. *)

val swap_in_kernel : t -> launched -> (unit, Api.error) result
(** Install the kernel again (a new identifier); a no-op if loaded. *)

val restart_node : ?epoch:int -> t -> (unit, Api.error) result
(** Rebuild a crashed ({!Instance.crash}) node from writeback images:
    re-boot the SRM's kernel as the first kernel ({!Api.boot}, then
    {!App_kernel.install}), then swap every launched kernel back in.
    Threads loaded at the instant of the crash restart fresh; written-back
    state is restored (experiment X3).  Counts [srm.restart], observes the
    simulated downtime as [srm.restart_us] and traces [Node_restart] with
    [epoch] (the incarnation the node rejoins under — {!Distrib.rejoin}
    passes the fenced epoch). *)

val register_tap :
  t ->
  name:string ->
  quota_per_epoch:int ->
  counter:(unit -> int) ->
  disconnect:(unit -> unit) ->
  reconnect:(unit -> unit) ->
  tap

val police_io : t -> unit
(** One policing epoch: disconnect clients over their transfer-rate quota,
    reconnect the reformed (section 4.3). *)

val kernels : t -> launched list
val ledger : t -> Ledger.t
