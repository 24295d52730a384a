(** Inter-MPM interconnect: VMEbus within a chassis, fiber channel between
    chassis (Figure 4).  Delivery runs on the destination node's event
    queue after the link latency; a failed node silently drops traffic —
    the substrate for the fault-containment experiments. *)

type packet = { src : int; dst : int; data : Bytes.t; tag : int }

type port

type link_kind = Vme | Fiber

type t

val create : ?kind:link_kind -> unit -> t

val attach :
  t ->
  node_id:int ->
  deliver:(packet -> unit) ->
  now:(unit -> Cost.cycles) ->
  at:(time:Cost.cycles -> (unit -> unit) -> unit) ->
  port

val fail_node : t -> int -> unit
(** Halt a node: it stops receiving; other nodes are unaffected. *)

val restore_node : t -> int -> unit
(** Restore a failed node's port (it rebooted): it receives again. *)

val partition : t -> minority:int list -> unit
(** Sever the interconnect: nodes in [minority] form their own partition
    group and frames between the groups are dropped at send time (frames
    already on the wire still deliver).  Idempotent. *)

val heal : t -> unit
(** Heal any partition: every node rejoins one group.  Idempotent. *)

val partitioned : t -> src:int -> dst:int -> bool
val node_failed : t -> int -> bool
val sent : t -> int
val dropped : t -> int

val send : t -> src:int -> dst:int -> ?tag:int -> Bytes.t -> unit
(** Send a frame.  It waits for the sender's outbound link, occupies it
    for its serialization time, and is delivered one hop latency later.
    A frame to or from a failed node, or across a partition, is counted
    in {!dropped} instead of delivered, but still occupies the sender's
    link. *)

val broadcast : t -> src:int -> ?tag:int -> Bytes.t -> unit

val reply_bound : Cost.cycles ref
(** Lowered by every {!send} (delivered or dropped) to the earliest cycle
    a reply to that frame could arrive back at the sender — drained + 2
    hop latencies.  The multi-node engine resets it to [max_int] before
    stepping a node and uses it to bound that node's idle jumps. *)
