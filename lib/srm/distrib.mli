(** Distributed SRM coordination across MPMs (section 3): load reports,
    co-scheduling, and the migration plane's traffic over the fiber
    channel.  Co-scheduling raises all of a gang's threads to the same
    priority across nodes at (nearly) the same instant — the pattern
    section 2.3 prescribes for large parallel programs.  When
    [Config.balance_interval_us] is set, a periodic loop migrates runnable
    threads from the most- to the least-loaded node until the spread is
    within two runnable threads.

    When [Config.heartbeat_interval_us] is set the layer also runs the
    epoch-fenced failure detector (DESIGN.md section 10): heartbeats
    piggyback load reports, silence past [Config.suspect_timeout_us] makes
    a peer [Suspect], silence past twice that — observed from a quorum of
    the cluster — makes it [Dead].  Death fences the peer's old epoch
    (stale frames are rejected), recovers its in-flight migrations, and
    the lowest-id live node drives the installed {!set_failover} callback.
    A fenced node that was merely partitioned self-fences on the next
    heartbeat it hears and rejoins through restart semantics.

    What a node knows of each other node is one record: the fence, the
    time it was last heard, the detector state and the last load report
    with its time.  A node never heard of reads as fence 1, [Alive], no
    report.  Heartbeats leave in ascending node id; load reports and
    co-schedule requests leave newest-added peer first (the interconnect
    serialises a port's frames, so the order is part of the timing). *)

open Cachekernel

type message =
  | Load_report of { node : int; runnable : int }
  | Coschedule of { gang : int; priority : int }
  | Heartbeat of { node : int; runnable : int; your_epoch : int }
      (** failure-detector beacon; [your_epoch] is the sender's fence for
          the destination — a receiver below it must self-fence *)
  | Migrate of { xfer : int; msg : Migrate.Plane.msg }
      (** one message of migration transfer [xfer]; {!decode} returns a
          [Chunk]'s bytes as a view into the frame, not a copy *)

val encode : ?epoch:int -> message -> Bytes.t
(** Frame the message with the sender's incarnation [epoch] (word 1 of the
    wire format; defaults to the boot epoch 1). *)

val decode : Bytes.t -> (int * message) option
(** [(epoch, message)].  Truncated or malformed frames decode to [None],
    never an exception.  A chunk's bytes stay in the frame; an ack word
    other than 0/1 or a control code outside 0–3 is malformed. *)

type peer_state = Alive | Suspect | Dead

type t

val start : Manager.t -> net:Hw.Interconnect.t -> t
(** Attach the SRM to the interconnect via its fiber NIC; arms the
    balancing loop and the heartbeat failure detector when configured. *)

val add_peer : t -> int -> unit
val register_gang : t -> gang:int -> Oid.t list -> unit

val report_load : t -> unit
(** Broadcast the local runnable count to all peers. *)

val coschedule : t -> gang:int -> priority:int -> unit
(** Raise the gang's priority locally and on every peer. *)

val least_loaded : t -> int option
(** Placement hint: the node with the fewest runnable threads.  The local
    node's count is always live; ties break to the lowest node id, so the
    ranking is deterministic.  {!balance_tick} uses the same ranking. *)

val balance_tick : t -> unit
(** One step of the balancing policy (also driven periodically when
    [Config.balance_interval_us] is set): if this node is the most loaded
    and the spread exceeds the hysteresis band, migrate one movable
    thread to the least-loaded node. *)

val plane : t -> Migrate.Plane.t
(** The node's migration plane (thread/space moves, forwarding stub). *)

val load_reports : t -> (int * int) list
(** Last known runnable count per node, ascending node id.  Reports older
    than [Config.load_report_stale_us] are expired (a silent node cannot
    linger as a balancing target); the local count is always live. *)

val cosched_applied : t -> (int * float) list
(** (gang, local apply time in simulated us) pairs, newest first, bounded
    to the most recent 64 — for skew measurement. *)

(** {1 Failure detection, fencing and failover} *)

val epoch : t -> int
(** This node's current incarnation number (starts at 1; bumped by
    {!rejoin} / self-fencing). *)

val fence_epoch : t -> int -> int
(** [fence_epoch t node] — the lowest epoch this node accepts from [node]:
    its highest heard epoch, or one above it once declared dead. *)

val node_state : t -> int -> peer_state
(** The detector's view of a peer ([Alive] for unknown/self). *)

val set_failover : t -> (node:int -> epoch:int -> unit) option -> unit
(** Install the failover driver the recovery leader invokes when it
    declares [node] dead; [epoch] is the fenced incarnation the node must
    rejoin with.  The harness typically maps it to the victim's
    {!rejoin}. *)

val rejoin : t -> epoch:int -> (unit, Api.error) result
(** Bring this crashed node back as incarnation [max own epoch][epoch]:
    purge un-committed migration landings, {!Manager.restart_node} from
    writeback images, restore the interconnect port, reset every peer
    record (first-sight grace, [Alive], no load report) but keep its
    fence, restart heartbeats, resume in-flight transfers under the new
    epoch, and re-report load.  Errors if the node has not crashed. *)

val heartbeat_tick : t -> unit
(** One detector step (also driven periodically when
    [Config.heartbeat_interval_us] is set): send heartbeats, advance the
    suspicion state machine, declare quorum-confirmed deaths. *)
