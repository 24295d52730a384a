(** The live-migration plane: capture → ship → apply → forward.

    The paper's writeback images are location-independent, so a migration
    is an unload at the source, a chunked transfer of the {!Codec} image
    over the transport the SRM provides, and a reload at the destination
    through the normal [Api.load_*] path (backoff and stale-id retry
    included).  Chunk loss/duplication is recovered by a retransmit
    watchdog plus idempotent reassembly and re-acks; a forwarding stub at
    the source re-targets signals raised against the old residence.

    Suspended continuations travel through an in-process registry keyed by
    (transfer id, source thread tag) — the codec carries only structural
    state (DESIGN.md section 2's register-file substitution). *)

open Cachekernel
open Aklib

(** Send closures the owner (the SRM's distributed layer) provides; the
    plane never touches the wire format itself. *)
type transport = {
  send_chunk : dst:int -> xfer:int -> seq:int -> total:int -> buf:Bytes.t -> off:int -> len:int -> unit;
      (** chunk [seq] of [total] is the [len] bytes of [buf] at [off]; the
          transport frames it and must not keep [buf] *)
  send_ack : dst:int -> xfer:int -> ok:bool -> unit;
  send_signal : dst:int -> xfer:int -> tag:int -> va:int -> unit;
  send_ctl : dst:int -> xfer:int -> op:int -> unit;
}

(** {2 Commit-protocol control ops} ([send_ctl] / {!recv_ctl} payloads).

    An acked image is *parked* at the destination (adopted, not scheduled)
    until the source's [op_commit] arrives; the source retains the encoded
    image until [op_commit_ack].  A crash of either side at any protocol
    step therefore leaves exactly one side holding an authoritative,
    runnable copy: the source until commit, the destination after. *)

val op_commit : int
val op_commit_ack : int
val op_abort : int
val op_abort_ack : int

type t

val create : ak:App_kernel.t -> node_id:int -> transport:transport -> t

val move_thread : t -> dst:int -> int -> (int, Api.error) result
(** Migrate the thread with the given local id (own-space threads only) to
    node [dst].  Returns the transfer id immediately; capture and
    shipping complete asynchronously — watch the [Migrate_acked] trace or
    the [migrate.pause_us] metric. *)

val move_space : t -> dst:int -> int -> (int, Api.error) result
(** Migrate a whole address space (tag) with its regions, segment contents
    and threads. *)

val in_flight : t -> bool
(** Any transfer not yet acked? *)

val forward_signal : t -> int -> va:int -> bool
(** Source-side stub: forward a signal aimed at a migrated-away thread
    (by its old local id) to its new residence.  False if the id never
    migrated from this node. *)

(** {1 Receive side — called by the transport owner} *)

val recv_chunk :
  t -> ?epoch:int -> src:int -> xfer:int -> seq:int -> total:int -> buf:Bytes.t -> off:int ->
  len:int -> unit -> unit
(** The part is the [len] bytes of [buf] at [off] (typically a view into
    the received frame, kept uncopied until the image is complete; [buf]
    must not change afterwards).  [epoch] is the sender's fencing epoch
    (stamped by the SRM's wire layer); a retransmission from a restarted
    source incarnation carries a higher one but a byte-identical image, so
    the landing stands.

    The chunk size is learned from the parts themselves.  A part that
    cannot belong to a well-formed transfer is dropped and counted in
    [migrate.chunks_rejected]: [total] below 1, or implying an image over
    {!Codec.max_image_bytes}, or differing from the transfer's first part;
    [seq] out of range; a non-last part empty or of a different length
    from the others; a last part longer than the others. *)

val recv_ack : t -> xfer:int -> ok:bool -> unit
val recv_signal : t -> xfer:int -> tag:int -> va:int -> unit
val recv_ctl : t -> src:int -> xfer:int -> op:int -> unit

(** {1 Failure-detector integration} *)

val peer_dead : t -> node:int -> unit
(** [node] was confirmed dead.  Un-acked transfers re-adopt immediately
    (the destination held at most a parked landing, which its restart
    purges) and owe the next incarnation an abort; transfers in the
    commit-uncertainty window wait for {!peer_rejoined} — only the
    restarted peer knows whether the copy survived (commit-ack) or was
    purged (abort-ack, and the source re-adopts then). *)

val peer_rejoined : t -> node:int -> unit
(** A confirmed-dead peer came back: re-deliver owed aborts, pending
    commits, and un-acked images to the new incarnation. *)

val purge_uncommitted : t -> unit
(** Restart step 1, before the manager reboots this node's kernels: drop
    parked (un-committed) landings and partial reassemblies so the reboot
    cannot resurrect a copy the source still owns. *)

val resume_transfers : t -> unit
(** Restart step 2, after the reboot: re-ship un-acked images, re-drive
    pending commits, re-send owed aborts — under the node's new epoch. *)

(** {1 Crash-point sweep support} *)

val set_step_hook : t -> (string -> unit) option -> unit
(** Install a hook called at each named protocol step ([src.capture],
    [src.chunk.N], [dst.chunk.N], [dst.applied], [src.acked],
    [dst.committed], [src.done]).  The sweep harness crashes the node
    inside the hook; every call site checks [halted] afterwards and cuts
    the handler short, exactly as a real crash would. *)

val set_epoch_source : t -> (unit -> int) -> unit
(** Wire the SRM's current-epoch getter in; captured images record the
    epoch they shipped under. *)

(** {1 Image helpers shared with {!Checkpoint}} *)

val space_image_of : App_kernel.t -> Segment_mgr.vspace -> Codec.space_image
val build_spaces : App_kernel.t -> Codec.space_image list -> (Segment_mgr.vspace list, string) result

val pick_movable : t -> int option
(** Lowest-id loaded, unlocked, unpinned own-space thread — the balancing
    loop's victim choice. *)
