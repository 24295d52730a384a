(** The live-migration plane: capture → ship → apply → forward.

    The paper's writeback images are location-independent, so a migration
    is an unload at the source, a chunked transfer of the {!Codec} image,
    and a reload at the destination through the normal [Api.load_*] path
    (stale-id retry included).  Everything the plane puts on the wire is
    one {!msg}, handed to the [send] function its owner (the SRM's
    distributed layer) provides, and everything it receives comes back
    through {!recv}; the plane never touches the wire format itself.
    Chunk loss/duplication is recovered by a retransmit watchdog plus
    idempotent reassembly and re-acks; a forwarding stub at the source
    re-targets signals raised against the old residence.

    Commit protocol: an applied image is *parked* at the destination
    (adopted, not scheduled) until the source's [Commit] arrives; the
    source retains the encoded image until [Commit_ack].  A crash of
    either side at any protocol step therefore leaves exactly one side
    holding an authoritative, runnable copy: the source until commit, the
    destination after.

    Suspended continuations travel through an in-process registry keyed by
    (transfer id, source thread tag) — the codec carries only structural
    state (DESIGN.md section 2's register-file substitution). *)

open Cachekernel
open Aklib

(** One message of a transfer; every one travels with its transfer id. *)
type msg =
  | Chunk of { seq : int; total : int; buf : Bytes.t; off : int; len : int }
      (** src → dst: part [seq] of [total] is the [len] bytes of [buf] at
          [off]; [send] copies them into its frame and keeps no reference
          to [buf] *)
  | Applied  (** dst → src: the image is applied and parked *)
  | Refused  (** dst → src: the image could not be decoded or applied *)
  | Signal of { tag : int; va : int }
      (** src stub → dst: a signal for the thread the source knew as [tag] *)
  | Commit  (** src → dst: schedule the parked threads *)
  | Commit_ack  (** dst → src: scheduled; the source frees the image *)
  | Abort  (** src → dst: the source re-adopted; purge the landing *)
  | Abort_ack  (** dst → src: purged (or never landed) *)

type t

val create : ak:App_kernel.t -> node_id:int -> send:(dst:int -> xfer:int -> msg -> unit) -> t

val move_thread : t -> dst:int -> int -> (int, Api.error) result
(** Migrate the thread with the given local id (own-space threads only) to
    node [dst].  Returns the transfer id immediately; capture and
    shipping complete asynchronously — watch the [Migrate_acked] trace or
    the [migrate.pause_us] metric. *)

val move_space : t -> dst:int -> int -> (int, Api.error) result
(** Migrate a whole address space (tag) with its regions, segment contents
    and threads; the kernel's own space does not move. *)

val in_flight : t -> bool
(** Any outgoing transfer not yet commit-acked (still shipping, or acked
    and awaiting the destination's [Commit_ack])? *)

val forward_signal : t -> int -> va:int -> bool
(** Source-side stub: forward a signal aimed at a migrated-away thread
    (by its old local id) to its new residence.  If the transfer was
    given back and the thread re-adopted here under a fresh id, the stub
    stays and delivers through the re-adoption.  False if the id never
    migrated from this node. *)

val recv : t -> src:int -> xfer:int -> msg -> unit
(** A message of transfer [xfer] from node [src] (epoch fencing happens
    before the plane, in the SRM's wire layer).

    A [Chunk]'s bytes may be a view into the received frame: they are
    kept uncopied until the image is complete, so [buf] must not change
    afterwards.  A part of a transfer that has already landed is answered
    with a fresh [Applied] and otherwise ignored: a retransmission,
    possibly from a restarted source incarnation, carries a byte-identical
    image, so the landing stands.  The chunk size is learned from the
    parts themselves.  A part that cannot belong to a well-formed
    transfer is dropped and counted in [migrate.chunks_rejected]: [total]
    below 1, or implying an image over {!Codec.max_image_bytes}, or
    differing from the transfer's first part; [seq] out of range; a
    non-last part empty or of a different length from the others; a last
    part longer than the others.

    A [Signal] is delivered at once if the transfer's landing is
    committed, and otherwise waits until the commit schedules the thread
    (or the landing is purged). *)

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

(** {1 Capture and adoption, shared with {!Checkpoint}} *)

val space_image_of : App_kernel.t -> Segment_mgr.vspace -> Codec.space_image

val image_of :
  App_kernel.t ->
  ?program:(Thread_lib.entry -> string) ->
  ?own:Thread_lib.entry list ->
  xfer:int ->
  Segment_mgr.vspace list ->
  Codec.image
(** Passive capture of [spaces] (the kernel's own left out: the adopting
    kernel brings its own) with all their threads, plus the own-space
    threads [own] bound to no space; threads in id order, stamped [xfer]
    and named by [program] (default [""]). *)

val adopt_image :
  App_kernel.t ->
  bind:(Codec.thread_image -> Thread_obj.saved option * (unit -> Hw.Exec.payload) option) ->
  Codec.image ->
  (Segment_mgr.vspace list * (int * int) list, string) result
(** Build the image's spaces and adopt its threads unscheduled, each bound
    to its space or else to the kernel's own, with the saved state and
    body [bind] gives.  Returns the spaces in image order and (image
    thread tag, local id) pairs.  On a refusal nothing stays built. *)

val pick_movable : t -> int option
(** Lowest-id loaded, unlocked, unpinned own-space thread — the balancing
    loop's victim choice. *)
