(** The segment manager: the memory-management class library of section 3.

    Paging *policy* lives here, in user mode: frame allocation, page
    replacement, backing-store I/O, zero fill and copy-on-write — driving
    the Cache Kernel through mapping load/unload and digesting the
    referenced/modified bits out of writeback records.

    Page replacement is one hand over candidates held in per-rank FIFO
    buckets.  It walks them in ascending [rank], oldest first within a
    rank, and [keep] gives a page Clock's second chance.  The default
    rank is the page's fault count: every fault the manager serves on it,
    remembered across evictions in the segment's sparse [history], and
    halved after each 10 x F faults, F the frames the manager pages with
    ({!Frame_alloc.pageable}).  A constant rank makes one bucket, which is
    Clock.  Neither the counts nor the hand charge simulated cycles.

    Dirty victims are laundered (WSClock): the hand sets them aside and
    evicts the next clean page, and every {!launder_batch} dirty pages
    leave as one sequential write to a fresh block run
    ({!Backing_store.page_out_batch}).  A page stays resident while it is
    set aside or in flight; its frame goes when the write completes, if it
    is still unmapped and unmodified.  An evictor blocks only when the
    hand finds no clean victim, until a batch completes.

    With [Config.fault_prefetch = k > 0] a forwarded fault also maps up to
    [min k (Config.mapping_batch_max - 1)] resident, unmapped neighbours
    of the faulting page in the same batched call; the depth is fixed.

    Policy hooks ([on_segv], [keep], [rank], [on_consistency]) are
    mutable fields, the simulation analogue of overriding the C++
    library's virtual methods.  The manager alone holds the hand's queue,
    the laundry and the spaces; a policy sees only what the hand asks.

    Fault handling executes inside the faulting thread's application-kernel
    frame, so operations that wait for disk I/O block the thread on an
    address-valued signal and resume on the completion callback. *)

open Cachekernel

type env = {
  inst : Instance.t;
  kernel : unit -> Oid.t;  (** our kernel object (identifier may change) *)
  frames : Frame_alloc.t;
  store : Backing_store.t;
  threads : Thread_lib.t;  (** whose threads block on paging I/O *)
}

(** One managed address space: a stable tag, the current (cache) identifier,
    and its regions. *)
type vspace = {
  tag : int;
  mutable oid : Oid.t;
  mutable regions : Region.t list;
  mutable loaded : bool;
}

type stats = {
  mutable soft_faults : int;
  mutable zero_fills : int;
  mutable page_in_faults : int;
  mutable cow_faults : int;
  mutable protection_errors : int;
  mutable segv : int;
  mutable evictions : int;
}

type hand
(** The hand's buckets, the laundry and the fault-count aging; private to
    the manager. *)

type t = {
  env : env;
  spaces : (int, vspace) Hashtbl.t;
      (** by tag; perfbench reads it.  Elsewhere use {!list_spaces},
          {!space_by_tag} and {!release_space}. *)
  mutable next_space_tag : int;
  mutable next_segment_id : int;
  hand : hand;
  stats : stats;
  mutable on_segv : t -> Kernel_obj.fault_ctx -> unit;
      (** policy hook: no region / protection error *)
  mutable keep : Segment.t -> int -> Segment.resident -> bool;
      (** policy hook: page replacement.  [keep seg page r]: whether the
          hand passes over segment page [page], resident as [r], once more
          (clearing [r.referenced] and sending it to the back of its
          bucket).  The hand takes one lap of each bucket in ascending
          rank, in rounds; the first page not kept is the victim, and
          after 2 x (candidates) passes the next goes regardless.  Only
          the hand asks, and never about a page set aside or in flight.
          Default: Clock's test, [r.referenced || r.mappers <> []]. *)
  mutable rank : Segment.t -> int -> Segment.resident -> int;
      (** policy hook: page replacement.  [rank seg page r]: the bucket the
          hand visits the page in, lower first.  Read when the page is
          queued and again when the hand meets it; a page whose rank rose
          meanwhile moves up unvisited.  It must not change while the hand
          scans.  Default: fault frequency, [r.faults].  A constant rank
          is Clock (FIFO, with a [keep] that keeps nothing). *)
  mutable on_consistency : t -> Kernel_obj.fault_ctx -> bool;
      (** policy hook: consistency faults; a DSM layer installs its
          protocol here *)
}

val create : env -> t
val stats : t -> stats

(** {1 Spaces, segments, regions} *)

val create_space : t -> (vspace, Api.error) result
val space_by_tag : t -> int -> vspace option

val list_spaces : t -> vspace list
(** Every space the manager holds, in tag order. *)

val release_space : t -> vspace -> unit
(** The one way a space leaves its kernel: a process exits, a space
    migrates away, a landing is purged.  A segment another live space also
    attaches stays whole; in the others, page by page: the space's
    mappings of the page it shows are unloaded ({!unmap_residents}: its
    own residency, or the parent page a copy-on-write page shares
    read-only); a page another live space still maps stays for the
    hand; a page another live segment names through [Cow_of] goes to
    that segment (the others naming it then name that one); every other
    frame, and every block a file does not own, is freed.  Once the
    residencies released since the last sweep reach half the hand's
    entries, the hand drops its stale entries (order kept), so it does
    not hold a dead space's segments.  Last the Cache
    Kernel space is unloaded — unless a thread of it is still running,
    when [loaded] stays true for the caller to unload it later — and the
    space is forgotten: no tag, identifier or checkpoint reaches it. *)

val create_segment : t -> name:string -> pages:int -> Segment.t
val attach_region : t -> vspace -> Region.t -> unit

val segments : vspace -> Segment.t list
(** Unique segments of a space, in region-attach order. *)

val reload_space : t -> vspace -> (Oid.t, Api.error) result
(** Reload a written-back space (a new identifier is assigned). *)

val mark_crashed : t -> unit
(** After an MPM crash: mark every space unloaded — its identifier died
    with the node's descriptor caches, without a writeback record. *)

(** {1 Paging} *)

val launder_batch : int
(** Dirty victims per page-out write (a constant: 8). *)

val launder_max_in_flight : int
(** Laundry batches on their way to disk at once (a constant: 4).  A full
    laundry waits for room, and so does an evictor that meets it. *)

val evict_one : t -> thread:Oid.t -> int option
(** (handler context) Evict one page and return its frame, setting dirty
    victims aside on the way; the thread blocks only when the hand finds
    no clean victim, until a laundry batch completes.  [None] when nothing
    is resident, set aside or in flight. *)

val unmap_residents : t -> ?space:vspace -> Segment.resident -> unit
(** The one unload rule: unload every loaded mapping of a resident page,
    or only [space]'s.  The writebacks, digested by
    {!handle_mapping_writeback} while the spaces are still known, clear
    [mappers] and fold in the referenced and modified bits. *)

(** {1 Handlers} *)

val handle_fault : t -> Kernel_obj.fault_ctx -> unit
(** The application kernel's page-fault handler (Figure 2 step 3). *)

val handle_mapping_writeback : t -> space_tag:int -> Wb.mapping_state -> unit
(** Fold a mapping writeback's referenced/modified bits into our records. *)

val handle_space_writeback : t -> tag:int -> unit

(** {1 Boot helpers} *)

val write_segment_now : t -> Segment.t -> offset:int -> Bytes.t -> unit
(** Host-context fill of segment pages (program loading); frames must be
    available. *)
