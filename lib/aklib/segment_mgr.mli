(** The segment manager: the memory-management class library of section 3.

    Paging *policy* lives here, in user mode: frame allocation, page
    replacement (Clock with a pluggable victim hook), backing-store I/O,
    zero fill and copy-on-write — driving the Cache Kernel through mapping
    load/unload and digesting the referenced/modified bits out of
    writeback records.

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

    Policy hooks ([on_segv], [choose_victim], [on_consistency]) are
    mutable fields, the simulation analogue of overriding the C++
    library's virtual methods.

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

type t = {
  env : env;
  spaces : (int, vspace) Hashtbl.t;
  mutable next_space_tag : int;
  mutable next_segment_id : int;
  clock : (Segment.t * int * Segment.resident) Queue.t;
      (** eviction candidates in the order the Clock hand visits them; an
          entry names one residency and is skipped once the page has left
          it *)
  mutable laundry : (Segment.t * int * Segment.resident) list;
      (** dirty victims the hand set aside and has not yet written, newest
          first; they rejoin [clock] only if still in use when their batch
          completes *)
  mutable launder_in_flight : (Segment.t * int * Segment.resident) array list;
      (** laundry batches on their way to disk *)
  mutable launder_waiters : (unit -> unit) list;
      (** evictors blocked until the next batch completes *)
  stats : stats;
  mutable on_segv : t -> Kernel_obj.fault_ctx -> unit;
      (** policy hook: no region / protection error *)
  mutable choose_victim : t -> (Segment.t * int * Segment.resident) option;
      (** policy hook: page replacement (default Clock: pass over pages
          referenced since the hand's last visit or still mapped, clearing
          the bit; take the first that is neither, or the next live entry
          after 2 x queue-length passes) *)
  mutable on_consistency : t -> Kernel_obj.fault_ctx -> bool;
      (** policy hook: consistency faults; a DSM layer installs its
          protocol here *)
}

val create : env -> t
val stats : t -> stats

(** {1 Spaces, segments, regions} *)

val create_space : t -> (vspace, Api.error) result
val space_by_tag : t -> int -> vspace option
val space_by_oid : t -> Oid.t -> vspace option
val create_segment : t -> name:string -> pages:int -> Segment.t
val attach_region : t -> vspace -> Region.t -> unit
val region_of : vspace -> int -> Region.t option

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

val alloc_frame : t -> thread:Oid.t -> int option
(** (handler context) Allocate a frame, evicting as needed.  Dirty victims
    are laundered, not written on the spot; the thread blocks only when
    the hand finds no clean victim, until a laundry batch completes. *)

val evict_one : t -> thread:Oid.t -> int option
(** Evict one page and return its frame, setting dirty victims aside on
    the way (and blocking the thread, as {!alloc_frame} does, when there
    is no clean one).  [None] when nothing is resident, set aside or in
    flight. *)

val unmap_residents : t -> Segment.resident -> unit

val laundering : t -> Segment.resident -> bool
(** Whether a page is set aside or on its way to disk.  Such a page is not
    a victim until its batch completes: a [choose_victim] hook that finds
    candidates elsewhere than in [clock] should pass over it (an offered
    one only costs the hand part of its scan). *)

val ensure_resident : t -> Segment.t -> int -> thread:Oid.t -> Segment.resident option
(** (handler context) Bring a segment page into memory. *)

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
