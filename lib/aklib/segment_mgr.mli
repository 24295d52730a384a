(** The segment manager: the memory-management class library of section 3.

    Paging *policy* lives here, in user mode: frame allocation, page
    replacement (a Clock hand with one pluggable [keep] test),
    backing-store I/O, zero fill and copy-on-write — driving the Cache
    Kernel through mapping load/unload and digesting the
    referenced/modified bits out of writeback records.

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

    Policy hooks ([on_segv], [keep], [on_consistency]) are
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
(** The Clock hand's queue and the laundry; private to the manager. *)

type t = {
  env : env;
  spaces : (int, vspace) Hashtbl.t;
      (** by tag; perfbench reads it.  Elsewhere use {!list_spaces},
          {!space_by_tag} and {!drop_space}. *)
  mutable next_space_tag : int;
  mutable next_segment_id : int;
  hand : hand;
  stats : stats;
  mutable on_segv : t -> Kernel_obj.fault_ctx -> unit;
      (** policy hook: no region / protection error *)
  mutable keep : Segment.t -> int -> Segment.resident -> bool;
      (** policy hook: page replacement.  [keep seg page r]: whether the
          hand passes over segment page [page], resident as [r], once more
          (clearing [r.referenced]).  The first page not kept is the
          victim; after 2 x queue-length passes the next goes regardless.
          Only the hand asks, and never about a page set aside or in
          flight.  Default: Clock, [r.referenced || r.mappers <> []]. *)
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

val list_spaces : t -> vspace list
(** Every space the manager holds, in tag order. *)

val drop_space : t -> vspace -> unit
(** Forget a space its owner has released (its segments freed and its
    identifier unloaded): it no longer resolves by tag or identifier, and
    a checkpoint no longer captures it. *)

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
