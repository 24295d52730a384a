(** Backing store for an application kernel's segments: block allocation
    and page-granularity transfers over the simulated disk.  Paging I/O
    belongs to application kernels — the Cache Kernel never touches this.

    Page-outs are batched: {!page_out_batch} writes a batch of frames to a
    run of consecutive blocks as one sequential transfer, which is how the
    segment manager's laundering writes its dirty victims.

    The store is optionally tiered (DESIGN.md section 9): a small pinned
    local-RAM fast tier in front of the paging disk: every writeback image
    lands fast and least-recently-touched images are demoted to disk, 8 per
    {!Hw.Disk.write_images} transfer, so demotions are disk writes like any
    other.  Blocks keep their disk numbers in either tier, so the API is
    unchanged; with
    [Config.fast_tier_slots = 0] (the default) the store is the seed's
    flat single-tier implementation, bit for bit. *)

type t

val create :
  disk:Hw.Disk.t ->
  mem:Hw.Phys_mem.t ->
  events:Hw.Event_queue.t ->
  now:(unit -> Hw.Cost.cycles) ->
  t
(** A store over [disk] and [mem]; [events] and [now] are the node's event
    queue and clock, which time retries and fast-tier moves. *)

val set_fault_plane : t -> Cachekernel.Fault_inject.t -> unit
(** Route transfers through the fault-injection plane (chaos sites
    [bstore.fail], [bstore.delay]; tier moves add [tier.promote.*] and
    [tier.demote.*]).  Injected failures retry with exponential backoff;
    injected delays start the transfer late.  Without this call, transfers
    are direct. *)

val configure_tiers : t -> slots:int -> unit
(** Enable the fast tier: [slots] page images of capacity.  [slots <= 0]
    disables tiering (the flat store). *)

val set_observer :
  t ->
  service:(fast:bool -> Hw.Cost.cycles -> unit) ->
  move:(block:int -> to_fast:bool -> batch:int -> unit) ->
  unit
(** Install observability sinks for the tiered store: [service] per-tier
    fault-service latency, [move] per-block tier transitions (the
    [Tier_move] trace event).  Event counts are {!tier_promotes},
    {!tier_demotes}, {!tier_fast_hits} and {!tier_slow_hits}.  No-op on a
    flat store. *)

val alloc_block : t -> int
(** A block from the disk's allocator ({!Hw.Disk.alloc_block}). *)

val alloc_run : t -> int -> int
(** [alloc_run t n]: [n] consecutive fresh blocks from the disk's run
    allocator ({!Hw.Disk.alloc_run}); returns the first. *)

val free_block : t -> int -> unit
(** Retire any fast-tier image and in-flight tier move of the block, then
    free it on the disk, which drops its data. *)

val page_out_batch : t -> block:int -> pfns:int array -> (unit -> unit) -> unit
(** [page_out_batch t ~block ~pfns k] writes frame [pfns.(i)] to block
    [block + i] (a run from {!alloc_run}) and runs [k] once on completion.
    On the flat store the batch is one sequential disk transfer, one seek
    plus a page transfer per frame ({!Hw.Disk.write_frames}); on a tiered
    store every image lands in the fast tier, at RAM cost.  One [bstore]
    injection attempt covers the whole batch. *)

val page_in : t -> block:int -> pfn:int -> (unit -> unit) -> unit

val write_block_now : t -> block:int -> Bytes.t -> unit
(** Synchronous write of a page image (at most a page) for boot-time
    program loading and swap-out.  It replaces the block on the disk; any
    fast-tier image of the block is retired. *)

val read_block_now : t -> block:int -> Bytes.t
(** Synchronous read of the authoritative copy, whichever tier holds it
    (migration and checkpoint capture must not read a stale disk image
    behind the fast tier). *)

val checkpoint_flush : t -> (unit -> unit) -> int
(** [checkpoint_flush t k] demotes every fast-tier image to the paging disk
    as one timed {!Hw.Disk.write_images} and returns how many moved — a
    checkpoint must not depend on the volatile RAM tier.  The images leave
    the fast tier at submission; [k] runs once on the disk's completion,
    [Hw.Disk.run_latency n] later.  With nothing to flush (always on a flat
    store) it returns [0] and [k] never runs. *)

val page_ins : t -> int
val page_outs : t -> int

val retries : t -> int
(** Transfer attempts re-issued after an injected failure. *)

val fast_resident : t -> int
(** Fast-tier images held now: a block is fast exactly when the fast tier
    holds its image. *)

val tier_promotes : t -> int
val tier_demotes : t -> int
val tier_fast_hits : t -> int
val tier_slow_hits : t -> int
