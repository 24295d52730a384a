(** Backing store for an application kernel's segments: block allocation
    and page-granularity transfers over the simulated disk.  Paging I/O
    belongs to application kernels — the Cache Kernel never touches this.

    The store is optionally tiered (DESIGN.md section 9): a small pinned
    local-RAM fast tier in front of the paging disk: every writeback image
    lands fast and least-recently-touched images are demoted to disk.
    Blocks keep their disk
    numbers in either tier, so the API is unchanged; with
    [Config.fast_tier_slots = 0] (the default) the store is the seed's
    flat single-tier implementation, bit for bit. *)

type t

val create : disk:Hw.Disk.t -> mem:Hw.Phys_mem.t -> t

val set_fault_plane :
  t ->
  fi:Cachekernel.Fault_inject.t ->
  events:Hw.Event_queue.t ->
  now:(unit -> Hw.Cost.cycles) ->
  unit
(** Route transfers through the fault-injection plane (chaos sites
    [bstore.fail], [bstore.delay]; tier moves add [tier.promote.*] and
    [tier.demote.*]).  Injected failures retry with exponential backoff on
    [events]; injected delays start the transfer late.  Without this call,
    transfers are direct. *)

val configure_tiers :
  t ->
  slots:int ->
  batch:int ->
  events:Hw.Event_queue.t ->
  now:(unit -> Hw.Cost.cycles) ->
  unit
(** Enable the fast tier: [slots] page images of capacity, demotions
    batched [batch] blocks per framed disk transfer.  [slots <= 0]
    disables tiering (the flat store). *)

val set_observer :
  t ->
  count:(string -> unit) ->
  service:(fast:bool -> Hw.Cost.cycles -> unit) ->
  move:(block:int -> to_fast:bool -> batch:int -> unit) ->
  unit
(** Install observability sinks for the tiered store: [count] per-event
    counters ([tier.hit.fast], [tier.promote], ...), [service] per-tier
    fault-service latency, [move] per-block tier transitions (the
    [Tier_move] trace event).  No-op on a flat store. *)

val tiers_enabled : t -> bool

val alloc_block : t -> int
(** A block from the disk's allocator ({!Hw.Disk.alloc_block}). *)

val free_block : t -> int -> unit
(** Retire any fast-tier image and in-flight tier move of the block, then
    free it on the disk, which drops its data. *)

val page_out : t -> ?block:int -> pfn:int -> (int -> unit) -> unit
(** Write a frame to a block (fresh unless supplied: a page that already
    owns a block rewrites it in place); the continuation receives the
    block on completion.  On a tiered store the image lands
    in the fast tier, at RAM cost. *)

val page_in : t -> block:int -> pfn:int -> (unit -> unit) -> unit

val write_block_now : t -> block:int -> Bytes.t -> unit
(** Synchronous write of a page image (at most a page) for boot-time
    program loading and swap-out.  It replaces the block on the disk; any
    fast-tier image of the block is retired. *)

val read_block_now : t -> block:int -> Bytes.t
(** Synchronous read of the authoritative copy, whichever tier holds it
    (migration and checkpoint capture must not read a stale disk image
    behind the fast tier). *)

val checkpoint_flush : t -> int
(** Synchronously demote every fast-tier image to the paging disk and
    return how many moved — a checkpoint must not depend on the volatile
    RAM tier.  [0] on a flat store. *)

val audit_tiers : t -> repair:bool -> (string * string * string * bool) list
(** Per-tier conservation check (check name ["tier"]): every writeback
    image lives in exactly one tier and the derived fast-resident count
    matches a recount.  Returns [(check, subject, detail, repaired)] rows
    in {!Cachekernel.Audit} hook format. *)

val encode_batch : (int * int * Bytes.t) list -> Bytes.t
(** The framing of one demotion batch: [(block, generation, page image)]
    entries, length-prefixed and checksummed as one [CKT1] frame. *)

val decode_batch : Bytes.t -> ((int * int * Bytes.t) list, string) result
(** Verify and unpack a demotion frame.  A bad magic or checksum, a
    truncated entry or a payload length outside [0..page_size] is an
    [Error]; it never raises. *)

val corrupt_tier_for_test :
  t -> [ `Orphan_image | `Missing_image | `Drift ] -> bool
(** Seed one tier-conservation violation (audit tests only).  Returns
    [false] when there is no fast-tier image to corrupt. *)

val page_ins : t -> int
val page_outs : t -> int

val retries : t -> int
(** Transfer attempts re-issued after an injected failure. *)

val fast_resident : t -> int
val tier_promotes : t -> int
val tier_demotes : t -> int
val tier_fast_hits : t -> int
val tier_slow_hits : t -> int
