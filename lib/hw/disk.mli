(** Simulated paging disk: page-granularity transfers with seek + transfer
    latency, completing through the node's event queue.  Paging policy and
    I/O live in application kernels; the Cache Kernel never touches this.

    The disk owns block allocation, and each allocated block has one owner
    that rewrites it in place or frees it.  Transfers are DMA-style blits
    between a block's own buffer and a frame or caller buffer; a read
    always returns the block's contents as of its submission.

    One completion rule covers every timed transfer ({!write_frames},
    {!write_images}, {!read_frame}, {!read_into}, {!write_from}): its [n]
    pages count [n] in {!reads} or {!writes}, and its continuation runs
    once from the event queue at now + {!run_latency}[ n] — one seek, then
    one page transfer per page.  A batch of frames goes to a run of
    consecutive blocks ({!alloc_run}).  The untimed calls
    ({!read_into_now}, {!write_now}, {!write_page_now}) serve boot-time
    loading, capture and a buffer cache's hits: no count, no event.

    Zero-tail invariant: a block's buffer holds its bytes at least up to
    the last nonzero one, and every byte past the buffer reads as zero.
    Whole-page writes ({!write_frames}, {!write_images}, {!write_page_now})
    replace the block with the page's extent, so a shorter rewrite reads
    zero past it; range writes ({!write_from}, {!write_now}) overlay the
    old contents.  Simulated costs are per page regardless. *)

type t

val create : events:Event_queue.t -> now:(unit -> Cost.cycles) -> t
val reads : t -> int
val writes : t -> int

val live_blocks : t -> int
(** Blocks written and not freed since, even those whose image is empty. *)

val stored_bytes : t -> int
(** Host bytes held for block contents: the sum of the buffers' lengths. *)

val alloc_block : t -> int
(** The most recently freed block first, then never-used numbers in
    ascending order. *)

val alloc_run : t -> int -> int
(** [alloc_run t n] allocates [n] consecutive never-used blocks and returns
    the first.  Freed numbers go only to {!alloc_block}. *)

val free_block : t -> int -> unit
(** Return a block to the allocator and drop its data: it reads as zeroes
    until written again. *)

val run_latency : int -> Cost.cycles
(** A sequential transfer of [n] pages: one seek, then [n] page
    transfers. *)

val write_frames :
  t -> block:int -> Phys_mem.t -> pfns:int array -> (unit -> unit) -> unit
(** [write_frames t ~block mem ~pfns k] writes frame [pfns.(i)] to block
    [block + i], as one transfer of [run_latency n].  Each frame's extent
    replaces its block at submission and counts as one write; [k] runs once
    from the event queue on completion. *)

val write_images : t -> (int * Bytes.t) array -> (unit -> unit) -> unit
(** [write_images t images k] writes each page image [(block, data)], at
    most a page long, as one transfer of [run_latency n] for [n] images.
    Each image replaces its block at submission and counts as one write;
    [k] runs once from the event queue on completion. *)

val read_frame : t -> block:int -> Phys_mem.t -> pfn:int -> (unit -> unit) -> unit
(** Read a block into a frame.  The block is captured at submission into a
    reused staging buffer and lands in the frame on completion, just before
    the continuation runs.  Unwritten blocks read as zeroes. *)

val read_into :
  t -> block:int -> off:int -> Bytes.t -> pos:int -> len:int -> (unit -> unit) -> unit
(** [read_into t ~block ~off dst ~pos ~len k] reads [len] bytes at [off] of
    the block into [dst] at [pos].  The bytes land at submission: [dst] is
    the caller's private buffer, not to be read before [k] runs. *)

val write_from :
  t -> block:int -> off:int -> Bytes.t -> pos:int -> len:int -> (unit -> unit) -> unit
(** [write_from t ~block ~off src ~pos ~len k] writes [len] bytes of [src]
    at [pos] into the block at [off], landing at submission. *)

val read_into_now : t -> block:int -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Synchronous counterpart of {!read_into}: the bytes land at once, with
    no latency, no event and no count in {!reads}; nothing is allocated.
    A buffer cache serves its hits through this, and capture reads whole
    pages through it. *)

val write_now : t -> block:int -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Synchronous counterpart of {!write_from}. *)

val write_page_now : t -> block:int -> Bytes.t -> unit
(** Synchronous whole-page write for boot-time loading: the page image,
    at most a page long, replaces the block. *)
