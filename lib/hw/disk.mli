(** Simulated paging disk: page-granularity transfers with seek + transfer
    latency, completing through the node's event queue.  Paging policy and
    I/O live in application kernels; the Cache Kernel never touches this.

    The disk owns block allocation, and each allocated block has one owner
    that rewrites it in place or frees it.  Transfers are DMA-style blits
    between a block's own buffer and a frame or caller buffer; a read
    always returns the block's contents as of its submission.

    Zero-tail invariant: a block's buffer holds its bytes at least up to
    the last nonzero one, and every byte past the buffer reads as zero.
    Whole-page writes ({!write_frame}, {!write_page_now}, {!import})
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

val free_block : t -> int -> unit
(** Return a block to the allocator and drop its data: it reads as zeroes
    until written again. *)

val latency : unit -> Cost.cycles

val write_frame : t -> block:int -> Phys_mem.t -> pfn:int -> (unit -> unit) -> unit
(** Write a frame to a block.  The frame's extent replaces the block at
    submission; the continuation runs from the event queue on
    completion. *)

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

val read_now : t -> block:int -> Bytes.t
(** Synchronous read for boot-time loading and capture (no latency
    modelled); returns a whole page the caller owns. *)

val write_now : t -> block:int -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Synchronous counterpart of {!write_from}. *)

val write_page_now : t -> block:int -> Bytes.t -> unit
(** Synchronous whole-page write (boot loading, tier demotion, checkpoint
    flush): the page image, at most a page long, replaces the block. *)

val export : t -> blocks:int list -> Bytes.t
(** Concatenate the contents of [blocks] — how a checkpoint image leaves
    the simulated disk for a host file. *)

val import : t -> Bytes.t -> int list
(** Spread a byte string across freshly allocated blocks (zero-padded to
    page size); returns the blocks in order. *)
