(* Simulated paging disk.

   Page-granularity backing store with seek + transfer latency, completing
   through the node's event queue.  The application-kernel memory-management
   library builds its backing store on this (the Cache Kernel itself never
   touches the disk — paging policy and I/O live in application kernels).

   The disk owns block allocation: every allocated block has one owner that
   rewrites it in place or frees it, and a freed block drops its data.

   Zero-tail invariant: a block's buffer holds the block's bytes at least up
   to its last nonzero byte, and every byte past the buffer reads as zero.
   Whole-page writes ([write_frame], [write_page_now], [import]) replace
   the block with the page's extent, its length without the zero tail; the
   buffer is reused, its tail zeroed, when the extent fits, so a steady
   stream of page-outs allocates nothing.  Range writes ([write_from],
   [write_now]) overlay: they grow the buffer to cover the range and never
   shrink it.  Costs are charged per page whatever a buffer holds.

   Transfers are DMA-style: bytes move between a block's own buffer and a
   frame or caller buffer, with no intermediate copy except the staging
   buffer that gives a frame read its snapshot-at-submission semantics. *)

type t = {
  blocks : (int, Bytes.t) Hashtbl.t; (* written block -> its buffer; absent reads as zeroes *)
  events : Event_queue.t;
  now : unit -> Cost.cycles;
  mutable reads : int;
  mutable writes : int;
  mutable next_block : int; (* lowest never-allocated block number *)
  mutable free : int list; (* freed block numbers, most recent first *)
  mutable staging : Bytes.t list; (* idle page buffers for in-flight frame reads *)
}

let create ~events ~now =
  {
    blocks = Hashtbl.create 256;
    events;
    now;
    reads = 0;
    writes = 0;
    next_block = 0;
    free = [];
    staging = [];
  }

let reads t = t.reads
let writes t = t.writes
let live_blocks t = Hashtbl.length t.blocks
let stored_bytes t = Hashtbl.fold (fun _ b n -> n + Bytes.length b) t.blocks 0

(** Allocate a block: the most recently freed one first, then never-used
    numbers in ascending order. *)
let alloc_block t =
  match t.free with
  | b :: rest ->
    t.free <- rest;
    b
  | [] ->
    let b = t.next_block in
    t.next_block <- b + 1;
    b

(** Return [block] to the allocator and drop its data: until written again
    it reads as zeroes, like a never-written block. *)
let free_block t block =
  Hashtbl.remove t.blocks block;
  t.free <- block :: t.free

let latency () = Cost.disk_seek + Cost.disk_page_transfer

(* The buffer for a whole-page write of extent [n]: the block's own when
   [n] fits, its tail past [n] zeroed, else a fresh one.  The caller fills
   the first [n] bytes. *)
let replace_buffer t block n =
  match Hashtbl.find_opt t.blocks block with
  | Some b when Bytes.length b >= n ->
    Bytes.fill b n (Bytes.length b - n) '\000';
    b
  | _ ->
    let b = Bytes.create n in
    Hashtbl.replace t.blocks block b;
    b

(* The buffer for a range write ending at [upto]: the block's own, grown
   to [upto] with its old prefix kept when shorter. *)
let overlay_buffer t block upto =
  match Hashtbl.find_opt t.blocks block with
  | Some b when Bytes.length b >= upto -> b
  | old ->
    let b = Bytes.make upto '\000' in
    Option.iter (fun o -> Bytes.blit o 0 b 0 (Bytes.length o)) old;
    Hashtbl.replace t.blocks block b;
    b

(* Replace [block] with the page image [len] bytes of [src] at [pos]. *)
let replace t ~block src ~pos ~len =
  let n = Phys_mem.extent src ~pos ~len in
  Bytes.blit src pos (replace_buffer t block n) 0 n

(* Copy [len] bytes at [off] of [block] into [dst] at [pos], zeroes past
   the block's buffer. *)
let blit_out t block ~off dst ~pos ~len =
  let have =
    match Hashtbl.find_opt t.blocks block with
    | Some b when Bytes.length b > off ->
      let n = min len (Bytes.length b - off) in
      Bytes.blit b off dst pos n;
      n
    | _ -> 0
  in
  Bytes.fill dst (pos + have) (len - have) '\000'

let check_range name ~off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Disk.%s: range %d+%d outside the block" name off len)

let complete t k = Event_queue.schedule t.events ~time:(t.now () + latency ()) k

(** DMA frame [pfn] of [mem] into [block]: the frame's extent replaces the
    block at submission; [k ()] runs on completion. *)
let write_frame t ~block mem ~pfn k =
  t.writes <- t.writes + 1;
  ignore (Phys_mem.copy_image_out mem ~pfn (replace_buffer t block));
  complete t k

(** DMA [block] into frame [pfn] of [mem]: the block is captured at
    submission into a staging buffer (one per read in flight, reused) and
    lands in the frame at completion, just before [k ()] runs. *)
let read_frame t ~block mem ~pfn k =
  t.reads <- t.reads + 1;
  if not (Hashtbl.mem t.blocks block) then
    complete t (fun () ->
        Phys_mem.zero_page mem pfn;
        k ())
  else begin
    let stage =
      match t.staging with
      | s :: rest ->
        t.staging <- rest;
        s
      | [] -> Bytes.create Addr.page_size
    in
    blit_out t block ~off:0 stage ~pos:0 ~len:Addr.page_size;
    complete t (fun () ->
        Phys_mem.copy_page_in mem ~pfn stage;
        t.staging <- stage :: t.staging;
        k ())
  end

(** Read [len] bytes at [off] of [block] into [dst] at [pos].  The bytes
    land at submission, which is the snapshot: [dst] is the caller's
    private buffer and must not be looked at before [k ()] runs. *)
let read_into t ~block ~off dst ~pos ~len k =
  check_range "read_into" ~off ~len;
  t.reads <- t.reads + 1;
  blit_out t block ~off dst ~pos ~len;
  complete t k

(** Write [len] bytes of [src] at [pos] into [block] at [off]; the bytes
    land in the block's buffer at submission, [k ()] runs on completion. *)
let write_from t ~block ~off src ~pos ~len k =
  check_range "write_from" ~off ~len;
  t.writes <- t.writes + 1;
  Bytes.blit src pos (overlay_buffer t block (off + len)) off len;
  complete t k

(** Synchronous variants for boot-time loading and capture (no latency
    modelling).  [read_now] returns a page the caller owns. *)
let read_now t ~block =
  let page = Bytes.create Addr.page_size in
  blit_out t block ~off:0 page ~pos:0 ~len:Addr.page_size;
  page

let write_now t ~block ~off src ~pos ~len =
  check_range "write_now" ~off ~len;
  Bytes.blit src pos (overlay_buffer t block (off + len)) off len

(** Replace [block] with the page image [data]. *)
let write_page_now t ~block data =
  let len = Bytes.length data in
  if len > Addr.page_size then
    invalid_arg (Printf.sprintf "Disk.write_page_now: %d-byte image" len);
  replace t ~block data ~pos:0 ~len

(** Concatenate the contents of [blocks] (checkpoint-file export); each
    read is counted like a boot-time transfer. *)
let export t ~blocks =
  let out = Bytes.create (List.length blocks * Addr.page_size) in
  List.iteri
    (fun i block ->
      t.reads <- t.reads + 1;
      blit_out t block ~off:0 out ~pos:(i * Addr.page_size) ~len:Addr.page_size)
    blocks;
  out

(** Write a byte string across freshly allocated blocks (zero-padded to
    page size); returns the blocks in order. *)
let import t data =
  let len = Bytes.length data in
  let n = max 1 ((len + Addr.page_size - 1) / Addr.page_size) in
  List.init n (fun i ->
      let off = i * Addr.page_size in
      let block = alloc_block t in
      t.writes <- t.writes + 1;
      replace t ~block data ~pos:off ~len:(min Addr.page_size (len - off));
      block)
