(* Simulated paging disk.

   Page-granularity backing store with seek + transfer latency, completing
   through the node's event queue.  The application-kernel memory-management
   library builds its backing store on this (the Cache Kernel itself never
   touches the disk — paging policy and I/O live in application kernels).

   The disk owns block allocation: every allocated block has one owner that
   rewrites it in place or frees it, and a freed block drops its data.

   One completion rule: every timed transfer ([write_frames],
   [write_images], [read_frame], [read_into], [write_from]) goes through
   [submit], which counts its [n] pages as reads or writes and completes
   at now + [run_latency n] — one seek, then one page transfer per page.
   A batch of frames goes to a run of consecutive blocks ([alloc_run]);
   a batch of page images (the tiered store's demotions and checkpoint
   flush) may go anywhere.  The untimed calls ([read_into_now],
   [write_now], [write_page_now]) serve boot-time loading, capture and a
   buffer cache's hits: no count, no event.

   Zero-tail invariant: a block's buffer holds the block's bytes at least up
   to its last nonzero byte, and every byte past the buffer reads as zero.
   Whole-page writes ([write_frames], [write_images], [write_page_now])
   replace the block with the page's extent, its length without the zero
   tail; the buffer is reused, its tail zeroed, when the extent fits, and a
   block without one takes a freed block's buffer that fits, so a steady
   stream of page-outs, in place or to fresh runs, allocates next to
   nothing.  Range writes ([write_from], [write_now]) overlay: they grow
   the buffer to cover the range and never shrink it.  Costs are charged
   per page whatever a buffer holds.

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
  mutable spare : Bytes.t list; (* freed blocks' buffers, at most [spare_max] *)
}

let spare_max = 16

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
    spare = [];
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

(** Allocate [n] consecutive blocks, all never used, and return the first.
    Freed numbers are not reused here: a run must be contiguous, and the
    free list rarely holds one. *)
let alloc_run t n =
  let b = t.next_block in
  t.next_block <- b + n;
  b

(** Return [block] to the allocator and drop its data: until written again
    it reads as zeroes, like a never-written block. *)
let free_block t block =
  (match Hashtbl.find_opt t.blocks block with
  | Some b ->
    Hashtbl.remove t.blocks block;
    if List.compare_length_with t.spare spare_max < 0 then t.spare <- b :: t.spare
  | None -> ());
  t.free <- block :: t.free

(* One seek, then [n] page transfers. *)
let run_latency n = Cost.disk_seek + (n * Cost.disk_page_transfer)

(* The smallest spare buffer of at least [n] bytes, taken out of the
   pool: a page written to a fresh block mostly finds its own old one. *)
let take_spare t n =
  let better b best =
    Bytes.length b >= n
    && match best with Some c -> Bytes.length b < Bytes.length c | None -> true
  in
  let best = List.fold_left (fun best b -> if better b best then Some b else best) None t.spare in
  Option.iter (fun b -> t.spare <- List.filter (fun c -> c != b) t.spare) best;
  best

let zero_past b n =
  Bytes.fill b n (Bytes.length b - n) '\000';
  b

(* The buffer for a whole-page write of extent [n]: the block's own when
   [n] fits, else the best-fitting spare, else a fresh one; the tail past
   [n] is zeroed.  The caller fills the first [n] bytes. *)
let replace_buffer t block n =
  match Hashtbl.find_opt t.blocks block with
  | Some b when Bytes.length b >= n -> zero_past b n
  | _ ->
    let b = match take_spare t n with Some b -> zero_past b n | None -> Bytes.create n in
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
   the block's buffer; allocates nothing. *)
let blit_out t block ~off dst ~pos ~len =
  let have =
    match Hashtbl.find t.blocks block with
    | b when Bytes.length b > off ->
      let n = min len (Bytes.length b - off) in
      Bytes.blit b off dst pos n;
      n
    | _ | (exception Not_found) -> 0
  in
  Bytes.fill dst (pos + have) (len - have) '\000'

let check_range name ~off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Disk.%s: range %d+%d outside the block" name off len)

(* The one timed transfer: count [n] pages read or written, and run [k]
   from the event queue at now + [run_latency n].  The caller moves the
   bytes, at submission or inside [k]. *)
let submit t ~write n k =
  if write then t.writes <- t.writes + n else t.reads <- t.reads + n;
  Event_queue.schedule t.events ~time:(t.now () + run_latency n) k

(** DMA frames [pfns] of [mem] into the run of blocks [block],
    [block + 1], ...: each frame's extent replaces its block at submission;
    [k ()] runs once, when the last page is down. *)
let write_frames t ~block mem ~pfns k =
  Array.iteri
    (fun i pfn -> ignore (Phys_mem.copy_image_out mem ~pfn (replace_buffer t (block + i))))
    pfns;
  submit t ~write:true (Array.length pfns) k

(** Replace [block] with the page image [data]. *)
let write_page_now t ~block data =
  let len = Bytes.length data in
  if len > Addr.page_size then
    invalid_arg (Printf.sprintf "Disk.write_page_now: %d-byte image" len);
  replace t ~block data ~pos:0 ~len

(** Write the page images [(block, data)] as one transfer: each image
    replaces its block at submission; [k ()] runs once, when the last
    page is down. *)
let write_images t images k =
  Array.iter (fun (block, data) -> write_page_now t ~block data) images;
  submit t ~write:true (Array.length images) k

(** DMA [block] into frame [pfn] of [mem]: the block is captured at
    submission into a staging buffer (one per read in flight, reused) and
    lands in the frame at completion, just before [k ()] runs. *)
let read_frame t ~block mem ~pfn k =
  if not (Hashtbl.mem t.blocks block) then
    submit t ~write:false 1 (fun () ->
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
    submit t ~write:false 1 (fun () ->
        Phys_mem.copy_page_in mem ~pfn stage;
        t.staging <- stage :: t.staging;
        k ())
  end

(** Read [len] bytes at [off] of [block] into [dst] at [pos].  The bytes
    land at submission, which is the snapshot: [dst] is the caller's
    private buffer and must not be looked at before [k ()] runs. *)
let read_into t ~block ~off dst ~pos ~len k =
  check_range "read_into" ~off ~len;
  blit_out t block ~off dst ~pos ~len;
  submit t ~write:false 1 k

(** Write [len] bytes of [src] at [pos] into [block] at [off]; the bytes
    land in the block's buffer at submission, [k ()] runs on completion. *)
let write_from t ~block ~off src ~pos ~len k =
  check_range "write_from" ~off ~len;
  Bytes.blit src pos (overlay_buffer t block (off + len)) off len;
  submit t ~write:true 1 k

(** Copy [len] bytes at [off] of [block] into [dst] at [pos] at once:
    no latency, no count, no allocation — a buffer cache's hit path, and
    capture's whole-page read. *)
let read_into_now t ~block ~off dst ~pos ~len =
  check_range "read_into_now" ~off ~len;
  blit_out t block ~off dst ~pos ~len

let write_now t ~block ~off src ~pos ~len =
  check_range "write_now" ~off ~len;
  Bytes.blit src pos (overlay_buffer t block (off + len)) off len
