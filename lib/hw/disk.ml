(* Simulated paging disk.

   Page-granularity backing store with seek + transfer latency, completing
   through the node's event queue.  The application-kernel memory-management
   library builds its backing store on this (the Cache Kernel itself never
   touches the disk — paging policy and I/O live in application kernels).

   The disk owns block allocation: every allocated block has one owner that
   rewrites it in place or frees it, and a freed block drops its data.
   Transfers are DMA-style: bytes move between a block's own buffer and a
   frame or caller buffer, with no intermediate copy except the staging
   buffer that gives a frame read its snapshot-at-submission semantics. *)

type t = {
  blocks : (int, Bytes.t) Hashtbl.t; (* block number -> its page; absent reads as zeroes *)
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

(* The block's buffer, allocated zeroed on first write. *)
let buffer t block =
  match Hashtbl.find_opt t.blocks block with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.replace t.blocks block b;
    b

let check_range name ~off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Disk.%s: range %d+%d outside the block" name off len)

let complete t k = Event_queue.schedule t.events ~time:(t.now () + latency ()) k

(** DMA frame [pfn] of [mem] into [block]: the frame is captured into the
    block's buffer at submission; [k ()] runs on completion. *)
let write_frame t ~block mem ~pfn k =
  t.writes <- t.writes + 1;
  Phys_mem.copy_page_out mem ~pfn (buffer t block);
  complete t k

(** DMA [block] into frame [pfn] of [mem]: the block is captured at
    submission into a staging buffer (one per read in flight, reused) and
    lands in the frame at completion, just before [k ()] runs. *)
let read_frame t ~block mem ~pfn k =
  t.reads <- t.reads + 1;
  match Hashtbl.find_opt t.blocks block with
  | None ->
    complete t (fun () ->
        Phys_mem.zero_page mem pfn;
        k ())
  | Some b ->
    let stage =
      match t.staging with
      | s :: rest ->
        t.staging <- rest;
        s
      | [] -> Bytes.create Addr.page_size
    in
    Bytes.blit b 0 stage 0 Addr.page_size;
    complete t (fun () ->
        Phys_mem.copy_page_in mem ~pfn stage;
        t.staging <- stage :: t.staging;
        k ())

(** Read [len] bytes at [off] of [block] into [dst] at [pos].  The bytes
    land at submission, which is the snapshot: [dst] is the caller's
    private buffer and must not be looked at before [k ()] runs. *)
let read_into t ~block ~off dst ~pos ~len k =
  check_range "read_into" ~off ~len;
  t.reads <- t.reads + 1;
  (match Hashtbl.find_opt t.blocks block with
  | Some b -> Bytes.blit b off dst pos len
  | None -> Bytes.fill dst pos len '\000');
  complete t k

(** Write [len] bytes of [src] at [pos] into [block] at [off]; the bytes
    land in the block's buffer at submission, [k ()] runs on completion. *)
let write_from t ~block ~off src ~pos ~len k =
  check_range "write_from" ~off ~len;
  t.writes <- t.writes + 1;
  Bytes.blit src pos (buffer t block) off len;
  complete t k

(** Synchronous variants for boot-time loading and capture (no latency
    modelling).  [read_now] returns a copy the caller owns. *)
let read_now t ~block =
  match Hashtbl.find_opt t.blocks block with
  | Some b -> Bytes.copy b
  | None -> Bytes.make Addr.page_size '\000'

let write_now t ~block ~off src ~pos ~len =
  check_range "write_now" ~off ~len;
  Bytes.blit src pos (buffer t block) off len

(** Concatenate the contents of [blocks] (checkpoint-file export); each
    read is counted like a boot-time transfer. *)
let export t ~blocks =
  let out = Bytes.make (List.length blocks * Addr.page_size) '\000' in
  List.iteri
    (fun i block ->
      t.reads <- t.reads + 1;
      match Hashtbl.find_opt t.blocks block with
      | Some b -> Bytes.blit b 0 out (i * Addr.page_size) Addr.page_size
      | None -> ())
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
      write_now t ~block ~off:0 data ~pos:off ~len:(min Addr.page_size (len - off));
      block)
