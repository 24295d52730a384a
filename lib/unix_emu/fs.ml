(* A small block file system for the UNIX emulator.

   Section 2.3: process state like "an open file table [is] not supported
   by the Cache Kernel, and thus [is] stored only in the application
   kernel."  This is that part of the emulator: files are block lists on
   the backing-store disk, and exec loads program images from here.  File
   caching policy belongs here too: a bounded write-through buffer cache of
   [cache_blocks] blocks, in FIFO order, decides which reads and writes go
   to the disk (blocking the calling thread on an I/O-completion signal).

   - A read of a cached block is a copy-out from the block, with no disk
     operation; a read of an uncached block waits out a disk read.  A
     block is cached from the submission of its first transfer, the moment
     its bytes move, so a truncation during the wait still drops it.
   - A write to a cached block, or to a block the write itself allocates,
     is one disk write.  A write to an uncached existing block is a
     read-modify-write: a disk read, then the write.  Every write blocks
     until its disk write completes, so it is as durable as without the
     cache.

   The cache holds block numbers, not bytes.  The disk applies a write's
   bytes to the block's own buffer at submission, so that buffer already
   is what a write-through cache would keep; a hit blits out of it.  Only
   truncation frees file blocks, and it drops them from the cache, so a
   block the disk hands to someone else never looks cached.

   The name table and per-file block lists are emulator (user-space) data;
   only the blocks themselves live on the simulated disk. *)

open Cachekernel

type file = {
  fname : string;
  mutable blocks : int array; (* block per page-sized extent *)
  mutable size : int; (* bytes *)
}

(* The buffer cache: [ring] holds up to [cache_blocks] block numbers in
   FIFO order (-1 for an empty or invalidated slot), [hand] is the next
   slot to fill, [slot_of] maps each cached block to its slot. *)
let cache_blocks = 64

type t = {
  inst : Instance.t;
  threads : Aklib.Thread_lib.t; (* whose threads block on transfers *)
  disk : Hw.Disk.t;
  files : (string, file) Hashtbl.t;
  ring : int array;
  slot_of : (int, int) Hashtbl.t;
  mutable hand : int;
  mutable reads : int;
  mutable writes : int;
}

let create ~inst ~threads ~disk =
  {
    inst;
    threads;
    disk;
    files = Hashtbl.create 32;
    ring = Array.make cache_blocks (-1);
    slot_of = Hashtbl.create cache_blocks;
    hand = 0;
    reads = 0;
    writes = 0;
  }

let cached t block = Hashtbl.mem t.slot_of block

(* Cache [block], evicting the oldest entry if the ring is full. *)
let remember t block =
  if not (cached t block) then begin
    let old = t.ring.(t.hand) in
    if old >= 0 then Hashtbl.remove t.slot_of old;
    t.ring.(t.hand) <- block;
    Hashtbl.replace t.slot_of block t.hand;
    t.hand <- (t.hand + 1) mod cache_blocks
  end

let forget t block =
  match Hashtbl.find_opt t.slot_of block with
  | Some slot ->
    t.ring.(slot) <- -1;
    Hashtbl.remove t.slot_of block
  | None -> ()

let lookup t name = Hashtbl.find_opt t.files name
let exists t name = Hashtbl.mem t.files name
let size f = f.size

(** Create a file, or truncate an existing one in place as [O_TRUNC]
    does: the same record, its blocks freed, size 0. *)
let create_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f ->
    Array.iter
      (fun block ->
        forget t block;
        Hw.Disk.free_block t.disk block)
      f.blocks;
    f.blocks <- [||];
    f.size <- 0;
    f
  | None ->
    let f = { fname = name; blocks = [||]; size = 0 } in
    Hashtbl.replace t.files name f;
    f

let block_of t f index =
  while Array.length f.blocks <= index do
    f.blocks <- Array.append f.blocks [| Hw.Disk.alloc_block t.disk |]
  done;
  f.blocks.(index)

(* [each_extent t f ~offset ~len k] calls [k ~fresh ~block ~in_block ~pos
   ~chunk] on each page-sized extent of the [len] bytes at [offset], in
   order: [pos] is the extent's place in the caller's buffer, and [fresh]
   says the block was allocated for it just now. *)
let each_extent t f ~offset ~len k =
  let rec loop pos =
    if pos < len then begin
      let at = offset + pos in
      let bidx = at / Hw.Addr.page_size and in_block = at mod Hw.Addr.page_size in
      let chunk = min (len - pos) (Hw.Addr.page_size - in_block) in
      let fresh = bidx >= Array.length f.blocks in
      k ~fresh ~block:(block_of t f bidx) ~in_block ~pos ~chunk;
      loop (pos + chunk)
    end
  in
  loop 0

(** Host-context write (boot-time population, e.g. program images). *)
let write_now t f ~offset data =
  each_extent t f ~offset ~len:(Bytes.length data) (fun ~fresh:_ ~block ~in_block ~pos ~chunk ->
      Hw.Disk.write_now t.disk ~block ~off:in_block data ~pos ~len:chunk);
  f.size <- max f.size (offset + Bytes.length data)

(** (handler context) Read up to [len] bytes at [offset]: cached extents
    are copied out, the others block the calling thread on a disk read. *)
let read t f ~thread ~offset ~len =
  t.reads <- t.reads + 1;
  let len = max 0 (min len (f.size - offset)) in
  if len = 0 then Bytes.empty
  else begin
    let out = Bytes.create len in
    each_extent t f ~offset ~len (fun ~fresh:_ ~block ~in_block ~pos ~chunk ->
        if cached t block then begin
          (* a hit: the copy-out, at a pipe transfer's 3 cycles per word *)
          Hw.Disk.read_into_now t.disk ~block ~off:in_block out ~pos ~len:chunk;
          Instance.charge t.inst (3 * ((chunk + 3) / 4))
        end
        else
          Aklib.Thread_lib.await_token t.threads ~thread (fun ~done_ ->
              remember t block;
              Hw.Disk.read_into t.disk ~block ~off:in_block out ~pos ~len:chunk done_));
    out
  end

(** (handler context) Write [data] at [offset], blocking on one disk write
    per extent; an uncached extent the file already had is read first. *)
let write t f ~thread ~offset data =
  t.writes <- t.writes + 1;
  let len = Bytes.length data in
  each_extent t f ~offset ~len (fun ~fresh ~block ~in_block ~pos ~chunk ->
      Aklib.Thread_lib.await_token t.threads ~thread (fun ~done_ ->
          let write () = Hw.Disk.write_from t.disk ~block ~off:in_block data ~pos ~len:chunk done_ in
          let hit = fresh || cached t block in
          remember t block;
          if hit then write ()
          else
            (* read-modify-write: the merge happens in the block's own
               buffer when the write is submitted, so the read moves no
               bytes but keeps its transfer time *)
            Hw.Disk.read_into t.disk ~block ~off:in_block Bytes.empty ~pos:0 ~len:0 write));
  f.size <- max f.size (offset + len)

let ls t = Hashtbl.fold (fun name f acc -> (name, f.size) :: acc) t.files []
let reads t = t.reads
let writes t = t.writes
