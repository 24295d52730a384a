(* A small block file system for the UNIX emulator.

   Section 2.3: process state like "an open file table [is] not supported
   by the Cache Kernel, and thus [is] stored only in the application
   kernel."  This is that part of the emulator: files are block lists on
   the backing-store disk, reads and writes move through disk latency
   (blocking the calling thread on an I/O-completion signal), and exec
   loads program images from here.

   The name table and per-file block lists are emulator (user-space) data;
   only the blocks themselves live on the simulated disk. *)

open Cachekernel

type file = {
  fname : string;
  mutable blocks : int array; (* block per page-sized extent *)
  mutable size : int; (* bytes *)
}

type t = {
  inst : Instance.t;
  disk : Hw.Disk.t;
  files : (string, file) Hashtbl.t;
  mutable next_token : int;
  mutable reads : int;
  mutable writes : int;
}

let create ~inst ~disk =
  { inst; disk; files = Hashtbl.create 32; next_token = 0; reads = 0; writes = 0 }

let lookup t name = Hashtbl.find_opt t.files name
let exists t name = Hashtbl.mem t.files name
let size f = f.size

(** Create a file, or truncate an existing one in place as [O_TRUNC]
    does: the same record, its blocks freed, size 0. *)
let create_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f ->
    Array.iter (Hw.Disk.free_block t.disk) f.blocks;
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

(** Host-context write (boot-time population, e.g. program images). *)
let write_now t f ~offset data =
  let len = Bytes.length data in
  let rec loop off =
    if off < len then begin
      let pos = offset + off in
      let bidx = pos / Hw.Addr.page_size in
      let in_block = pos mod Hw.Addr.page_size in
      let chunk = min (len - off) (Hw.Addr.page_size - in_block) in
      let block = block_of t f bidx in
      Hw.Disk.write_now t.disk ~block ~off:in_block data ~pos:off ~len:chunk;
      loop (off + chunk)
    end
  in
  loop 0;
  f.size <- max f.size (offset + len)

(* Blocking I/O from a syscall-handler frame: wait on a completion token. *)
let fs_token_base = 0x7A000000

let block_for_io t ~thread (start : done_:(unit -> unit) -> unit) =
  t.next_token <- t.next_token + 1;
  let token = fs_token_base + (t.next_token * 4) in
  start ~done_:(fun () ->
      match Instance.find_thread t.inst thread with
      | Some th -> Signals.post_signal t.inst th ~va:token
      | None -> ());
  let rec wait () =
    match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va when va = token -> ()
    | _ -> wait ()
  in
  wait ()

(** (handler context) Read up to [len] bytes at [offset]; blocks the
    calling thread through the disk latency of each extent touched. *)
let read t f ~thread ~offset ~len =
  t.reads <- t.reads + 1;
  let len = max 0 (min len (f.size - offset)) in
  if len = 0 then Bytes.empty
  else begin
    let out = Bytes.create len in
    let rec loop off =
      if off < len then begin
        let pos = offset + off in
        let bidx = pos / Hw.Addr.page_size in
        let in_block = pos mod Hw.Addr.page_size in
        let chunk = min (len - off) (Hw.Addr.page_size - in_block) in
        let block = block_of t f bidx in
        block_for_io t ~thread (fun ~done_ ->
            Hw.Disk.read_into t.disk ~block ~off:in_block out ~pos:off ~len:chunk done_);
        loop (off + chunk)
      end
    in
    loop 0;
    out
  end

(** (handler context) Write [data] at [offset], blocking per extent. *)
let write t f ~thread ~offset data =
  t.writes <- t.writes + 1;
  let len = Bytes.length data in
  let rec loop off =
    if off < len then begin
      let pos = offset + off in
      let bidx = pos / Hw.Addr.page_size in
      let in_block = pos mod Hw.Addr.page_size in
      let chunk = min (len - off) (Hw.Addr.page_size - in_block) in
      let block = block_of t f bidx in
      (* read-modify-write of the extent: the merge happens in the block's
         own buffer when the write is submitted, so the read moves no bytes
         but keeps its transfer time *)
      block_for_io t ~thread (fun ~done_ ->
          Hw.Disk.read_into t.disk ~block ~off:in_block Bytes.empty ~pos:0 ~len:0 (fun () ->
              Hw.Disk.write_from t.disk ~block ~off:in_block data ~pos:off ~len:chunk
                done_));
      loop (off + chunk)
    end
  in
  loop 0;
  f.size <- max f.size (offset + len)

let ls t = Hashtbl.fold (fun name f acc -> (name, f.size) :: acc) t.files []
let reads t = t.reads
let writes t = t.writes
