(* Statistics model of the MPM's software-controlled second-level cache.

   The prototype shares 4-8 MB of second-level cache (32-byte lines) among
   the four processors of an MPM.  The experiments that need it (MP3D page
   locality, miss accounting in section 4.3) only require hit/miss counts,
   so the model is a direct-mapped tag array; contents live in
   {!Phys_mem}.  The size is the replacement bound: the tags are kept in
   chunks of [chunk_lines] lines, each allocated by the first fill that
   lands in it, and an absent chunk reads as all-invalid. *)

let chunk_bits = 12
let chunk_lines = 1 lsl chunk_bits

type t = {
  line_shift : int;
  n_lines : int;
  chunks : int array array; (* [||] = never filled; -1 = invalid, otherwise line tag *)
  mutable hits : int;
  mutable misses : int;
  mutable message_updates : int;
      (* writes to message-mode lines: updated in place without ownership,
         per the ParaDiGM message-oriented consistency (section 2.2 note) *)
}

let create ?(size_bytes = 8 * 1024 * 1024) ?(line_size = Addr.cache_line_size) () =
  let line_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 line_size 0
  in
  let n_lines = size_bytes / line_size in
  let n_chunks = (n_lines + chunk_lines - 1) / chunk_lines in
  { line_shift; n_lines; chunks = Array.make n_chunks [||]; hits = 0; misses = 0;
    message_updates = 0 }

let hits t = t.hits
let misses t = t.misses
let message_updates t = t.message_updates

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.message_updates <- 0

let line_of t paddr = paddr lsr t.line_shift

(** Access the line containing [paddr].  Returns [`Hit] or [`Miss] and
    updates the tag array; a miss models a line fill. *)
let access t paddr =
  let line = line_of t paddr in
  let idx = line mod t.n_lines in
  let c = idx lsr chunk_bits and off = idx land (chunk_lines - 1) in
  let tags = t.chunks.(c) in
  if Array.length tags > 0 && tags.(off) = line then begin
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let tags =
      if Array.length tags > 0 then tags
      else begin
        let fresh = Array.make (min chunk_lines (t.n_lines - (c lsl chunk_bits))) (-1) in
        t.chunks.(c) <- fresh;
        fresh
      end
    in
    tags.(off) <- line;
    `Miss
  end

(** A write to a message-mode line: counted separately because ParaDiGM's
    message-oriented consistency lets the sender write without taking
    ownership of the line. *)
let message_write t paddr =
  t.message_updates <- t.message_updates + 1;
  access t paddr
