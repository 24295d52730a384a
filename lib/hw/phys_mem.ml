(* Physical memory of one MPM.

   Frames are allocated lazily so that configuring a large physical memory
   costs nothing until pages are touched.  Words are 32-bit little-endian,
   matching the 68040-era machine the paper measures (byte order is
   irrelevant to the experiments; only word granularity matters). *)

type t = {
  size : int; (* bytes *)
  frames : (int, Bytes.t) Hashtbl.t; (* page frame number -> contents *)
}

let create ~size =
  if size <= 0 || size mod Addr.page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of the page size";
  { size; frames = Hashtbl.create 1024 }

let size t = t.size
let pages t = t.size / Addr.page_size

(** True if [paddr] addresses a byte inside physical memory. *)
let valid t paddr = paddr >= 0 && paddr < t.size

let frame t pfn =
  match Hashtbl.find_opt t.frames pfn with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.replace t.frames pfn b;
    b

let check t paddr len =
  if paddr < 0 || paddr + len > t.size then
    invalid_arg (Printf.sprintf "Phys_mem: access 0x%x+%d out of range" paddr len)

(** Read the 32-bit word at physical address [paddr] (word aligned). *)
let read_word t paddr =
  check t paddr 4;
  assert (Addr.word_aligned paddr);
  let b = frame t (Addr.page_of paddr) in
  Int32.to_int (Bytes.get_int32_le b (Addr.offset_of paddr)) land 0xFFFFFFFF

(** Write the 32-bit word [v] at physical address [paddr] (word aligned). *)
let write_word t paddr v =
  check t paddr 4;
  assert (Addr.word_aligned paddr);
  let b = frame t (Addr.page_of paddr) in
  Bytes.set_int32_le b (Addr.offset_of paddr) (Int32.of_int (v land 0xFFFFFFFF))

let read_byte t paddr =
  check t paddr 1;
  Char.code (Bytes.get (frame t (Addr.page_of paddr)) (Addr.offset_of paddr))

let write_byte t paddr v =
  check t paddr 1;
  Bytes.set (frame t (Addr.page_of paddr)) (Addr.offset_of paddr) (Char.chr (v land 0xFF))

(** Copy [len] bytes out of physical memory starting at [paddr].  Used by
    DMA devices and the pager; may cross page boundaries. *)
let read_bytes t paddr len =
  check t paddr len;
  let out = Bytes.create len in
  let rec loop src dst remaining =
    if remaining > 0 then begin
      let off = Addr.offset_of src in
      let n = min remaining (Addr.page_size - off) in
      Bytes.blit (frame t (Addr.page_of src)) off out dst n;
      loop (src + n) (dst + n) (remaining - n)
    end
  in
  loop paddr 0 len;
  out

(** Copy [data] into physical memory starting at [paddr]. *)
let write_bytes t paddr data =
  let len = Bytes.length data in
  check t paddr len;
  let rec loop dst src remaining =
    if remaining > 0 then begin
      let off = Addr.offset_of dst in
      let n = min remaining (Addr.page_size - off) in
      Bytes.blit data src (frame t (Addr.page_of dst)) off n;
      loop (dst + n) (src + n) (remaining - n)
    end
  in
  loop paddr 0 len

(** Copy frame [pfn] into the page-sized buffer [dst]; an untouched frame
    reads as zeroes and stays unallocated. *)
let copy_page_out t ~pfn dst =
  check t (Addr.addr_of_page pfn) Addr.page_size;
  match Hashtbl.find_opt t.frames pfn with
  | Some b -> Bytes.blit b 0 dst 0 Addr.page_size
  | None -> Bytes.fill dst 0 Addr.page_size '\000'

(** Copy the page-sized buffer [src] into frame [pfn]. *)
let copy_page_in t ~pfn src =
  check t (Addr.addr_of_page pfn) Addr.page_size;
  Bytes.blit src 0 (frame t pfn) 0 Addr.page_size

(** Zero the page frame [pfn]. *)
let zero_page t pfn =
  check t (Addr.addr_of_page pfn) Addr.page_size;
  match Hashtbl.find_opt t.frames pfn with
  | None -> () (* lazily allocated pages are already zero *)
  | Some b -> Bytes.fill b 0 Addr.page_size '\000'

(** Copy page frame [src] to page frame [dst] (used for copy-on-write). *)
let copy_page t ~src ~dst =
  check t (Addr.addr_of_page src) Addr.page_size;
  check t (Addr.addr_of_page dst) Addr.page_size;
  Bytes.blit (frame t src) 0 (frame t dst) 0 Addr.page_size
