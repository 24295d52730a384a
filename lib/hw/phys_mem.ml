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

(** Copy the [len] bytes of [data] at [pos] into physical memory
    starting at [paddr]. *)
let write_sub t paddr data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Phys_mem.write_sub: range outside the source";
  check t paddr len;
  let rec loop dst src remaining =
    if remaining > 0 then begin
      let off = Addr.offset_of dst in
      let n = min remaining (Addr.page_size - off) in
      Bytes.blit data src (frame t (Addr.page_of dst)) off n;
      loop (dst + n) (src + n) (remaining - n)
    end
  in
  loop paddr pos len

(** Copy [data] into physical memory starting at [paddr]. *)
let write_bytes t paddr data = write_sub t paddr data ~pos:0 ~len:(Bytes.length data)

(* The end of [b]'s bytes from [pos] up to [i] without their zero tail:
   whole 64-bit words first, then bytes. *)
let rec tail_words b ~pos i =
  if i - pos >= 8 && Bytes.get_int64_ne b (i - 8) = 0L then tail_words b ~pos (i - 8)
  else tail_bytes b ~pos i

and tail_bytes b ~pos i =
  if i > pos && Bytes.get b (i - 1) = '\000' then tail_bytes b ~pos (i - 1) else i

(** Length of the [len] bytes of [b] at [pos] without their zero tail,
    scanned a 64-bit word at a time from the end. *)
let extent b ~pos ~len = tail_words b ~pos (pos + len) - pos

(** Copy frame [pfn] up to its last nonzero byte, [n] bytes, into the
    start of [into n] and return that buffer; an untouched frame has
    [n = 0]. *)
let copy_image_out t ~pfn into =
  check t (Addr.addr_of_page pfn) Addr.page_size;
  match Hashtbl.find_opt t.frames pfn with
  | None -> into 0
  | Some b ->
    let n = extent b ~pos:0 ~len:Addr.page_size in
    let dst = into n in
    Bytes.blit b 0 dst 0 n;
    dst

(** A fresh copy of frame [pfn] up to its last nonzero byte. *)
let image t ~pfn = copy_image_out t ~pfn Bytes.create

(** Load frame [pfn] from the page image [src]: its bytes, then zeroes to
    the end of the page. *)
let copy_page_in t ~pfn src =
  check t (Addr.addr_of_page pfn) Addr.page_size;
  let n = Bytes.length src in
  if n > Addr.page_size then invalid_arg "Phys_mem.copy_page_in: image longer than a page";
  let b = frame t pfn in
  Bytes.blit src 0 b 0 n;
  Bytes.fill b n (Addr.page_size - n) '\000'

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
