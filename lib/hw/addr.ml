(* Address arithmetic for the simulated 32-bit machine.

   The paper's prototype uses 4 KB pages and allocates physical memory to
   application kernels in "page groups" of 128 contiguous pages (512 KB),
   aligned modulo the group size (section 4.3). *)

let page_shift = 12
let page_size = 1 lsl page_shift
let word_size = 4
let pages_per_group = 128
let cache_line_size = 32

(** Virtual or physical page number of an address. *)
let page_of addr = addr lsr page_shift

(** Byte offset within the page of [addr]. *)
let offset_of addr = addr land (page_size - 1)

(** Base address of the page containing [addr]. *)
let page_base addr = addr land lnot (page_size - 1)

(** Page-group index of a page frame number. *)
let group_of_page pfn = pfn / pages_per_group

(** First page frame number of a page group. *)
let first_page_of_group g = g * pages_per_group

(** Address of the first byte of page frame [pfn]. *)
let addr_of_page pfn = pfn lsl page_shift

(** Round [n] up to a multiple of the page size. *)
let round_up_page n = (n + page_size - 1) land lnot (page_size - 1)

(** True if [addr] is word-aligned. *)
let word_aligned addr = addr land (word_size - 1) = 0

let pp_addr ppf a = Fmt.pf ppf "0x%x" a
