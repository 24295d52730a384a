(** Address arithmetic for the simulated 32-bit machine: 4 KB pages,
    32-byte cache lines, and the 128-page "page groups" in which the
    system resource manager allocates physical memory (section 4.3). *)

val page_shift : int
val page_size : int
val word_size : int
val pages_per_group : int
val cache_line_size : int

val page_of : int -> int
(** Virtual or physical page number of an address. *)

val offset_of : int -> int
(** Byte offset within the page. *)

val page_base : int -> int
(** Base address of the page containing the address. *)

val group_of_page : int -> int
(** Page-group index of a page frame number. *)

val first_page_of_group : int -> int

val addr_of_page : int -> int
(** Address of the first byte of a page frame. *)

val round_up_page : int -> int
val word_aligned : int -> bool
val pp_addr : int Fmt.t
