(** Physical memory of one MPM: lazily allocated 4 KB frames holding
    32-bit little-endian words. *)

type t

val create : size:int -> t
(** [create ~size] with [size] a positive multiple of the page size. *)

val size : t -> int
val pages : t -> int

val valid : t -> int -> bool
(** Does the physical address fall inside memory? *)

val read_word : t -> int -> int
(** Read the word at a word-aligned physical address. *)

val write_word : t -> int -> int -> unit

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val read_bytes : t -> int -> int -> Bytes.t
(** DMA-style bulk read; may cross page boundaries. *)

val write_bytes : t -> int -> Bytes.t -> unit

val copy_page_out : t -> pfn:int -> Bytes.t -> unit
(** DMA a whole frame out into a page-sized buffer. *)

val copy_page_in : t -> pfn:int -> Bytes.t -> unit
(** DMA a page-sized buffer into a frame. *)

val zero_page : t -> int -> unit
(** Zero a page frame. *)

val copy_page : t -> src:int -> dst:int -> unit
(** Copy one page frame to another (deferred-copy completion). *)
