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

val write_sub : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** [write_sub t paddr data ~pos ~len] writes the [len] bytes of [data] at
    [pos], without copying them out first. *)

val extent : Bytes.t -> pos:int -> len:int -> int
(** [extent b ~pos ~len] is the length of those bytes of [b] without
    their zero tail. *)

val copy_image_out : t -> pfn:int -> (int -> Bytes.t) -> Bytes.t
(** [copy_image_out t ~pfn into] DMAs a frame up to its last nonzero
    byte, [n] bytes, into the start of [into n] (at least [n] long) and
    returns that buffer; an untouched frame has [n = 0]. *)

val image : t -> pfn:int -> Bytes.t
(** A fresh copy of a frame up to its last nonzero byte (its {e page
    image}); an untouched frame gives an empty one. *)

val copy_page_in : t -> pfn:int -> Bytes.t -> unit
(** DMA a page image (at most a page long) into a frame; the frame reads
    zero past the image. *)

val zero_page : t -> int -> unit
(** Zero a page frame. *)

val copy_page : t -> src:int -> dst:int -> unit
(** Copy one page frame to another (deferred-copy completion). *)
