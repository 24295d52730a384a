(** Physical segments: the application kernel's unit of memory content.
    Each page is zero-filled, resident in a frame, out on backing store, or
    a deferred copy of another segment's page (the fork path); the segment
    manager moves pages between these states and the Cache Kernel only ever
    sees the resulting mappings. *)

type resident = {
  pfn : int;
  mutable dirty : bool;
      (** the frame differs from the on-disk copy, if any: page-out before
          the frame is reused *)
  mutable backing : int option;
      (** the page's own block: a dirty page-out moves the page to a fresh
          block and frees this one, and whoever drops the page frees it *)
  mutable mappers : (int * int) list;  (** (space tag, va) of loaded mappings *)
  mutable referenced : bool;
      (** used since the hand last passed: set by a demand fault's
          mapping load and by a writeback's referenced bit, never by
          prefetch; the hand clears it *)
  mutable cow_pending : (t * int) option;
      (** optimistic residency for a deferred copy from (segment, page);
          reverted if the mapping writes back unmodified *)
  mutable faults : int;
      (** faults served on the page, this residency and the remembered
          ones before it; the segment manager halves it as it ages *)
}

and page_state =
  | Zero
  | In_memory of resident
  | On_disk of int
  | Cow_of of t * int

and t = {
  id : int;
  name : string;
  pages : int;
  table : (int, page_state) Hashtbl.t;
  mutable file_backed : bool;
      (** the pages' blocks belong to a file (shared read-only program
          text): paging reads them but never writes or frees them *)
  mutable history : (int, int) Hashtbl.t option;
      (** fault counts of pages that lost their frame, by page: sparse,
          and [None] until the segment first loses one *)
}

val resident : ?backing:int -> int -> resident
(** A fresh residency in frame [pfn]: clean, unmapped, unreferenced, no
    faults counted. *)

val create : id:int -> name:string -> pages:int -> t
val state : t -> int -> page_state
val set_state : t -> int -> page_state -> unit
