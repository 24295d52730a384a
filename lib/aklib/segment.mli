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
      (** the page's own block, kept for the page's life: a dirty page-out
          rewrites it in place, and whoever drops the page frees it *)
  mutable mappers : (int * int) list;  (** (space tag, va) of loaded mappings *)
  mutable cow_pending : (t * int) option;
      (** optimistic residency for a deferred copy from (segment, page);
          reverted if the mapping writes back unmodified *)
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
  mutable resident_count : int;
  mutable file_backed : bool;
      (** the pages' blocks belong to a file (shared read-only program
          text): paging reads them but never writes or frees them *)
}

val create : id:int -> name:string -> pages:int -> t
val state : t -> int -> page_state
val set_state : t -> int -> page_state -> unit
val resident_count : t -> int
val iter_resident : t -> (int -> resident -> unit) -> unit
val pp : t Fmt.t
