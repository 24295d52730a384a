(** 68040-style three-level page tables: 512-byte top- and second-level
    tables, 256-byte third-level tables mapping 64 pages each — the
    structure the paper's space-overhead argument is built on (sections
    4.1 and 5.2). *)

type flags = {
  writable : bool;
  cachable : bool;
  message_mode : bool;  (** page participates in memory-based messaging *)
}

val rw : flags
val ro : flags
val message : flags

(** A page-table entry.  Shared by reference with the TLB and the mapping
    cache, so flag and frame updates are seen everywhere at once. *)
type entry = {
  mutable frame : int;
  mutable flags : flags;
  mutable referenced : bool;  (** set by translation *)
  mutable modified : bool;  (** set by write translation *)
  mutable remote : bool;
      (** backing memory is remote or failed: accesses raise a consistency
          fault (section 2.1) *)
}

val make_entry : ?remote:bool -> frame:int -> flags:flags -> unit -> entry

type t

val root_table_bytes : int
val mid_table_bytes : int
val leaf_table_bytes : int

val create : unit -> t

val count : t -> int
(** Number of mapped pages. *)

val lookup : t -> int -> entry option * int
(** [lookup t va] returns the entry mapping [va]'s page and the number of
    table levels walked (for cost accounting). *)

val insert : t -> int -> entry -> entry option
(** Install a mapping, allocating intermediate tables; returns any entry it
    replaced. *)

val remove : t -> int -> entry option
(** Remove a mapping; empty intermediate tables are freed. *)

val iter : t -> (int -> entry -> unit) -> unit
val to_list : t -> (int * entry) list

val space_bytes : t -> int
(** Bytes consumed by the table structure itself. *)
