(** Statistics model of the MPM's shared second-level cache (4-8 MB,
    32-byte lines): a direct-mapped tag array tracking hits, misses and
    message-mode updates; contents live in {!Phys_mem}.  The size bounds
    the tag array; its storage is allocated as lines are first filled. *)

type t

val create : ?size_bytes:int -> ?line_size:int -> unit -> t
val hits : t -> int
val misses : t -> int
val message_updates : t -> int
val reset_stats : t -> unit

val access : t -> int -> [ `Hit | `Miss ]
(** Access the line containing a physical address. *)

val message_write : t -> int -> [ `Hit | `Miss ]
(** A write to a message-mode line: updated in place without ownership,
    per ParaDiGM's message-oriented consistency (section 2.2). *)
