(** A small block file system for the UNIX emulator.

    The name table and per-file block lists live in the emulator ("an open
    file table ... stored only in the application kernel", section 2.3);
    only the data blocks live on the simulated disk.  File reads and
    writes block the calling thread through per-extent disk latency; exec
    loads program images from here. *)

open Cachekernel

type file

type t

val create : inst:Instance.t -> disk:Hw.Disk.t -> t

val lookup : t -> string -> file option
val exists : t -> string -> bool
val size : file -> int
val create_file : t -> string -> file
(** Create a file; an existing one is truncated in place ([O_TRUNC]): the
    same record, its blocks freed, size 0. *)

val block_of : t -> file -> int -> int
(** Disk block of a file's page-sized extent (allocated on demand). *)

val write_now : t -> file -> offset:int -> Bytes.t -> unit
(** Host-context write (boot-time population). *)

val read : t -> file -> thread:Oid.t -> offset:int -> len:int -> Bytes.t
(** (handler context) Read, blocking the thread through disk latency. *)

val write : t -> file -> thread:Oid.t -> offset:int -> Bytes.t -> unit

val ls : t -> (string * int) list
val reads : t -> int
val writes : t -> int
