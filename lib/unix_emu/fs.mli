(** A small block file system for the UNIX emulator.

    The name table and per-file block lists live in the emulator ("an open
    file table ... stored only in the application kernel", section 2.3);
    only the data blocks live on the simulated disk.  Exec loads program
    images from here.

    A write-through buffer cache of {!cache_blocks} block numbers, in FIFO
    order, decides when a file read or write touches the disk: a read of a
    cached block copies out with no disk operation; a write to a cached or
    freshly allocated block is one disk write; a write to an uncached
    existing block reads it first.  Every write blocks the calling thread
    until its disk write completes.  The cache keeps no bytes: the disk
    block's own buffer, updated at each write's submission, is the cached
    copy. *)

open Cachekernel

type file

type t

val cache_blocks : int
(** Buffer-cache capacity, in blocks. *)

val create : inst:Instance.t -> threads:Aklib.Thread_lib.t -> disk:Hw.Disk.t -> t

val cached : t -> int -> bool
(** Whether a disk block is in the buffer cache. *)

val lookup : t -> string -> file option
val exists : t -> string -> bool
val size : file -> int
val create_file : t -> string -> file
(** Create a file; an existing one is truncated in place ([O_TRUNC]): the
    same record, its blocks freed and dropped from the cache, size 0. *)

val block_of : t -> file -> int -> int
(** Disk block of a file's page-sized extent (allocated on demand). *)

val write_now : t -> file -> offset:int -> Bytes.t -> unit
(** Host-context write (boot-time population). *)

val read : t -> file -> thread:Oid.t -> offset:int -> len:int -> Bytes.t
(** (handler context) Read: cached extents are copied out, the others
    block the thread on a disk read. *)

val write : t -> file -> thread:Oid.t -> offset:int -> Bytes.t -> unit
(** (handler context) Write through, blocking the thread on each extent's
    disk write (preceded by a read for an uncached existing block). *)

val ls : t -> (string * int) list
val reads : t -> int
val writes : t -> int
