(** The processing class library of section 3: "basically a thread library
    that schedules threads by loading them into the Cache Kernel rather
    than by using its own dispatcher and run queue."

    Entries are keyed by a stable local identifier (the Cache Kernel tag).
    Scheduling loads a thread; descheduling unloads it; a thread blocked on
    a long-term event is unloaded and its written-back state reloaded on
    wakeup — section 2.3's on-demand thread loading.  Loads that race a
    concurrent space writeback retry after reloading the space. *)

open Cachekernel

(** A thread that exits, migrates away or is purged has no entry at all
    ({!retire}); an entry is loaded or written back. *)
type run = Loaded | Unloaded of Thread_obj.saved option

type entry = {
  id : int;
  space_tag : int;
  mutable oid : Oid.t;
  mutable run : run;
  mutable priority : int;
  mutable affinity : int option;
  mutable lock : bool;
  body : (unit -> Hw.Exec.payload) option;
}

type t

val create :
  inst:Instance.t ->
  kernel:(unit -> Oid.t) ->
  space_oid:(int -> (Oid.t, Api.error) result) ->
  t

val entry : t -> int -> entry option
val oid_of : t -> int -> Oid.t option

val spawn :
  t ->
  space_tag:int ->
  priority:int ->
  ?affinity:int ->
  ?lock:bool ->
  (unit -> Hw.Exec.payload) ->
  (int, Api.error) result
(** Create a thread in the tagged space and load it; returns its stable
    local identifier. *)

val adopt :
  t ->
  space_tag:int ->
  priority:int ->
  ?affinity:int ->
  ?lock:bool ->
  ?saved:Thread_obj.saved ->
  ?body:(unit -> Hw.Exec.payload) ->
  unit ->
  int
(** Register a thread arriving from elsewhere (migration, checkpoint
    restore) without loading it; [schedule] loads it. *)

val retire : t -> int -> unit
(** Remove an entry whose thread no longer runs here (exited, migrated
    away, or in a purged landing); an [Exited] thread writeback does the
    same. *)

val set_forwarder : t -> (int -> va:int -> bool) -> unit
(** Install the hook consulted by {!signal} for threads with no local
    object — the migration plane's forwarding stub. *)

val signal : t -> int -> va:int -> bool
(** Raise an address-valued signal against a local thread id; signals for
    threads that migrated away are re-targeted through the forwarder.
    Returns false when the signal could be delivered nowhere. *)

val deschedule : t -> int -> (unit, Api.error) result
val schedule : t -> int -> (Oid.t, Api.error) result
val set_priority : t -> int -> int -> (unit, Api.error) result

val handle_writeback :
  t -> tag:int -> state:Thread_obj.saved -> reason:Wb.reason -> priority:int -> unit

val mark_crashed : t -> unit
(** After an MPM crash: loaded threads lost their context with the node
    and restart fresh; written-back saved states survive. *)

val running : t -> int -> bool
val exited : t -> int -> bool
(** No entry: the thread exited, was retired, or never existed. *)

val of_space : t -> int -> entry list
(** The entries of the space with the given tag, in id order. *)

val iter : t -> (entry -> unit) -> unit

val await_token : t -> thread:Oid.t -> (done_:(unit -> unit) -> unit) -> unit
(** (handler context) [await_token t ~thread start] submits I/O with
    [start ~done_] and blocks [thread] until [done_] has delivered a
    completion token, minted fresh for this wait, to it.  Delivery finds
    the thread by its local id: a thread displaced and reloaded during the
    wait (a new identifier) still gets the token, and one still written
    back finds it among its saved pending signals when it is loaded again.
    Other signals that arrive during the wait are queued on the thread
    again afterwards, in arrival order. *)
