(** Communication channels over memory-based messaging (sections 2.2, 3).

    A channel is a shared two-page segment: a slotted {e data page} written
    through ordinary shared memory, and a message-mode {e bell page} whose
    writes generate address-valued signals to the receiver's signal
    thread.  Send and receive are simulated instruction streams — every
    word moves through the memory system and is charged accordingly; the
    kernel is involved only in signal delivery, never in the data path. *)

val slot_words : int
(** Payload words per message slot. *)

val slot_bytes : int
val n_slots : int

type shared = { segment : Segment.t; data_pfn : int; bell_pfn : int }
(** The pinned shared pages of a channel. *)

val create_shared : Segment_mgr.t -> name:string -> shared
(** Carve a channel out of two frames of the kernel's pool. *)

type endpoint = { data_va : int; bell_va : int }
(** One side's view of the channel in its own address space. *)

val attach :
  Segment_mgr.t ->
  Segment_mgr.vspace ->
  shared ->
  va:int ->
  role:[ `Sender | `Receiver of unit -> Cachekernel.Oid.t option ] ->
  endpoint
(** Map the channel at [va] (two pages).  The receiver supplies a callback
    resolving its signal thread, so rebindings survive refaults. *)

val send : endpoint -> slot:int -> int list -> unit
(** (thread context) Write a message into a slot and ring its bell. *)

val decode : endpoint -> int -> int option
(** Does a signal address belong to this endpoint's bell page?  Returns the
    slot. *)

val read_slot : endpoint -> slot:int -> len:int -> int list
(** (thread context) Read a message out of a slot. *)

val recv : endpoint -> int * int list
(** (thread context) Block until a message arrives; returns (slot, words). *)
