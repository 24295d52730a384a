(** Event trace of Cache Kernel activity: tests validate protocol
    sequences against it (e.g. Figure 2's six steps), examples narrate
    runs with it.  Off by default.

    Storage is a bounded ring: once [capacity] entries are live, recording
    another overwrites the oldest and increments {!dropped}, so a
    tracing-enabled run's memory is capped no matter how long it runs. *)

type event =
  | Fault_trap of { thread : Oid.t; va : int; kind : string }
  | Forward_to_kernel of { thread : Oid.t; kernel : Oid.t }
  | Handler_running of { thread : Oid.t }
  | Mapping_loaded of { space : Oid.t; va : int; pfn : int }
  | Exception_complete of { thread : Oid.t }
  | Thread_resumed of { thread : Oid.t }
  | Object_loaded of { oid : Oid.t }
  | Object_written_back of { oid : Oid.t; to_kernel : Oid.t }
  | Mapping_written_back of { space : Oid.t; va : int; to_kernel : Oid.t }
  | Signal_delivered of { thread : Oid.t; va : int; fast_path : bool }
  | Signal_queued of { thread : Oid.t; va : int }
  | Trap_forwarded of { thread : Oid.t; kernel : Oid.t }
  | Thread_preempted of { thread : Oid.t; cpu : int }
  | Thread_dispatched of { thread : Oid.t; cpu : int }
  | Quota_exceeded of { kernel : Oid.t; cpu : int }
  | Consistency_flush of { pfn : int }
  | Injected of { site : string }
  | Recovered of { site : string }
  | Audit_violation of { check : string; subject : string }
  | Audit_repaired of { check : string; subject : string }
  | Storm of { active : bool; displacements : int }
  | Forward_timeout of { thread : Oid.t; escalated : bool }
  | Migrate_out of { oid : Oid.t; dst : int; xfer : int; bytes : int }
  | Migrate_in of { xfer : int; src : int; bytes : int }
  | Migrate_acked of { xfer : int; ok : bool }
  | Migrate_forwarded of { xfer : int; va : int }
  | Checkpointed of { restore : bool; bytes : int }
  | Tier_move of { block : int; to_fast : bool; batch : int }
  | Node_suspect of { node : int }
  | Node_dead of { node : int; epoch : int }
  | Node_restart of { node : int; epoch : int }
  | Fence_reject of { src : int; epoch : int }
  | Net_partition of { healed : bool }
  | Migrate_readopt of { xfer : int }
  | Custom of string

val pp_event : event Fmt.t

val event_name : event -> string
(** Stable snake_case tag used by the JSON export. *)

type entry = { time : Hw.Cost.cycles; event : event }

type t

val default_capacity : int
(** Ring capacity used when none is given: 65536 entries. *)

val create : ?enabled:bool -> ?capacity:int -> unit -> t
val enable : t -> unit
val disable : t -> unit

val enabled : t -> bool
(** Single-branch emit guard for hot call sites: check this before
    constructing an event so a tracing-disabled run allocates nothing.
    [record] still re-checks, so skipping the guard is safe, just slower. *)

val clear : t -> unit
val record : t -> time:Hw.Cost.cycles -> event -> unit

val capacity : t -> int
val length : t -> int
(** Live entries, always [<= capacity t]. *)

val dropped : t -> int
(** Oldest entries overwritten since creation (or the last {!clear}). *)

val events : t -> event list
(** Events in chronological order. *)

val entries : t -> entry list
(** Entries in chronological order. *)

val fold : t -> ('a -> entry -> 'a) -> 'a -> 'a
(** Fold chronologically without materialising a list. *)

val iter : t -> (entry -> unit) -> unit
val pp : t Fmt.t

val to_json : t -> Json.t
(** [{capacity; length; dropped; entries: [{t_us; event; ...fields}]}]. *)
