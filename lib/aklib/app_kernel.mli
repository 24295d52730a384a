(** The application-kernel skeleton: "any program that is written to
    interface directly to the Cache Kernel, handling its own memory
    management, processing management and communication" (section 3).

    Composes the class libraries behind the three handler entry points of a
    kernel object and routes writeback records to the owning library.
    Policies are overridden by replacing the mutable hook fields. *)

open Cachekernel

type t = {
  inst : Instance.t;
  name : string;
  oid_ref : Oid.t ref;
  frames : Frame_alloc.t;
  disk : Hw.Disk.t;
  store : Backing_store.t;
  mgr : Segment_mgr.t;
  threads : Thread_lib.t;
  mutable own_space : Segment_mgr.vspace option;
  mutable trap_dispatch : t -> Oid.t -> Hw.Exec.payload -> Hw.Exec.payload;
      (** "system call" handler for this kernel's threads *)
  mutable on_kernel_writeback : t -> Oid.t -> string -> Wb.reason -> unit;
      (** kernel-object writebacks (the first kernel receives these) *)
  mutable draining : bool;
  mutable writebacks_processed : int;
  spec : Kernel_obj.spec;
      (** the kernel object this kernel loads as, on every load *)
}

val oid : t -> Oid.t
(** The kernel object's current Cache Kernel identifier. *)

val drain : t -> unit
(** Drain the writeback channel, dispatching records to the libraries. *)

val prepare :
  Instance.t ->
  name:string ->
  ?cpu_percent:int ->
  ?max_priority:int ->
  ?max_locked:int ->
  unit ->
  t
(** Build the libraries and the kernel-object {!field-spec} whose handlers
    close over them; the caller (boot or the SRM) loads the spec and calls
    {!install}. *)

(** {1 The one way in}

    In the caching model a kernel object is state loaded from the
    application kernel's own records, so its first load, a reload after a
    swap-out and a re-boot after a node crash are one operation: the
    loader loads {!field-spec} ({!Api.boot} for the first kernel,
    {!Api.load_kernel} by the SRM for the others) and then calls
    {!install}.  Page groups are granted once, into {!field-frames}, and
    stay there across reloads. *)

val install : t -> oid:Oid.t -> (unit, Api.error) result
(** Bind the kernel object just loaded as [oid]: set the kernel's
    identifier, {!bind_own_space}, and {!resume_threads}. *)

val bind_own_space : t -> (Segment_mgr.vspace, Api.error) result
(** The kernel's own address space, created the first time and reloaded
    if it was written back, registered with {!Api.set_kernel_space}. *)

val resume_threads : t -> unit
(** Reload every written-back (non-exited) thread. *)

val boot_first : Instance.t -> name:string -> ?groups:int list -> unit -> (t, Api.error) result
(** Prepare this kernel with full resources (the whole priority range),
    give it [groups], load it as the first kernel and {!install} it. *)

val mark_crashed : t -> unit
(** After an MPM crash: mark all library records for descriptors that died
    with the node — spaces need reloading, loaded threads restart fresh. *)

val spawn_internal :
  t ->
  priority:int ->
  ?affinity:int ->
  ?lock:bool ->
  (unit -> Hw.Exec.payload) ->
  (int, Api.error) result
(** Spawn a thread in the kernel's own address space (schedulers, daemons,
    real-time threads). *)
