(** The Cache Kernel call interface (section 2).

    "The primary interface to the Cache Kernel consists of operations to
    load and unload these objects, signals from the Cache Kernel to
    application kernels that a particular object is missing, and writeback
    communication to the application kernel when an object is displaced."

    Application kernels call these functions directly (the analogue of a
    trap from the kernel's own address space); user-mode threads reach the
    few calls they are allowed through trap payloads ({!Ck_yield} etc.).
    Every operation validates identifiers, checks the caller's authority,
    and charges its supervisor cycle cost to the active CPU.  A load that
    finds a full cache writes a victim back first: there is no "hard"
    out-of-descriptors error.

    Ownership (sections 2.4, 3): an object belongs to the kernel that
    loaded it, and kernel objects belong to the first kernel.  A call that
    names a space, a thread, or a mapping's space or signal thread fails
    with [Permission] unless the caller owns that object or is the first
    kernel.  Kernel-object calls are the first kernel's alone, except that a
    kernel may name its own address space ({!set_kernel_space}).  A lock
    counts against the owning kernel's [max_locked] quota, whichever of the
    two set it. *)

type error =
  | Stale_reference  (** identifier no longer names a loaded object *)
  | No_access  (** memory access array forbids the physical page *)
  | Permission  (** caller lacks authority for the operation *)
  | Limit_exceeded  (** locked-object quota or priority cap exceeded *)
  | Busy  (** object in use by the calling thread itself *)
  | No_victim  (** every descriptor is locked: nothing can be displaced *)
  | Already_mapped  (** a mapping for that page is already loaded *)
  | Bad_argument of string

val pp_error : error Fmt.t

(** Trap payloads user-mode threads may issue directly; every other trap is
    forwarded to the owning application kernel (section 2.3). *)
type Hw.Exec.payload +=
  | Ck_yield  (** give up the processor *)
  | Ck_exit  (** terminate the calling thread *)
  | Ck_wait_signal  (** suspend until an address-valued signal arrives *)
  | Ck_signal of int  (** a delivered signal: the translated address *)

(** {1 Kernel objects (section 2.4)} *)

val load_kernel :
  ?boot:bool ->
  Instance.t ->
  caller:Oid.t ->
  Kernel_obj.spec ->
  (Oid.t, error) result
(** Load a kernel object.  Only the first kernel loads kernels. *)

val unload_kernel : Instance.t -> caller:Oid.t -> Oid.t -> (unit, error) result
(** Unload a kernel: every address space, thread and mapping it owns is
    written back first — expensive, and expected to be infrequent. *)

val set_mem_access :
  Instance.t ->
  caller:Oid.t ->
  kernel:Oid.t ->
  group:int ->
  Kernel_obj.mem_access ->
  (unit, error) result
(** Grant or revoke a page group in a kernel's memory access array — one of
    the few specialized modify operations (sections 2.4, 7). *)

val set_cpu_quota :
  Instance.t -> caller:Oid.t -> kernel:Oid.t -> int array -> (unit, error) result
(** Replace a kernel's per-processor percentage allocation. *)

val set_max_priority :
  Instance.t -> caller:Oid.t -> kernel:Oid.t -> int -> (unit, error) result
(** Cap the priority the kernel may assign its threads (protects other
    kernels' real-time threads, section 4.3). *)

val set_kernel_space :
  Instance.t -> caller:Oid.t -> kernel:Oid.t -> space:Oid.t -> (unit, error) result
(** Designate a kernel's own address space (where its handlers execute). *)

(** {1 Locking (section 2)} *)

val set_lock : Instance.t -> caller:Oid.t -> Oid.t -> bool -> (unit, error) result
(** [set_lock t ~caller oid true] protects an object from writeback, within
    its owner's locked-object quota ([Limit_exceeded] past it); [false]
    releases the lock.  Setting the state it already has is [Ok].  Locked
    page-fault handlers, schedulers and trap handlers never themselves
    fault. *)

(** {1 Address spaces (section 2.1)} *)

val load_space :
  Instance.t -> caller:Oid.t -> ?lock:bool -> tag:int -> unit -> (Oid.t, error) result
(** Load an address space object with minimal state.  [tag] is an opaque
    cookie echoed in writeback records. *)

val unload_space : Instance.t -> caller:Oid.t -> Oid.t -> (unit, error) result
(** Unload a space: all its page mappings and threads are written back
    first. *)

(** {1 Threads (section 2.3)} *)

val load_thread :
  Instance.t ->
  caller:Oid.t ->
  space:Oid.t ->
  priority:int ->
  ?affinity:int option ->
  ?lock:bool ->
  tag:int ->
  start:Thread_obj.start ->
  unit ->
  (Oid.t, error) result
(** Load a thread against a loaded space, making it a candidate for
    execution.  Fails with [Stale_reference] if the space was written back
    concurrently — reload the space and retry. *)

val unload_thread : Instance.t -> caller:Oid.t -> Oid.t -> (unit, error) result
(** Deschedule and write a thread back.  If the target is the calling
    thread itself, the writeback happens at the next kernel exit. *)

val set_priority : Instance.t -> caller:Oid.t -> Oid.t -> int -> (unit, error) result
(** Modify a loaded thread's priority (the scheduling-thread optimisation
    over unload-modify-reload). *)

(** {1 Page mappings (section 2.1)} *)

type mapping_spec = {
  va : int;
  pfn : int;
  flags : Hw.Page_table.flags;
  signal_thread : Oid.t option;
  cow_dst : int option;
      (** deferred copy: [pfn] is the source, mapped read-only; on the
          first write fault the Cache Kernel copies into this destination
          frame and remaps it writable *)
  remote : bool;
      (** accesses raise a consistency fault: the authoritative copy is on
          a remote node (the distributed-shared-memory hook, section 2.1) *)
  lock : bool;
}

val mapping :
  ?flags:Hw.Page_table.flags ->
  ?signal_thread:Oid.t ->
  ?cow_dst:int ->
  ?remote:bool ->
  ?lock:bool ->
  va:int ->
  pfn:int ->
  unit ->
  mapping_spec

val load_mapping :
  Instance.t -> caller:Oid.t -> space:Oid.t -> mapping_spec -> (unit, error) result
(** Load a per-page mapping.  The physical page and access mode are checked
    against the caller's memory access array; a full cache displaces (and
    writes back) a victim mapping. *)

val unload_mapping :
  Instance.t -> caller:Oid.t -> space:Oid.t -> va:int -> (unit, error) result
(** Unload a mapping; the writeback record carries the referenced and
    modified bits the application kernel needs for paging decisions. *)

val load_mapping_and_resume :
  Instance.t -> caller:Oid.t -> space:Oid.t -> mapping_spec -> (unit, error) result
(** The combined call that loads a new mapping and returns from the
    exception handler in one crossing (section 2.1, Table 2 "optimized"). *)

val load_mappings :
  Instance.t -> caller:Oid.t -> space:Oid.t -> mapping_spec list -> (int, int * error) result
(** Batched mapping load: up to [Config.mapping_batch_max] specs through a
    single kernel crossing.  The per-call validation cost is charged once for
    the whole batch; each spec after the first costs only the marginal
    [Hw.Cost.batch_entry], so a batch of [n >= 2] is strictly cheaper in
    simulated time than [n] {!load_mapping} calls, while replacement, quota
    and stats accounting stay identical by construction (the same per-entry
    body runs).

    Partial-failure contract: [Ok n] — all [n] entries loaded.
    [Error (i, e)] — entries [0 .. i-1] loaded and stay loaded, entry [i]
    failed with [e], entries past [i] were not attempted.  Stale space
    identifiers are validated per entry: reload the space and retry the
    suffix from [i].  An empty batch is [Ok 0]; an over-long batch fails
    with [Error (0, Bad_argument _)] before anything is charged or loaded. *)

val load_mappings_and_resume :
  Instance.t -> caller:Oid.t -> space:Oid.t -> mapping_spec list -> (int, int * error) result
(** {!load_mappings} plus the combined resume of the faulting thread
    (section 2.1's optimization, batched).  By convention the first spec is
    the faulting mapping and any prefetched neighbors follow it; the resume
    is armed whenever that first entry loaded ([Ok _], or [Error (i, _)]
    with [i >= 1]), so a failed prefetch entry never forces the fault back
    onto the separate exception-complete path. *)

val redirect_signal :
  Instance.t ->
  caller:Oid.t ->
  space:Oid.t ->
  va:int ->
  thread:Oid.t option ->
  (unit, error) result
(** Rebind a loaded mapping's signal thread — how signals for an unloaded
    thread are redirected to an application kernel's internal thread
    (section 2.3).  The new thread is owner-checked like
    {!load_mapping}'s. *)

val post_signal :
  Instance.t -> caller:Oid.t -> thread:Oid.t -> va:int -> (unit, error) result
(** Deliver an address-valued signal directly to a thread (device drivers,
    I/O completion wakeups). *)

(** {1 Boot (section 3)} *)

val boot : Instance.t -> Kernel_obj.spec -> (Oid.t, error) result
(** Instantiate the first kernel: locked, full permissions on all physical
    resources, owner of every kernel object loaded thereafter. *)
