(* The Cache Kernel call interface (section 2).

   "The primary interface to the Cache Kernel consists of operations to
   load and unload these objects, signals from the Cache Kernel to
   application kernels that a particular object is missing, and writeback
   communication to the application kernel when an object is displaced."

   Every operation validates its identifiers (stale ones fail and the
   application kernel retries after reloading), checks the caller's
   authority (the ownership rule {!owned}, plus page-group access for
   mappings), and charges the cycle cost of the supervisor work it
   performs.  Loads that find a full cache first write back a
   victim, exactly like a hardware cache: the application kernel never sees
   a "hard" out-of-descriptors error, only more writeback traffic. *)

open Instance

type error =
  | Stale_reference (* identifier no longer names a loaded object *)
  | No_access (* memory access array forbids the physical page *)
  | Permission (* caller lacks authority for the operation *)
  | Limit_exceeded (* locked-object quota or priority cap exceeded *)
  | Busy (* object in use by the calling thread itself *)
  | No_victim (* every descriptor is locked: nothing can be displaced *)
  | Already_mapped (* a mapping for that page is already loaded *)
  | Bad_argument of string

let pp_error ppf = function
  | Stale_reference -> Fmt.string ppf "stale reference"
  | No_access -> Fmt.string ppf "no access to physical page"
  | Permission -> Fmt.string ppf "permission denied"
  | Limit_exceeded -> Fmt.string ppf "resource limit exceeded"
  | Busy -> Fmt.string ppf "object busy"
  | No_victim -> Fmt.string ppf "all descriptors locked"
  | Already_mapped -> Fmt.string ppf "already mapped"
  | Bad_argument s -> Fmt.pf ppf "bad argument: %s" s

let ( let* ) = Result.bind

(* Trap payloads for the calls a user-mode thread may make directly;
   everything else a user thread traps is forwarded to its application
   kernel (section 2.3). *)
type Hw.Exec.payload +=
  | Ck_yield  (** give up the processor *)
  | Ck_exit  (** terminate the calling thread *)
  | Ck_wait_signal  (** suspend until an address-valued signal arrives *)
  | Ck_signal of int  (** delivered signal: the translated virtual address *)

let require_kernel t oid =
  match find_kernel t oid with Some k -> Ok k | None -> Error Stale_reference

let require_space t oid =
  match find_space t oid with Some s -> Ok s | None -> Error Stale_reference

let require_thread t oid =
  match find_thread t oid with Some th -> Ok th | None -> Error Stale_reference

(* Space lookup on the object-load paths (load_thread, load_mapping),
   through the injection plane: chaos site [stale.load] forces the exact
   [Stale_reference] a concurrent space writeback would have produced, so
   the application-kernel reload-and-retry protocol is exercised on
   demand.  The retry after an injection observes [After_inject] and is
   counted as the recovery, keeping inject/recover balanced. *)
let require_space_for_load t oid =
  match Fault_inject.stale_load t.fi with
  | Fault_inject.Inject ->
    Fault_inject.inject t.fi ~site:"stale.load";
    Error Stale_reference
  | Fault_inject.After_inject ->
    Fault_inject.recover t.fi ~site:"stale.load";
    require_space t oid
  | Fault_inject.Pass -> require_space t oid

(* The one ownership rule (sections 2.4, 3): only the kernel that owns an
   object, or the first kernel, may act on it.  Kernel objects are owned by
   the first kernel. *)
let owned t ~caller owner =
  if Oid.equal caller owner || Oid.equal caller t.first_kernel then Ok ()
  else Error Permission

(* The locked-object quota of the kernel a new lock would count against. *)
let lock_budget t ~owner =
  let* k = require_kernel t owner in
  if k.Kernel_obj.locked_count >= k.Kernel_obj.max_locked then Error Limit_exceeded
  else Ok ()

(* A load into a full cache first writes a victim back (section 4.2):
   [Ok displaced], or [No_victim] when nothing can be displaced. *)
let room ~full free =
  if not full then Ok false else if free () then Ok true else Error No_victim

(* The shared tail of a successful object load. *)
let loaded t counter ~displaced oid =
  Stats.loaded counter ~displaced;
  trace t (Trace.Object_loaded { oid });
  Ok oid

(* -- Kernel objects (section 2.4) -- *)

(** Load a kernel object.  Only the first kernel (the system resource
    manager) loads kernels; the boot path passes [~boot:true]. *)
let load_kernel ?(boot = false) t ~caller (spec : Kernel_obj.spec) =
  charge t Config.c_validate;
  let* () = if boot then Ok () else owned t ~caller t.first_kernel in
  let* () =
    if Array.length spec.Kernel_obj.cpu_percent = n_cpus t then Ok ()
    else Error (Bad_argument "cpu_percent arity")
  in
  let k = Kernel_obj.create ~n_cpus:(n_cpus t) ~n_groups:(n_groups t) spec in
  let* displaced =
    room ~full:(Caches.Kernel_cache.is_full t.kernels) (fun () ->
        Replacement.make_room t ~metric:"victim_scan.kernel"
          ~scan_length:(fun () -> Caches.Kernel_cache.last_scan_length t.kernels)
          (Caches.Kernel_cache.victim t.kernels)
          (fun v -> Replacement.unload_kernel_now t ~reason:Wb.Displaced v = `Done))
  in
  charge t
    (Config.c_slot_alloc + Config.c_kernel_init
    + Config.descriptor_copy Config.kernel_desc_bytes);
  match Caches.Kernel_cache.load t.kernels k with
  | None -> Error No_victim
  | Some oid -> loaded t t.stats.Stats.kernels ~displaced oid

let unload_kernel t ~caller oid =
  charge t Config.c_validate;
  let* () = owned t ~caller t.first_kernel in
  let* k = require_kernel t oid in
  if Oid.equal oid t.first_kernel then Error Permission
  else
    match Replacement.unload_kernel_now t ~reason:Wb.Requested k with
    | `Done -> Ok ()
    | `Busy -> Error Busy

(* The "small number of special query and modify operations" added as
   optimisations over unload-modify-reload (sections 2.4, 7). *)

(** Grant or revoke a page group in [kernel]'s memory access array. *)
let set_mem_access t ~caller ~kernel ~group access =
  charge t (Config.c_validate + Config.c_access_check);
  let* () = owned t ~caller t.first_kernel in
  let* k = require_kernel t kernel in
  if group < 0 || group >= n_groups t then Error (Bad_argument "group")
  else begin
    Kernel_obj.set_access k ~group access;
    Ok ()
  end

(** Replace [kernel]'s per-processor percentage allocation. *)
let set_cpu_quota t ~caller ~kernel percent =
  charge t Config.c_validate;
  let* () = owned t ~caller t.first_kernel in
  let* k = require_kernel t kernel in
  if Array.length percent <> n_cpus t then Error (Bad_argument "percent arity")
  else if Array.exists (fun p -> p < 0 || p > 100) percent then
    Error (Bad_argument "percent range")
  else begin
    Array.blit percent 0 k.Kernel_obj.cpu_percent 0 (Array.length percent);
    Quota.reset_epoch k;
    Ok ()
  end

(** Cap the priority [kernel] may assign to its threads. *)
let set_max_priority t ~caller ~kernel priority =
  charge t Config.c_validate;
  let* () = owned t ~caller t.first_kernel in
  let* k = require_kernel t kernel in
  if priority < 0 || priority >= Config.priorities then
    Error (Bad_argument "priority")
  else begin
    k.Kernel_obj.max_priority <- priority;
    Ok ()
  end

(** Designate [space] as [kernel]'s own address space: the space its
    handler frames execute in and the one exception stacks live in.  Set by
    the kernel itself (or the first kernel) after loading the space. *)
let set_kernel_space t ~caller ~kernel ~space =
  charge t Config.c_validate;
  let* k = require_kernel t kernel in
  let* _sp = require_space t space in
  let* () = owned t ~caller kernel in
  k.Kernel_obj.space <- space;
  Ok ()

(* -- Locking (section 2) -- *)

(** Lock or unlock an object against writeback.  Locked objects keep
    page-fault handlers, schedulers and trap handlers resident; the owning
    kernel's quota of locked objects bounds the interference this causes. *)
let set_lock t ~caller oid locked =
  charge t Config.c_validate;
  let flip owner was set =
    let* () = owned t ~caller owner in
    if was = locked then Ok ()
    else
      let* () = if locked then lock_budget t ~owner else Ok () in
      set locked;
      if locked then take_lock t ~owner else release_lock t ~owner;
      Ok ()
  in
  match oid.Oid.kind with
  | Oid.Thread ->
    let* th = require_thread t oid in
    flip th.Thread_obj.owner th.Thread_obj.locked (fun v -> th.Thread_obj.locked <- v)
  | Oid.Space ->
    let* sp = require_space t oid in
    flip sp.Space_obj.owner sp.Space_obj.locked (fun v -> sp.Space_obj.locked <- v)
  | Oid.Kernel ->
    let* k = require_kernel t oid in
    let* () = owned t ~caller t.first_kernel in
    k.Kernel_obj.locked <- locked;
    Ok ()

(* -- Address spaces (section 2.1) -- *)

(** Load an address space object with minimal state (currently just the
    lock bit), returning its identifier. *)
let load_space t ~caller ?(lock = false) ~tag () =
  charge t Config.c_validate;
  let* _k = require_kernel t caller in
  let* () = if lock then lock_budget t ~owner:caller else Ok () in
  let* displaced =
    room ~full:(Caches.Space_cache.is_full t.spaces) (fun () ->
        Replacement.make_room t ~metric:"victim_scan.space"
          ~scan_length:(fun () -> Caches.Space_cache.last_scan_length t.spaces)
          (Caches.Space_cache.victim t.spaces)
          (fun v -> Replacement.unload_space_now t ~reason:Wb.Displaced v = `Done))
  in
  let sp = Space_obj.create ~owner:caller ~tag in
  charge t
    (Config.c_slot_alloc + Config.c_space_table_init
    + Config.descriptor_copy Config.space_desc_bytes);
  match Caches.Space_cache.load t.spaces sp with
  | None -> Error No_victim
  | Some oid ->
    if lock then begin
      sp.Space_obj.locked <- true;
      take_lock t ~owner:caller
    end;
    loaded t t.stats.Stats.spaces ~displaced oid

let unload_space t ~caller oid =
  charge t Config.c_validate;
  let* sp = require_space t oid in
  let* () = owned t ~caller sp.Space_obj.owner in
  match Replacement.unload_space_now t ~reason:Wb.Requested sp with
  | `Done -> Ok ()
  | `Busy -> Error Busy

(* -- Threads (section 2.3) -- *)

(** Load a thread against an already-loaded address space, making it a
    candidate for execution.  Fails with [Stale_reference] if the space was
    written back concurrently — the application kernel reloads the space
    and retries. *)
let load_thread t ~caller ~space ~priority ?(affinity = None) ?(lock = false) ~tag ~start
    () =
  charge t Config.c_validate;
  let* k = require_kernel t caller in
  let* sp = require_space_for_load t space in
  let* () = owned t ~caller sp.Space_obj.owner in
  let* () =
    if priority < 0 || priority > k.Kernel_obj.max_priority then Error Limit_exceeded
    else Ok ()
  in
  let* () = if lock then lock_budget t ~owner:caller else Ok () in
  let* displaced =
    room ~full:(Caches.Thread_cache.is_full t.threads) (fun () ->
        Replacement.make_room t ~metric:"victim_scan.thread"
          ~scan_length:(fun () -> Caches.Thread_cache.last_scan_length t.threads)
          (Caches.Thread_cache.victim t.threads)
          (fun v ->
            Replacement.unload_thread_now t ~reason:Wb.Displaced v;
            true))
  in
  let th = Thread_obj.create ~owner:caller ~space ~tag ~priority ~start in
  th.Thread_obj.affinity <- affinity;
  charge t
    (Config.c_slot_alloc + Config.c_thread_init
    + Config.descriptor_copy Config.thread_desc_bytes
    + Config.c_sched_enqueue);
  match Caches.Thread_cache.load t.threads th with
  | None -> Error No_victim
  | Some oid ->
    if lock then begin
      th.Thread_obj.locked <- true;
      take_lock t ~owner:caller
    end;
    sp.Space_obj.thread_count <- sp.Space_obj.thread_count + 1;
    make_ready t th;
    loaded t t.stats.Stats.threads ~displaced oid

(** Unload (deschedule and write back) a thread.  If the target is the
    thread making this very call, the writeback is deferred to the next
    kernel exit and the call returns [Ok]. *)
let unload_thread t ~caller oid =
  charge t Config.c_validate;
  let* th = require_thread t oid in
  let* () = owned t ~caller th.Thread_obj.owner in
  if Replacement.is_active_thread t th then th.Thread_obj.unload_pending <- true
  else Replacement.unload_thread_now t ~reason:Wb.Requested th;
  Ok ()

(** Modify the priority of a loaded thread — the optimisation the
    per-processor scheduling thread of a UNIX emulator uses each
    rescheduling interval, instead of unload-modify-reload. *)
let set_priority t ~caller oid priority =
  charge t (Config.c_validate + Config.c_sched_enqueue);
  let* th = require_thread t oid in
  let* k = require_kernel t caller in
  let* () = owned t ~caller th.Thread_obj.owner in
  if priority < 0 || priority > k.Kernel_obj.max_priority then Error Limit_exceeded
  else begin
    th.Thread_obj.priority <- priority;
    (* If it sits in a ready queue at the old priority, requeue it. *)
    (match th.Thread_obj.state with
    | Thread_obj.Ready ->
      Scheduler.enqueue t.sched ~priority oid
      (* the stale position at the old priority is skipped because [pick]
         re-reads the descriptor's current priority via state checks *)
    | _ -> ());
    Ok ()
  end

(* -- Page mappings (section 2.1) -- *)

type mapping_spec = {
  va : int;
  pfn : int;
  flags : Hw.Page_table.flags;
  signal_thread : Oid.t option;
  cow_dst : int option;
      (* deferred copy: [pfn] is the source, mapped read-only; on the first
         write fault the Cache Kernel copies into this destination frame
         and remaps it writable *)
  remote : bool;
      (* the line's authoritative copy lives on a remote node: accesses
         raise a consistency fault for the owning kernel's distributed
         shared memory protocol (section 2.1) *)
  lock : bool;
}

let mapping ?(flags = Hw.Page_table.rw) ?signal_thread ?cow_dst ?(remote = false)
    ?(lock = false) ~va ~pfn () =
  { va; pfn; flags; signal_thread; cow_dst; remote; lock }

(* Everything a mapping load does past the trap/validation charge: shared
   between the single-call path (which pays the full per-call validate) and
   the batched path (which pays it once for the whole batch plus a marginal
   [Hw.Cost.batch_entry] per spec).  Keeping one body is what makes the
   batched path's replacement, quota and stats accounting identical to N
   single loads by construction. *)
let load_mapping_body t ~caller ~space (spec : mapping_spec) =
  let* k = require_kernel t caller in
  let* sp = require_space_for_load t space in
  let* () = owned t ~caller sp.Space_obj.owner in
  let* () =
    (* with a deferred copy, the source frame only needs read access *)
    let write = spec.flags.Hw.Page_table.writable && spec.cow_dst = None in
    if Kernel_obj.may_map k ~pfn:spec.pfn ~write then Ok () else Error No_access
  in
  let* () =
    match spec.cow_dst with
    | None -> Ok ()
    | Some dst ->
      if Kernel_obj.may_map k ~pfn:dst ~write:true then Ok () else Error No_access
  in
  let* () =
    match spec.signal_thread with
    | None -> Ok ()
    | Some th_oid ->
      let* th = require_thread t th_oid in
      owned t ~caller th.Thread_obj.owner
  in
  let* () = if spec.lock then lock_budget t ~owner:caller else Ok () in
  let* () =
    if Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va:spec.va = None then
      Ok ()
    else Error Already_mapped
  in
  let* displaced =
    room ~full:(Mappings.is_full t.mappings) (fun () ->
        Replacement.make_room t ~metric:"victim_scan.mapping"
          ~scan_length:(fun () -> Mappings.last_scan_length t.mappings)
          (Mappings.victim t.mappings ~protected:(Replacement.mapping_protected t))
          (fun (v : Mappings.m) ->
            match find_space t v.Mappings.space with
            | Some vsp ->
              Replacement.writeback_mapping t ~reason:Wb.Displaced vsp v;
              true
            | None -> false))
  in
  (* Deferred copy: map the source read-only; the copy into the destination
     frame happens on the first write fault (section 6's "additional
     support for deferred copy"). *)
  let flags =
    match spec.cow_dst with
    | Some _ -> { spec.flags with Hw.Page_table.writable = false }
    | None -> spec.flags
  in
  let pte = Hw.Page_table.make_entry ~remote:spec.remote ~frame:spec.pfn ~flags () in
  ignore (Hw.Page_table.insert sp.Space_obj.table spec.va pte);
  charge t (Config.c_pte_install + (2 * Config.c_hash_update));
  match
    Mappings.insert t.mappings ~owner:caller ~space_slot:(Space_obj.asid sp) ~space
      ~va:(Hw.Addr.page_base spec.va) ~pte ~signal_thread:spec.signal_thread
      ~cow_dst:spec.cow_dst ~locked:spec.lock
  with
  | None ->
    ignore (Hw.Page_table.remove sp.Space_obj.table spec.va);
    Error No_victim
  | Some _m ->
    if spec.lock then take_lock t ~owner:caller;
    sp.Space_obj.mapping_count <- sp.Space_obj.mapping_count + 1;
    Stats.loaded t.stats.Stats.mappings ~displaced;
    if tracing t then
      trace t
        (Trace.Mapping_loaded { space; va = Hw.Addr.page_base spec.va; pfn = spec.pfn });
    Ok ()

(** Load a per-page mapping into [space].  The physical address and access
    are checked against the caller's memory access array; loading may
    displace another mapping, which is written back to its owner. *)
let load_mapping t ~caller ~space (spec : mapping_spec) =
  charge t (Config.c_validate + Config.c_access_check);
  load_mapping_body t ~caller ~space spec

(** Batched mapping load: up to [Config.mapping_batch_max] specs through one
    kernel crossing.  The full per-call validation ([c_validate] +
    [c_access_check]) is charged once; every spec after the first costs only
    the marginal [Hw.Cost.batch_entry] decode.  Each entry otherwise runs the
    identical load path as {!load_mapping} — same permission and access-array
    checks, same replacement and quota accounting, same stats.

    Partial-failure contract: [Ok n] means all [n] entries loaded.
    [Error (i, e)] means entries [0 .. i-1] loaded and STAY loaded, entry [i]
    failed with [e], and entries past [i] were not attempted (nor charged).
    A stale space identifier is re-validated per entry, so a caller can
    reload the space and retry from index [i] without repeating the loaded
    prefix. *)
let load_mappings t ~caller ~space (specs : mapping_spec list) =
  match specs with
  | [] -> Ok 0
  | _ when List.length specs > Config.mapping_batch_max ->
    Error (0, Bad_argument "batch exceeds mapping_batch_max")
  | _ ->
    charge t (Config.c_validate + Config.c_access_check);
    let rec go i = function
      | [] -> Ok i
      | spec :: rest -> (
        if i > 0 then charge t Hw.Cost.batch_entry;
        match load_mapping_body t ~caller ~space spec with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (i, e))
    in
    go 0 specs

(** Unload the mapping for [va] in [space], writing back its state
    (including referenced and modified bits) to the owner. *)
let unload_mapping t ~caller ~space ~va =
  charge t Config.c_validate;
  let* sp = require_space t space in
  let* () = owned t ~caller sp.Space_obj.owner in
  match Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va with
  | None -> Error Stale_reference
  | Some m ->
    Replacement.writeback_mapping t ~reason:Wb.Requested sp m;
    Ok ()

(* Arm the combined-resume return path on the active handler frame (shared
   tail of the *_and_resume calls). *)
let arm_combined_resume t =
  match Replacement.active_thread t with
  | Some th -> (
    match Thread_obj.top th with
    | Some f when f.Thread_obj.mode = Thread_obj.Kernel_mode ->
      f.Thread_obj.combined_resume <- true
    | _ -> ())
  | None -> ()

(** Combined load-mapping-and-resume: the optimisation for page-fault
    handling that loads the new mapping and returns from the exception in
    one kernel call (section 2.1, Table 2's "optimized" row). *)
let load_mapping_and_resume t ~caller ~space spec =
  let* () = load_mapping t ~caller ~space spec in
  arm_combined_resume t;
  Ok ()

(** Batched {!load_mapping_and_resume}: same cost and partial-failure
    contract as {!load_mappings}, plus the combined resume of the faulting
    thread.  The resume is armed whenever the first entry — by convention
    the faulting mapping, with any prefetched neighbors after it — loaded,
    i.e. on [Ok _] or [Error (i, _)] with [i >= 1]: a failed *prefetch*
    entry must not force the fault itself back onto the expensive separate
    exception-complete path. *)
let load_mappings_and_resume t ~caller ~space specs =
  match load_mappings t ~caller ~space specs with
  | Ok n ->
    if n > 0 then arm_combined_resume t;
    Ok n
  | Error (i, e) ->
    if i >= 1 then arm_combined_resume t;
    Error (i, e)

(** Rebind the signal thread of a loaded mapping — used to redirect signals
    for an unloaded thread to an application kernel's internal thread
    (section 2.3's on-demand thread loading). *)
let redirect_signal t ~caller ~space ~va ~thread =
  charge t Config.c_validate;
  let* sp = require_space t space in
  let* () = owned t ~caller sp.Space_obj.owner in
  match Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va with
  | None -> Error Stale_reference
  | Some m ->
    let* () =
      match thread with
      | None -> Ok ()
      | Some th_oid ->
        let* th = require_thread t th_oid in
        owned t ~caller th.Thread_obj.owner
    in
    Mappings.set_signal_thread t.mappings m thread;
    Replacement.flush_rtlbs_pfn t ~pfn:(Mappings.pfn m);
    charge t Config.c_hash_update;
    Ok ()

(** Deliver an address-valued signal directly to [thread] — the path Cache
    Kernel device drivers use on packet reception, and application kernels
    use to wake a thread on a known channel address. *)
let post_signal t ~caller ~thread ~va =
  charge t Config.c_validate;
  let* th = require_thread t thread in
  let* () = owned t ~caller th.Thread_obj.owner in
  Signals.post_signal t th ~va;
  Ok ()

(* -- Boot (section 3) -- *)

(** Instantiate the first kernel at boot: it receives full permissions on
    all physical resources, is locked in the Cache Kernel, and owns every
    kernel object loaded thereafter. *)
let boot t (spec : Kernel_obj.spec) =
  match load_kernel ~boot:true t ~caller:Oid.none spec with
  | Error e -> Error e
  | Ok oid ->
    t.first_kernel <- oid;
    (match find_kernel t oid with
    | Some k ->
      k.Kernel_obj.locked <- true;
      for g = 0 to n_groups t - 1 do
        Kernel_obj.set_access k ~group:g Kernel_obj.Read_write
      done
    | None -> assert false);
    Ok oid
