(* The application-kernel skeleton.

   "An application kernel is any program that is written to interface
   directly to the Cache Kernel, handling its own memory management,
   processing management and communication" (section 3).  This module
   composes the class libraries — segment manager, thread library, backing
   store — behind the three handler entry points a kernel object carries,
   and routes writeback records to the right library.  Policies are
   overridable by replacing the record fields (the simulation analogue of
   overriding the C++ library's virtual methods). *)

open Cachekernel

type t = {
  inst : Instance.t;
  name : string;
  oid_ref : Oid.t ref; (* shared with the library closures *)
  frames : Frame_alloc.t;
  disk : Hw.Disk.t;
  store : Backing_store.t;
  mgr : Segment_mgr.t;
  threads : Thread_lib.t;
  mutable own_space : Segment_mgr.vspace option;
  mutable trap_dispatch : t -> Oid.t -> Hw.Exec.payload -> Hw.Exec.payload;
      (* "system call" handler for this kernel's threads; override *)
  mutable on_kernel_writeback : t -> Oid.t -> string -> Wb.reason -> unit;
      (* kernel-object writebacks (only the first kernel receives these) *)
  mutable draining : bool;
  mutable writebacks_processed : int;
  mutable boot_spec : Kernel_obj.spec option;
      (* the spec this kernel was prepared with, kept so a crashed node can
         re-boot its first kernel ({!reboot_first}) *)
}

let default_trap _t _thread p = p (* echo *)

let oid t = !(t.oid_ref)

(* Per-record cost of writeback-channel processing in the application
   kernel (demarshal the record, update bookkeeping). *)
let c_drain_record = 180

(** Drain the kernel's writeback channel, dispatching each record to the
    library that owns the corresponding bookkeeping. *)
let rec drain t =
  if not t.draining then begin
    t.draining <- true;
    Fun.protect
      ~finally:(fun () -> t.draining <- false)
      (fun () ->
        match Instance.find_kernel t.inst (oid t) with
        | None -> ()
        | Some k ->
          while not (Queue.is_empty k.Kernel_obj.writebacks) do
            let record = Queue.pop k.Kernel_obj.writebacks in
            t.writebacks_processed <- t.writebacks_processed + 1;
            Instance.charge t.inst c_drain_record;
            match record with
            | Wb.Mapping_wb { space_tag; state; _ } ->
              Segment_mgr.handle_mapping_writeback t.mgr ~space_tag state
            | Wb.Space_wb { tag; _ } -> Segment_mgr.handle_space_writeback t.mgr ~tag
            | Wb.Thread_wb { tag; state; reason; priority; _ } ->
              Thread_lib.handle_writeback t.threads ~tag ~state ~reason ~priority
            | Wb.Kernel_wb { oid; name; reason } -> t.on_kernel_writeback t oid name reason
          done)
  end

and handlers_of t =
  {
    Kernel_obj.on_fault =
      (fun ctx ->
        drain t;
        (* stay current before consulting our records *)
        Segment_mgr.handle_fault t.mgr ctx);
    on_trap =
      (fun thread p ->
        drain t;
        t.trap_dispatch t thread p);
    on_writeback = (fun () -> drain t);
  }

(** Prepare an application kernel: builds the libraries and the kernel-
    object spec whose handlers close over them.  The kernel object itself
    is loaded by the caller (the boot path or the system resource manager),
    which then calls {!attach}. *)
let prepare inst ~name ?(cpu_percent = 100) ?(max_priority = 24) ?(max_locked = 8) () =
  let frames = Frame_alloc.create () in
  let disk =
    Hw.Disk.create ~events:inst.Instance.node.Hw.Mpm.events ~now:(fun () ->
        Hw.Mpm.now inst.Instance.node)
  in
  let store = Backing_store.create ~disk ~mem:inst.Instance.node.Hw.Mpm.mem in
  if Fault_inject.enabled inst.Instance.fi then
    Backing_store.set_fault_plane store ~fi:inst.Instance.fi
      ~events:inst.Instance.node.Hw.Mpm.events ~now:(fun () ->
        Hw.Mpm.now inst.Instance.node);
  let cfg = inst.Instance.config in
  if cfg.Config.fast_tier_slots > 0 then begin
    Backing_store.configure_tiers store ~slots:cfg.Config.fast_tier_slots
      ~batch:cfg.Config.tier_batch ~events:inst.Instance.node.Hw.Mpm.events
      ~now:(fun () -> Hw.Mpm.now inst.Instance.node);
    Backing_store.set_observer store
      ~count:(fun name -> Instance.count inst name)
      ~service:(fun ~fast cycles ->
        Instance.observe_cycles inst
          (if fast then "tier.service_fast_us" else "tier.service_slow_us")
          cycles)
      ~move:(fun ~block ~to_fast ~batch ->
        Instance.trace inst (Trace.Tier_move { block; to_fast; batch }));
    (* the auditor's per-tier conservation check reaches the store through
       the same hook the SRM ledger uses *)
    Instance.add_audit_hook inst (fun ~repair -> Backing_store.audit_tiers store ~repair)
  end;
  let oid_ref = ref Oid.none in
  let kernel () = !oid_ref in
  let env = { Segment_mgr.inst; kernel; frames; store } in
  let mgr = Segment_mgr.create env in
  let threads =
    Thread_lib.create ~inst ~kernel ~space_oid:(fun tag ->
        match Segment_mgr.space_by_tag mgr tag with
        | Some vsp -> Segment_mgr.reload_space mgr vsp
        | None -> Error Api.Stale_reference)
  in
  let t =
    {
      inst;
      name;
      oid_ref;
      frames;
      disk;
      store;
      mgr;
      threads;
      own_space = None;
      trap_dispatch = default_trap;
      on_kernel_writeback = (fun _ _ _ _ -> ());
      draining = false;
      writebacks_processed = 0;
      boot_spec = None;
    }
  in
  let spec =
    {
      Kernel_obj.name;
      handlers = handlers_of t;
      cpu_percent = Array.make (Instance.n_cpus inst) cpu_percent;
      max_priority;
      max_locked;
    }
  in
  t.boot_spec <- Some spec;
  (t, spec)

(** Bind the loaded kernel object and its granted page groups. *)
let attach t ~oid:koid ~groups =
  t.oid_ref := koid;
  List.iter (fun g -> Frame_alloc.add_group t.frames g) groups

(** Create the kernel's own address space (handler frames execute in it)
    and register it on the kernel object. *)
let init_own_space t =
  match Segment_mgr.create_space t.mgr with
  | Error e -> Error e
  | Ok vsp -> (
    t.own_space <- Some vsp;
    match
      Api.set_kernel_space t.inst ~caller:(oid t) ~kernel:(oid t)
        ~space:vsp.Segment_mgr.oid
    with
    | Ok () -> Ok vsp
    | Error e -> Error e)

(** Boot path: load this kernel as the first kernel with full resources
    (including the full priority range — it hosts locked scheduler and
    real-time threads). *)
let boot_first inst ~name ?(groups = []) () =
  let t, spec =
    prepare inst ~name
      ~max_priority:(inst.Instance.config.Config.priorities - 1)
      ~max_locked:32 ()
  in
  match Api.boot inst spec with
  | Error e -> Error e
  | Ok koid ->
    attach t ~oid:koid ~groups;
    (match init_own_space t with Ok _ -> () | Error _ -> ());
    Ok t

(** After a kernel-object reload (swap-in): rebind the kernel's own address
    space, reloading it if it was written back. *)
let reattach_space t =
  match t.own_space with
  | None -> Ok ()
  | Some vsp -> (
    match Segment_mgr.reload_space t.mgr vsp with
    | Error e -> Error e
    | Ok space -> (
      match Api.set_kernel_space t.inst ~caller:(oid t) ~kernel:(oid t) ~space with
      | Ok () -> Ok ()
      | Error e -> Error e))

(** After an MPM crash: every Cache Kernel descriptor this kernel held is
    gone without writeback.  Mark the library records accordingly — spaces
    need reloading, loaded threads lost their context and restart fresh,
    written-back thread images survive. *)
let mark_crashed t =
  Segment_mgr.mark_crashed t.mgr;
  Thread_lib.mark_crashed t.threads

(** Reload every written-back (non-exited) thread — used after swap-in. *)
let resume_threads t =
  Thread_lib.iter t.threads (fun e ->
      match e.Thread_lib.run with
      | Thread_lib.Unloaded _ -> ignore (Thread_lib.schedule t.threads e.Thread_lib.id)
      | Thread_lib.Loaded | Thread_lib.Exited -> ())

(** Re-boot this kernel as the first kernel of a restarted node: reload
    the kernel object through {!Api.boot} (the crashed node's caches are
    empty, so this is a fresh boot of the same spec), rebind the kernel's
    own space and reload its threads from their writeback images.  Page
    groups granted at the original attach stay in the frame allocator. *)
let reboot_first t =
  match t.boot_spec with
  | None -> Error (Api.Bad_argument "kernel was never prepared")
  | Some spec -> (
    match Api.boot t.inst spec with
    | Error e -> Error e
    | Ok koid -> (
      t.oid_ref := koid;
      match reattach_space t with
      | Error e -> Error e
      | Ok () ->
        resume_threads t;
        Ok koid))

(** Convenience: spawn a thread in the kernel's own address space. *)
let spawn_internal t ~priority ?affinity ?(lock = false) body =
  match t.own_space with
  | None -> Error (Api.Bad_argument "kernel has no own space")
  | Some vsp ->
    Thread_lib.spawn t.threads ~space_tag:vsp.Segment_mgr.tag ~priority ?affinity ~lock
      body
