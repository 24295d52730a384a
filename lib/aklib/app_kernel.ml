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
  spec : Kernel_obj.spec;
      (* the kernel object this kernel loads as, every time it is loaded:
         first launch, swap-in and a restarted node's re-boot *)
}

let default_trap _t _thread p = p (* echo *)

let oid t = !(t.oid_ref)

(* Per-record cost of writeback-channel processing in the application
   kernel (demarshal the record, update bookkeeping). *)
let c_drain_record = 180

(** Drain the kernel's writeback channel, dispatching each record to the
    library that owns the corresponding bookkeeping. *)
let drain t =
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

(** Prepare an application kernel: builds the libraries and the kernel-
    object spec whose handlers close over them.  The kernel object itself
    is loaded by the caller (the boot path or the system resource manager),
    which then calls {!install}. *)
let prepare inst ~name ?(cpu_percent = 100) ?(max_priority = 24) ?(max_locked = 8) () =
  let frames = Frame_alloc.create () in
  let node = inst.Instance.node in
  let events = node.Hw.Mpm.events and now () = Hw.Mpm.now node in
  let disk = Hw.Disk.create ~events ~now in
  let store = Backing_store.create ~disk ~mem:node.Hw.Mpm.mem ~events ~now in
  if Fault_inject.enabled inst.Instance.fi then
    Backing_store.set_fault_plane store inst.Instance.fi;
  let cfg = inst.Instance.config in
  if cfg.Config.fast_tier_slots > 0 then begin
    Backing_store.configure_tiers store ~slots:cfg.Config.fast_tier_slots;
    Backing_store.set_observer store
      ~service:(fun ~fast cycles ->
        Instance.observe_cycles inst
          (if fast then "tier.service_fast_us" else "tier.service_slow_us")
          cycles)
      ~move:(fun ~block ~to_fast ~batch ->
        Instance.trace inst (Trace.Tier_move { block; to_fast; batch }))
  end;
  let oid_ref = ref Oid.none in
  let kernel () = !oid_ref in
  (* the thread library resolves spaces through the segment manager, which
     blocks the library's threads on paging I/O *)
  let mgr = ref None in
  let threads =
    Thread_lib.create ~inst ~kernel ~space_oid:(fun tag ->
        let mgr = Option.get !mgr in
        match Segment_mgr.space_by_tag mgr tag with
        | Some vsp -> Segment_mgr.reload_space mgr vsp
        | None -> Error Api.Stale_reference)
  in
  let mgr =
    let m = Segment_mgr.create { Segment_mgr.inst; kernel; frames; store; threads } in
    mgr := Some m;
    m
  in
  let cpu_percent = Array.make (Instance.n_cpus inst) cpu_percent in
  let rec t =
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
      spec =
        {
          Kernel_obj.name;
          handlers =
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
            };
          cpu_percent;
          max_priority;
          max_locked;
        };
    }
  in
  t

(** The kernel's own address space (handler frames execute in it): created
    the first time, reloaded if it was written back, and registered on the
    kernel object. *)
let bind_own_space t =
  let loaded =
    match t.own_space with
    | None -> Segment_mgr.create_space t.mgr
    | Some vsp -> Result.map (fun _ -> vsp) (Segment_mgr.reload_space t.mgr vsp)
  in
  match loaded with
  | Error e -> Error e
  | Ok vsp -> (
    t.own_space <- Some vsp;
    match
      Api.set_kernel_space t.inst ~caller:(oid t) ~kernel:(oid t) ~space:vsp.Segment_mgr.oid
    with
    | Ok () -> Ok vsp
    | Error e -> Error e)

(** Reload every written-back thread. *)
let resume_threads t =
  Thread_lib.iter t.threads (fun e ->
      match e.Thread_lib.run with
      | Thread_lib.Unloaded _ -> ignore (Thread_lib.schedule t.threads e.Thread_lib.id)
      | Thread_lib.Loaded -> ())

(** Bind the kernel object just loaded from {!field-spec}: its identifier,
    its own space, and every written-back thread.  The one way in for a
    kernel — first boot, launch, swap-in and a restarted node all end
    here. *)
let install t ~oid:koid =
  t.oid_ref := koid;
  Result.map (fun _ -> resume_threads t) (bind_own_space t)

(** Boot path: load this kernel as the first kernel with full resources
    (including the full priority range — it hosts locked scheduler and
    real-time threads). *)
let boot_first inst ~name ?(groups = []) () =
  let t = prepare inst ~name ~max_priority:(Config.priorities - 1) ~max_locked:32 () in
  List.iter (Frame_alloc.add_group t.frames) groups;
  Result.bind (Api.boot inst t.spec) (fun koid -> Result.map (fun () -> t) (install t ~oid:koid))

(** After an MPM crash: every Cache Kernel descriptor this kernel held is
    gone without writeback.  Mark the library records accordingly — spaces
    need reloading, loaded threads lost their context and restart fresh,
    written-back thread images survive. *)
let mark_crashed t =
  Segment_mgr.mark_crashed t.mgr;
  Thread_lib.mark_crashed t.threads

(** Convenience: spawn a thread in the kernel's own address space. *)
let spawn_internal t ~priority ?affinity ?(lock = false) body =
  match t.own_space with
  | None -> Error (Api.Bad_argument "kernel has no own space")
  | Some vsp ->
    Thread_lib.spawn t.threads ~space_tag:vsp.Segment_mgr.tag ~priority ?affinity ~lock
      body
