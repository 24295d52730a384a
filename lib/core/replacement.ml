(* Object replacement and writeback (section 4.2, Figure 6).

   The Cache Kernel's replacement is more involved than a data cache's
   because cached objects depend on one another: a signal mapping references
   a thread, which references an address space, which references its owning
   kernel.  When an object is unloaded — explicitly or to free a descriptor
   — the objects that depend on it are unloaded first, their state written
   back to the owning application kernel over the writeback channel.

   Locking only protects an object from the reclamation scan when the
   objects it depends on are also locked: "a locked mapping can be reclaimed
   unless its address space, its kernel object and its signal thread (if
   any) are locked". *)

open Instance

(* -- TLB / reverse-TLB shootdown across the MPM's processors -- *)

let flush_tlbs_page t ~asid ~vpn =
  Array.iter
    (fun cpu -> Hw.Tlb.flush_page cpu.Hw.Cpu.tlb ~asid ~vpn)
    t.node.Hw.Mpm.cpus;
  charge t (Hw.Cost.tlb_flush_page * Hw.Mpm.n_cpus t.node)

let flush_tlbs_space t ~asid =
  Array.iter (fun cpu -> Hw.Tlb.flush_space cpu.Hw.Cpu.tlb ~asid) t.node.Hw.Mpm.cpus;
  charge t (Hw.Cost.tlb_flush_space * Hw.Mpm.n_cpus t.node)

let flush_rtlbs_pfn t ~pfn =
  Array.iter (fun cpu -> Hw.Rtlb.flush_pfn cpu.Hw.Cpu.rtlb ~pfn) t.node.Hw.Mpm.cpus;
  charge t (Config.c_rtlb_update * Hw.Mpm.n_cpus t.node)

(* Did replacement, rather than the owner's own request, send the object
   back?  Such unloads are the [writebacks] statistic. *)
let forced = function
  | Wb.Displaced | Wb.Dependent | Wb.Consistency -> true
  | Wb.Requested | Wb.Exited -> false

(** Free one descriptor: write back [victim], the policy's choice after a
    scan of [scan_length ()] descriptors, observe that scan under [metric]
    and count the displacement.  False when there is no victim or [unload]
    could not write it back. *)
let make_room t ~metric ~scan_length victim unload =
  match victim with
  | None -> false
  | Some v ->
    observe t metric (float_of_int (scan_length ()));
    let ok = unload v in
    if ok then note_displacement t;
    ok

(* -- Mappings -- *)

(** Is this mapping protected from the reclamation scan?  Only when it and
    its whole dependency chain are locked. *)
let mapping_protected t (m : Mappings.m) =
  m.Mappings.locked
  &&
  let space_locked =
    match find_space t m.Mappings.space with
    | Some sp -> sp.Space_obj.locked
    | None -> false
  in
  let kernel_locked =
    match find_kernel t m.Mappings.owner with
    | Some k -> k.Kernel_obj.locked
    | None -> false
  in
  let signal_locked =
    match m.Mappings.signal_thread with
    | None -> true
    | Some th -> (
      match find_thread t th with Some d -> d.Thread_obj.locked | None -> false)
  in
  space_locked && kernel_locked && signal_locked

(** A mapping's writeback state: its translation plus the referenced and
    modified bits its owner needs for paging decisions. *)
let mapping_state (m : Mappings.m) =
  let pte = m.Mappings.pte in
  {
    Wb.va = m.Mappings.va;
    pfn = pte.Hw.Page_table.frame;
    flags = pte.Hw.Page_table.flags;
    referenced = pte.Hw.Page_table.referenced || m.Mappings.aged_referenced;
    modified = pte.Hw.Page_table.modified;
    had_signal_thread = m.Mappings.signal_thread <> None;
  }

(** Take a departing mapping's lock off its owner's ledger. *)
let release_mapping_lock t (m : Mappings.m) =
  if m.Mappings.locked then begin
    m.Mappings.locked <- false;
    release_lock t ~owner:m.Mappings.owner
  end

(** Write one mapping back to its owner: remove the page-table entry, shoot
    down TLB and reverse-TLB state, drop the dependency records, and emit
    the writeback record carrying the referenced/modified bits.

    Multi-mapping consistency (section 4.2): unloading a *signal* mapping
    for a page flushes all writable mappings of that page, so a sender can
    never signal on an address whose receivers would not be notified. *)
let rec writeback_mapping t ~reason (space : Space_obj.t) (m : Mappings.m) =
  let pfn = Mappings.pfn m in
  (* Consistency flush first, while the record still marks this page. *)
  if m.Mappings.signal_thread <> None then begin
    t.stats.Stats.consistency_flushes <- t.stats.Stats.consistency_flushes + 1;
    trace t (Trace.Consistency_flush { pfn });
    let siblings = Mappings.of_pfn t.mappings ~pfn in
    (* Remove this mapping before recursing so the recursion terminates. *)
    remove_one t ~reason space m;
    List.iter
      (fun (s : Mappings.m) ->
        (* [removed] check: a nested consistency flush below may already
           have written back a sibling captured in this list *)
        if
          s != m
          && (not s.Mappings.removed)
          && s.Mappings.pte.Hw.Page_table.flags.Hw.Page_table.writable
        then
          match find_space t s.Mappings.space with
          | Some ssp -> writeback_mapping t ~reason:Wb.Consistency ssp s
          | None -> ())
      siblings
  end
  else remove_one t ~reason space m

and remove_one t ~reason (space : Space_obj.t) (m : Mappings.m) =
  if m.Mappings.removed then ()
  else begin
    let wb_t0 = now t in
    let vpn = Hw.Addr.page_of m.Mappings.va in
    ignore (Hw.Page_table.remove space.Space_obj.table m.Mappings.va);
    charge t Config.c_pte_remove;
    flush_tlbs_page t ~asid:(Space_obj.asid space) ~vpn;
    flush_rtlbs_pfn t ~pfn:(Mappings.pfn m);
    Mappings.remove t.mappings ~space_slot:(Space_obj.asid space) m;
    charge t (2 * Config.c_hash_update);
    release_mapping_lock t m;
    (* exact: the [removed] guard above makes a second visit impossible *)
    space.Space_obj.mapping_count <- space.Space_obj.mapping_count - 1;
    Stats.unloaded t.stats.Stats.mappings ~written_back:(forced reason);
    trace t
      (Trace.Mapping_written_back
         { space = space.Space_obj.oid; va = m.Mappings.va; to_kernel = m.Mappings.owner });
    push_writeback t ~owner:m.Mappings.owner
      (Wb.Mapping_wb
         {
           space = space.Space_obj.oid;
           space_tag = space.Space_obj.tag;
           state = mapping_state m;
           reason;
         });
    observe_cycles t "wb.mapping_us" (now t - wb_t0)
  end

(* -- Threads -- *)

(** Deschedule a thread running on another CPU so it can be written back
    ("the processor must first save the thread context and context-switch
    to a different thread"). *)
let force_deschedule t (th : Thread_obj.t) =
  match th.Thread_obj.state with
  | Thread_obj.Running cpu_id ->
    t.running.(cpu_id) <- Oid.none;
    Hw.Cpu.charge t.node.Hw.Mpm.cpus.(cpu_id) Hw.Cost.context_switch;
    (* re-enqueue on the ready queue: a bare Ready flip would strand the
       thread — the scheduler only dispatches queued identifiers, and a
       caller that stops short of writeback would leave it undispatchable
       (if the writeback does follow, the stale queue entry is dropped
       harmlessly on the next scheduler scan) *)
    make_ready t th
  | _ -> ()

(** Unload a thread and write its saved state back to its owner.  The
    thread must not be the one currently executing Cache Kernel code (the
    engine defers that case via [unload_pending]). *)
let unload_thread_now t ~reason (th : Thread_obj.t) =
  let wb_t0 = now t in
  force_deschedule t th;
  (* Signal mappings referencing this thread depend on it (Figure 6). *)
  List.iter
    (fun (m : Mappings.m) ->
      match find_space t m.Mappings.space with
      | Some sp -> writeback_mapping t ~reason:Wb.Dependent sp m
      | None -> ())
    (Mappings.of_signal_thread t.mappings ~thread:th.Thread_obj.oid);
  Array.iter
    (fun cpu ->
      Hw.Rtlb.flush_tag cpu.Hw.Cpu.rtlb ~pred:(fun tag ->
          tag land 0xFFFF = th.Thread_obj.oid.Oid.slot))
    t.node.Hw.Mpm.cpus;
  (match find_space t th.Thread_obj.space with
  | Some sp -> sp.Space_obj.thread_count <- sp.Space_obj.thread_count - 1
  | None -> ());
  if th.Thread_obj.locked then begin
    th.Thread_obj.locked <- false;
    release_lock t ~owner:th.Thread_obj.owner
  end;
  th.Thread_obj.unload_pending <- false;
  let oid = th.Thread_obj.oid in
  ignore (Caches.Thread_cache.unload t.threads oid);
  charge t (Config.c_slot_free + Config.descriptor_copy Config.thread_desc_bytes);
  th.Thread_obj.state <- Thread_obj.Exited;
  Stats.unloaded t.stats.Stats.threads ~written_back:(forced reason);
  trace t (Trace.Object_written_back { oid; to_kernel = th.Thread_obj.owner });
  push_writeback t ~owner:th.Thread_obj.owner
    (Wb.Thread_wb
       {
         oid;
         tag = th.Thread_obj.tag;
         priority = th.Thread_obj.priority;
         state = Thread_obj.save th;
         reason;
       });
  observe_cycles t "wb.thread_us" (now t - wb_t0)

(** Threads currently loaded against address space [space]. *)
let threads_of_space t (space : Oid.t) =
  Caches.Thread_cache.fold t.threads
    (fun acc th -> if Oid.equal th.Thread_obj.space space then th :: acc else acc)
    []

let active_thread t =
  if Oid.is_none t.current_thread then None else find_thread t t.current_thread

let is_active_thread t (th : Thread_obj.t) =
  match active_thread t with Some a -> a == th | None -> false

(* -- Address spaces -- *)

(** Unload an address space: all its page mappings and all its threads are
    written back first (section 2.1), then the space itself.  Fails with
    [`Busy] if one of its threads is the thread executing this very call. *)
let unload_space_now t ~reason (space : Space_obj.t) =
  let wb_t0 = now t in
  let threads = threads_of_space t space.Space_obj.oid in
  if List.exists (is_active_thread t) threads then `Busy
  else begin
    List.iter (fun th -> unload_thread_now t ~reason:Wb.Dependent th) threads;
    List.iter
      (fun m -> writeback_mapping t ~reason:Wb.Dependent space m)
      (Mappings.of_space t.mappings ~space_slot:(Space_obj.asid space));
    flush_tlbs_space t ~asid:(Space_obj.asid space);
    if space.Space_obj.locked then begin
      space.Space_obj.locked <- false;
      release_lock t ~owner:space.Space_obj.owner
    end;
    let oid = space.Space_obj.oid in
    ignore (Caches.Space_cache.unload t.spaces oid);
    charge t (Config.c_slot_free + Config.descriptor_copy Config.space_desc_bytes);
    Stats.unloaded t.stats.Stats.spaces ~written_back:(forced reason);
    trace t (Trace.Object_written_back { oid; to_kernel = space.Space_obj.owner });
    push_writeback t ~owner:space.Space_obj.owner
      (Wb.Space_wb { oid; tag = space.Space_obj.tag; reason });
    (* includes the dependent thread and mapping writebacks above *)
    observe_cycles t "wb.space_us" (now t - wb_t0);
    `Done
  end

(* -- Kernels -- *)

(** Spaces owned by [kernel]. *)
let spaces_of_kernel t (kernel : Oid.t) =
  Caches.Space_cache.fold t.spaces
    (fun acc sp -> if Oid.equal sp.Space_obj.owner kernel then sp :: acc else acc)
    []

(** Unload a kernel object: every address space (and hence thread and
    mapping) it owns is written back first.  "An expensive operation",
    expected to be infrequent (section 2.4). *)
let unload_kernel_now t ~reason (kernel : Kernel_obj.t) =
  let wb_t0 = now t in
  let spaces = spaces_of_kernel t kernel.Kernel_obj.oid in
  (* Check busy-ness up front: writing spaces back one by one and stopping
     at the first busy one would report [`Busy] with the kernel already
     half-unloaded and no kernel writeback record to recover from. *)
  let busy =
    List.exists
      (fun sp -> List.exists (is_active_thread t) (threads_of_space t sp.Space_obj.oid))
      spaces
  in
  if busy then `Busy
  else begin
    List.iter (fun sp -> ignore (unload_space_now t ~reason:Wb.Dependent sp)) spaces;
    let oid = kernel.Kernel_obj.oid in
    ignore (Caches.Kernel_cache.unload t.kernels oid);
    (* the kernel writeback record is short: resource grants and handler
       attributes, not the bulk access array *)
    charge t Config.c_slot_free;
    Stats.unloaded t.stats.Stats.kernels ~written_back:(forced reason);
    trace t (Trace.Object_written_back { oid; to_kernel = t.first_kernel });
    (* Kernel objects are owned by, and written back to, the first kernel. *)
    push_writeback t ~cost:Config.c_kernel_writeback ~owner:t.first_kernel
      (Wb.Kernel_wb { oid; name = kernel.Kernel_obj.name; reason });
    observe_cycles t "wb.kernel_us" (now t - wb_t0);
    `Done
  end
