(* Memory-based messaging: address-valued signal delivery (sections 2.2, 4.1).

   A write to a page in message mode generates a signal carrying the
   written address.  For every receiver mapping of the physical page that
   names a signal thread, the address is translated into the receiver's
   virtual address and delivered: a thread waiting on a signal is made
   ready with the address; otherwise the signal is queued on the thread
   (bounded, as queues inside a real kernel must be).

   Delivery first tries the per-processor reverse TLB, which maps a
   physical page directly to the (virtual base, signal thread) pair — the
   fast path for the active receiver.  On a reverse-TLB miss it performs
   the two-stage lookup through the physical memory map and caches the
   result. *)

open Instance

(* Reverse-TLB tags pack the thread's slot and generation so stale entries
   are detected by re-validation against the thread cache. *)
let tag_of (oid : Oid.t) = oid.Oid.slot lor (oid.Oid.gen lsl 16)
let slot_of_tag tag = tag land 0xFFFF
let gen_of_tag tag = tag lsr 16

(* Delivery proper, past the injection plane.  Returns true if the thread
   was woken (vs queued). *)
let deliver_now t (th : Thread_obj.t) ~va ~fast_path =
  trace t (Trace.Signal_delivered { thread = th.Thread_obj.oid; va; fast_path });
  if fast_path then t.stats.Stats.signals_fast <- t.stats.Stats.signals_fast + 1
  else t.stats.Stats.signals_slow <- t.stats.Stats.signals_slow + 1;
  match th.Thread_obj.state with
  | Thread_obj.Blocked Thread_obj.On_signal ->
    (* The thread is parked on its wait-for-signal trap; queue the address
       and make it ready — the re-evaluated trap consumes it. *)
    ignore
      (Thread_obj.queue_signal th ~depth_limit:Config.signal_queue_depth va);
    charge t Config.c_signal_dispatch;
    make_ready t th;
    (* Cross-processor notification if the receiver prefers another CPU. *)
    (match th.Thread_obj.affinity with
    | Some cpu_id when cpu_id <> t.active_cpu -> charge t Hw.Cost.interprocessor_signal
    | _ -> ());
    true
  | Thread_obj.Ready | Thread_obj.Running _ ->
    charge t Config.c_signal_queue;
    if Thread_obj.queue_signal th ~depth_limit:Config.signal_queue_depth va then begin
      t.stats.Stats.signals_queued <- t.stats.Stats.signals_queued + 1;
      trace t (Trace.Signal_queued { thread = th.Thread_obj.oid; va })
    end
    else t.stats.Stats.signals_dropped <- t.stats.Stats.signals_dropped + 1;
    false
  | Thread_obj.Exited ->
    t.stats.Stats.signals_dropped <- t.stats.Stats.signals_dropped + 1;
    false

(* Chaos recovery: a dropped delivery was scheduled for redelivery on the
   node's event queue; by the time it fires the receiver may have been
   written back, in which case the drop is permanent — exactly the at-most-
   once property RPC's sequence numbers exist to paper over. *)
let redeliver t oid ~va =
  match find_thread t oid with
  | None -> ()
  | Some th ->
    Fault_inject.recover t.fi ~site:"signal.drop";
    ignore (deliver_now t th ~va ~fast_path:false)

(** Deliver signal address [va] to thread [th], through the injection
    plane: a delivery may be dropped (redelivered once after a backoff) or
    duplicated.  Returns true if the thread was woken (vs queued). *)
let deliver_to t (th : Thread_obj.t) ~va ~fast_path =
  match Fault_inject.signal_fate t.fi with
  | `Deliver -> deliver_now t th ~va ~fast_path
  | `Drop ->
    Fault_inject.inject t.fi ~site:"signal.drop";
    let oid = th.Thread_obj.oid in
    let delay = Hw.Cost.cycles_of_us (Fault_inject.redeliver_backoff_us) in
    Hw.Mpm.after t.node ~delay (fun () -> redeliver t oid ~va);
    false
  | `Duplicate ->
    Fault_inject.inject t.fi ~site:"signal.dup";
    ignore (deliver_now t th ~va ~fast_path);
    deliver_now t th ~va ~fast_path

(* Validate a reverse-TLB hit: the thread generation must still match and
   the mapping must still designate it as a signal thread.  The mapping
   version counter is the lock-free "check version, relookup on change"
   pattern of section 4.2. *)
let validated_rtlb_hit t ~pfn ~tag =
  match Caches.Thread_cache.get t.threads ~slot:(slot_of_tag tag) with
  | Some th when th.Thread_obj.oid.Oid.gen = gen_of_tag tag ->
    let still_signal =
      List.exists
        (fun (m : Mappings.m) -> m.Mappings.signal_thread = Some th.Thread_obj.oid)
        (Mappings.of_pfn t.mappings ~pfn)
    in
    if still_signal then Some th else None
  | _ -> None

(** Signal generation on physical page [pfn] at byte [offset]: deliver to
    every signal thread registered on a mapping of the page, translating
    the address into each receiver's address space. *)
let signal_page t ~pfn ~offset =
  let cpu = cpu t in
  (* Fast path: per-processor reverse TLB. *)
  let fast =
    if not t.config.Config.rtlb_enabled then false
    else
      match Hw.Rtlb.lookup cpu.Hw.Cpu.rtlb ~pfn with
    | Some (va_base, tag) -> (
      charge t Config.c_rtlb_update;
      match validated_rtlb_hit t ~pfn ~tag with
      | Some th ->
        ignore (deliver_to t th ~va:(va_base + offset) ~fast_path:true);
        true
      | None ->
        Hw.Rtlb.flush_pfn cpu.Hw.Cpu.rtlb ~pfn;
        false)
    | None -> false
  in
  if not fast then begin
    (* Two-stage lookup: physical-to-virtual records, then signal records. *)
    charge t (2 * Config.c_hash_update);
    let receivers =
      List.filter_map
        (fun (m : Mappings.m) ->
          match m.Mappings.signal_thread with
          | Some th_oid -> (
            match find_thread t th_oid with
            | Some th -> Some (m, th)
            | None -> None)
          | None -> None)
        (Mappings.of_pfn t.mappings ~pfn)
    in
    List.iter
      (fun ((m : Mappings.m), th) ->
        ignore (deliver_to t th ~va:(m.Mappings.va + offset) ~fast_path:false);
        (* Cache the translation for subsequent signals on this page. *)
        Hw.Rtlb.insert cpu.Hw.Cpu.rtlb ~pfn ~va_base:m.Mappings.va
          ~tag:(tag_of th.Thread_obj.oid);
        charge t Config.c_rtlb_update)
      receivers
  end

(** Hook called by the engine after a store to a message-mode page. *)
let on_message_write t ~pfn ~offset =
  ignore (Hw.Cache_sim.message_write t.node.Hw.Mpm.cache (Hw.Addr.addr_of_page pfn + offset));
  signal_page t ~pfn ~offset;
  (* Device regions: a Cache Kernel driver may be watching this page. *)
  match Hashtbl.find_opt t.device_hooks pfn with
  | Some hook -> hook offset
  | None -> ()

(** Direct signal to a specific thread, used by Cache Kernel device drivers
    (e.g. packet reception) and by application kernels waking a thread on a
    known channel address. *)
let post_signal t (th : Thread_obj.t) ~va = ignore (deliver_to t th ~va ~fast_path:false)
