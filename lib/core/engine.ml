(* The execution engine: a discrete-event simulation of the MPM's
   processors running loaded threads under the Cache Kernel.

   Each step resumes the current thread of one CPU up to its next effect
   point (compute charge, memory access, trap), charges the cycle costs of
   whatever the hardware and the Cache Kernel did, and handles the
   scheduling, fault-forwarding and signal consequences.  The six-step
   page-fault protocol of Figure 2 is realised here:

     1. the access faults in {!translate_access} and traps to the Cache
        Kernel;
     2. {!handle_fault} saves the thread state (its suspended continuation)
        and switches it onto its application kernel's handler;
     3. the handler frame runs application-kernel code;
     4. the handler loads a new mapping through {!Api};
     5. the handler returns (or used the combined load-and-resume call);
     6. the faulting access is retried and the thread resumes.

   The per-event path is written to stay off the minor heap (DESIGN.md
   section 12): no tuples, option wrappers, lists or fresh closures are
   built per step — CPU ordering uses a visited bitmask over a scratch
   array, scheduler predicates are cached per instance, and the running
   table uses [Oid.none] sentinels instead of options.

   Every run, of one node or many, uses one windowed schedule built on the
   same conservative-lookahead argument as the per-step horizon: within a
   window no peer can deliver earlier than its window-start clock plus the
   minimum link latency, so each node steps up to that cap in turn.  A
   lone node has no peer, so its cap is [max_int] and only the run
   deadline bounds it. *)

open Instance

exception Kernel_bug of string

let continue_unit (k : (unit, Hw.Exec.status) Effect.Deep.continuation) =
  Effect.Deep.continue k ()

(* The address space a frame executes in: the thread's own space for user
   frames, the application kernel's space for handler frames. *)
let frame_space t (th : Thread_obj.t) (frame : Thread_obj.frame) =
  match frame.Thread_obj.mode with
  | Thread_obj.User -> find_space t th.Thread_obj.space
  | Thread_obj.Kernel_mode -> (
    match find_kernel t frame.Thread_obj.kernel with
    | Some k when not (Oid.is_none k.Kernel_obj.space) -> find_space t k.Kernel_obj.space
    | _ -> None)

(** Normal completion of the outermost (user) frame. *)
let thread_exited t (th : Thread_obj.t) =
  if Oid.equal t.running.(t.active_cpu) th.Thread_obj.oid then
    t.running.(t.active_cpu) <- Oid.none;
  th.Thread_obj.frames <- [];
  Replacement.unload_thread_now t ~reason:Wb.Exited th

(** Abnormal termination: the thread's owner learns through the same
    writeback with reason [Exited]; remaining state is discarded. *)
let kill_thread t (th : Thread_obj.t) msg =
  Logs.warn (fun m ->
      m "node%d: killing thread %a: %s" (node_id t) Oid.pp th.Thread_obj.oid msg);
  thread_exited t th

(* Push an application-kernel handler frame onto the thread and start it.
   The handler body runs with the instance's active CPU set, so direct API
   calls it makes are charged to the right processor.  Returns the frame,
   so the forwarding watchdog can later test whether it is still pending. *)
let push_handler t (th : Thread_obj.t) ~(kernel : Kernel_obj.t) ~origin ~pushed_at body =
  let frame =
    Thread_obj.frame ~mode:Thread_obj.Kernel_mode ~kernel:kernel.Kernel_obj.oid
      (Hw.Exec.Done Hw.Exec.Unit_payload)
  in
  frame.Thread_obj.origin <- origin;
  frame.Thread_obj.pushed_at <- pushed_at;
  Thread_obj.push_frame th frame;
  if tracing t then trace t (Trace.Handler_running { thread = th.Thread_obj.oid });
  frame.Thread_obj.status <- Hw.Exec.start body;
  frame

(* Figure-2 forwarding watchdog: a forwarded fault must resolve — its
   handler frame popped — within [Config.forward_deadline_us] of the
   forward.  On the first expiry the fault is re-forwarded once (the
   handler may have wedged or lost the work); on the second the owning
   kernel is reported to the SRM as misbehaving ({!Instance.t.on_misbehaving})
   and the faulting thread is killed rather than left hung forever. *)
let rec arm_forward_watchdog t (th : Thread_obj.t) frame ~(kernel : Kernel_obj.t) ~body
    ~retried =
  let deadline_us = t.config.Config.forward_deadline_us in
  if deadline_us > 0.0 then begin
    let thread_oid = th.Thread_obj.oid in
    Hw.Mpm.after t.node ~delay:(Hw.Cost.cycles_of_us deadline_us) (fun () ->
        let still_pending =
          match find_thread t thread_oid with
          | Some th' -> th' == th && List.memq frame th.Thread_obj.frames
          | None -> false
        in
        if still_pending then
          if not retried then begin
            count t "watchdog.reforward";
            trace t (Trace.Forward_timeout { thread = thread_oid; escalated = false });
            charge t Hw.Cost.exception_forward;
            let frame' =
              push_handler t th ~kernel ~origin:Thread_obj.From_fault
                ~pushed_at:(Hw.Mpm.now t.node) body
            in
            (* a handler stuck in wait-signal holds the thread Blocked; the
               re-forwarded frame sits on top, so wake the thread to run it *)
            (match th.Thread_obj.state with
            | Thread_obj.Blocked _ -> make_ready t th
            | _ -> ());
            arm_forward_watchdog t th frame' ~kernel ~body ~retried:true
          end
          else begin
            count t "watchdog.escalation";
            trace t (Trace.Forward_timeout { thread = thread_oid; escalated = true });
            t.on_misbehaving ~kernel:kernel.Kernel_obj.oid ~thread:thread_oid;
            kill_thread t th "forwarded fault unresolved after re-forward (watchdog)"
          end)
  end

(* The kernel a fault or trap forwards to.  User code forwards to [owner]:
   the owner of the faulting space for a fault, of the thread for a trap.
   Code running inside an application kernel forwards to the kernel that
   owns it, the first kernel (the system resource manager); the first
   kernel's own code has no kernel to forward to. *)
let handling_kernel t (frame : Thread_obj.frame) ~owner =
  match frame.Thread_obj.mode with
  | Thread_obj.User -> find_kernel t owner
  | Thread_obj.Kernel_mode ->
    if Oid.equal frame.Thread_obj.kernel t.first_kernel then None
    else find_kernel t t.first_kernel

(** Figure 2 steps 1-3: trap to the Cache Kernel, switch the thread onto
    its application kernel's exception handler.  [sp] is the space the
    faulting frame executes in. *)
(* A thread re-faulting on the same page without completing an access is
   making no progress (a handler that cannot serve the page); bound it. *)
let max_fault_repeat = 64

let handle_fault t (th : Thread_obj.t) (frame : Thread_obj.frame) (sp : Space_obj.t)
    (fault : Hw.Mmu.fault) =
  (* Figure 2 step 1: the end-to-end fault latency histogram starts here. *)
  let fault_t0 = now t in
  (* guarded: the kind string alone would allocate on every fault *)
  if tracing t then
    trace t
      (Trace.Fault_trap
         {
           thread = th.Thread_obj.oid;
           va = fault.Hw.Mmu.va;
           kind = Fmt.str "%a" Hw.Mmu.pp_fault_kind fault.Hw.Mmu.kind;
         });
  charge t Hw.Cost.trap_entry;
  let key = Hw.Addr.page_of fault.Hw.Mmu.va in
  if th.Thread_obj.fault_key = key then
    th.Thread_obj.fault_repeat <- th.Thread_obj.fault_repeat + 1
  else begin
    th.Thread_obj.fault_key <- key;
    th.Thread_obj.fault_repeat <- 1
  end;
  (* Deferred-copy fast path: a write fault on a copy-on-write mapping is
     resolved inside the Cache Kernel by copying the source frame. *)
  let cow_resolved =
    match fault.Hw.Mmu.kind with
    | Hw.Mmu.Protection_violation when fault.Hw.Mmu.access = Hw.Mmu.Write -> (
      match
        Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va:fault.Hw.Mmu.va
      with
      | Some m when m.Mappings.cow_dst <> None ->
        let dst = Option.get m.Mappings.cow_dst in
        let src = Mappings.pfn m in
        Hw.Phys_mem.copy_page t.node.Hw.Mpm.mem ~src ~dst;
        charge t (Config.c_cow_copy_per_word * (Hw.Addr.page_size / 4));
        Replacement.flush_rtlbs_pfn t ~pfn:src;
        Mappings.retarget t.mappings m ~new_pfn:dst;
        m.Mappings.pte.Hw.Page_table.flags <-
          { m.Mappings.pte.Hw.Page_table.flags with Hw.Page_table.writable = true };
        Mappings.clear_cow t.mappings m;
        t.stats.Stats.cow_copies <- t.stats.Stats.cow_copies + 1;
        true
      | _ -> false)
    | _ -> false
  in
  if cow_resolved then observe_cycles t "fault.cow_us" (now t - fault_t0)
  else if th.Thread_obj.fault_repeat > max_fault_repeat then
    kill_thread t th
      (Fmt.str "no progress after %d repeated faults: %a" th.Thread_obj.fault_repeat
         Hw.Mmu.pp_fault fault)
  else begin
    let depth = Thread_obj.handler_depth th in
    if depth >= Config.max_fault_depth then
      kill_thread t th
        (Fmt.str "fault depth %d exceeded handling %a" depth Hw.Mmu.pp_fault fault)
    else
      match handling_kernel t frame ~owner:sp.Space_obj.owner with
      | None ->
        kill_thread t th
          (Fmt.str "unhandlable %a (no owning kernel)" Hw.Mmu.pp_fault fault)
      | Some kernel -> (
        match Fault_inject.forward_drop t.fi with
        | Fault_inject.Inject ->
          (* chaos: the forward to the handling kernel is lost.  The paused
             access below simply refaults on the thread's next step — the
             natural retry, bounded by [max_fault_repeat] and by the plane's
             no-consecutive-injection rule. *)
          Fault_inject.inject t.fi ~site:"fault.forward"
        | (Fault_inject.After_inject | Fault_inject.Pass) as d ->
          if d = Fault_inject.After_inject then
            Fault_inject.recover t.fi ~site:"fault.forward";
          charge t Hw.Cost.exception_forward;
          t.stats.Stats.faults_forwarded <- t.stats.Stats.faults_forwarded + 1;
          if tracing t then
            trace t
              (Trace.Forward_to_kernel
                 { thread = th.Thread_obj.oid; kernel = kernel.Kernel_obj.oid });
          let ctx =
            {
              Kernel_obj.thread = th.Thread_obj.oid;
              va = fault.Hw.Mmu.va;
              access = fault.Hw.Mmu.access;
              kind = fault.Hw.Mmu.kind;
            }
          in
          let body () =
            kernel.Kernel_obj.handlers.Kernel_obj.on_fault ctx;
            Hw.Exec.Unit_payload
          in
          let hframe =
            push_handler t th ~kernel ~origin:Thread_obj.From_fault ~pushed_at:fault_t0
              body
          in
          arm_forward_watchdog t th hframe ~kernel ~body ~retried:false)
  end

(* The step a virtual-memory read or write shares: translate in the
   current frame's space, charge the translation and the data-cache
   access, or divert a fault to the forwarding machinery.  Returns the
   MMU's own result, so the hottest path in the simulator allocates no
   commit closure: on [Ok] the caller commits the access; on [Error] the
   fault has been handled (or the thread killed) and the paused status is
   left in place, so the access retries when the handler completes
   (Figure 2 step 6). *)
let translate_access t (th : Thread_obj.t) (frame : Thread_obj.frame) ~va ~access =
  match frame_space t th frame with
  | None ->
    kill_thread t th
      (Fmt.str "memory access at %a with no address space" Hw.Addr.pp_addr va);
    Error { Hw.Mmu.va; access; kind = Hw.Mmu.Missing_mapping }
  | Some sp -> (
    let cpu = cpu t in
    match
      Hw.Mmu.translate ~tlb:cpu.Hw.Cpu.tlb ~table:sp.Space_obj.table
        ~asid:(Space_obj.asid sp) ~va ~access
    with
    | Ok tr as r ->
      if th.Thread_obj.fault_repeat <> 0 then begin
        th.Thread_obj.fault_repeat <- 0;
        th.Thread_obj.fault_key <- -1
      end;
      let line = Hw.Cache_sim.access t.node.Hw.Mpm.cache tr.Hw.Mmu.paddr in
      charge t (tr.Hw.Mmu.cost + Hw.Mmu.data_cost line);
      r
    | Error fault as r ->
      handle_fault t th frame sp fault;
      r)

let do_read t (th : Thread_obj.t) (frame : Thread_obj.frame) ~va k =
  match translate_access t th frame ~va ~access:Hw.Mmu.Read with
  | Ok tr ->
    let w = Hw.Phys_mem.read_word t.node.Hw.Mpm.mem tr.Hw.Mmu.paddr in
    frame.Thread_obj.status <- Effect.Deep.continue k w
  | Error _ -> ()

let do_write t (th : Thread_obj.t) (frame : Thread_obj.frame) ~va v k =
  match translate_access t th frame ~va ~access:Hw.Mmu.Write with
  | Ok tr ->
    Hw.Phys_mem.write_word t.node.Hw.Mpm.mem tr.Hw.Mmu.paddr v;
    frame.Thread_obj.status <- continue_unit k;
    if tr.Hw.Mmu.pte.Hw.Page_table.flags.Hw.Page_table.message_mode then
      Signals.on_message_write t ~pfn:tr.Hw.Mmu.pte.Hw.Page_table.frame
        ~offset:(Hw.Addr.offset_of va)
  | Error _ -> ()

(* Trap instruction processing: Cache Kernel calls are executed here;
   anything else forwards to the owning application kernel (section 2.3).
   A payload left pending by a reload-after-unload is delivered first. *)
let do_trap t (th : Thread_obj.t) (frame : Thread_obj.frame) p k =
  match th.Thread_obj.resume_value with
  | Some v ->
    th.Thread_obj.resume_value <- None;
    charge t Hw.Cost.trap_exit;
    frame.Thread_obj.status <- Effect.Deep.continue k v
  | None -> (
    let trap_t0 = now t in
    charge t Hw.Cost.trap_entry;
    match p with
    | Api.Ck_yield ->
      th.Thread_obj.slice_left <- 0;
      charge t Hw.Cost.trap_exit;
      frame.Thread_obj.status <- Effect.Deep.continue k Hw.Exec.Unit_payload
    | Api.Ck_exit -> thread_exited t th
    | Api.Ck_wait_signal ->
      if Queue.is_empty th.Thread_obj.signal_q then
        (* Park on the trap: the status is re-evaluated when a signal
           arrives and the scheduler runs the thread again. *)
        th.Thread_obj.state <- Thread_obj.Blocked Thread_obj.On_signal
      else begin
        let va = Queue.pop th.Thread_obj.signal_q in
        charge t Hw.Cost.trap_exit;
        frame.Thread_obj.status <- Effect.Deep.continue k (Api.Ck_signal va)
      end
    | p -> (
      match handling_kernel t frame ~owner:th.Thread_obj.owner with
      | None -> kill_thread t th "trap with no kernel to forward to"
      | Some kernel ->
        charge t Hw.Cost.trap_forward;
        t.stats.Stats.traps_forwarded <- t.stats.Stats.traps_forwarded + 1;
        if tracing t then
          trace t
            (Trace.Trap_forwarded
               { thread = th.Thread_obj.oid; kernel = kernel.Kernel_obj.oid });
        ignore
          (push_handler t th ~kernel ~origin:Thread_obj.From_trap ~pushed_at:trap_t0
             (fun () -> kernel.Kernel_obj.handlers.Kernel_obj.on_trap th.Thread_obj.oid p))))

(* Completion of the top frame, split by outcome so the common success
   path builds no [result] value.  A handler frame's result feeds the trap
   continuation below it; a faulted access below simply retries. *)
let frame_failed t (th : Thread_obj.t) (frame : Thread_obj.frame) exn =
  if frame.Thread_obj.mode = Thread_obj.Kernel_mode then
    kill_thread t th
      (Fmt.str "application kernel handler raised %s" (Printexc.to_string exn))
  else kill_thread t th (Fmt.str "uncaught %s" (Printexc.to_string exn))

let frame_ok t (th : Thread_obj.t) (frame : Thread_obj.frame) v =
  ignore (Thread_obj.pop_frame th);
  if frame.Thread_obj.mode = Thread_obj.Kernel_mode then begin
    charge t
      (if frame.Thread_obj.combined_resume then Config.c_combined_resume
       else Hw.Cost.exception_return);
    if tracing t then begin
      trace t (Trace.Exception_complete { thread = th.Thread_obj.oid });
      trace t (Trace.Thread_resumed { thread = th.Thread_obj.oid })
    end;
    (* End-to-end handler latency, from the trap/fault that pushed the
       frame (Figure 2 steps 1-6) to this exception return. *)
    match frame.Thread_obj.origin with
    | Thread_obj.From_fault ->
      Metrics.observe_hist_cycles t.hot.fault_handle_us
        (now t - frame.Thread_obj.pushed_at)
    | Thread_obj.From_trap ->
      Metrics.observe_hist_cycles t.hot.trap_forward_us
        (now t - frame.Thread_obj.pushed_at)
    | Thread_obj.Internal -> ()
  end;
  match th.Thread_obj.frames with
  | [] -> thread_exited t th
  | lower :: _ ->
    if th.Thread_obj.unload_pending then begin
      (* Deliver the trap result after the thread is reloaded. *)
      match lower.Thread_obj.status with
      | Hw.Exec.On_trap _ -> th.Thread_obj.resume_value <- Some v
      | _ -> ()
    end
    else begin
      match lower.Thread_obj.status with
      | Hw.Exec.On_trap (_, k) -> lower.Thread_obj.status <- Effect.Deep.continue k v
      | Hw.Exec.On_read _ | Hw.Exec.On_write _ ->
        () (* the faulted access retries on the next step *)
      | _ -> ()
    end

(* One step of the thread: resume its top frame to the next effect. *)
let step_frame t (th : Thread_obj.t) (frame : Thread_obj.frame) =
  match frame.Thread_obj.status with
  | Hw.Exec.Done v -> frame_ok t th frame v
  | Hw.Exec.Failed e -> frame_failed t th frame e
  | Hw.Exec.On_compute (n, k) ->
    if th.Thread_obj.slice_left <= 0 then
      (* the scheduler decided to keep running it: fresh quantum *)
      th.Thread_obj.slice_left <- Config.time_slice;
    let run = min n th.Thread_obj.slice_left in
    charge t run;
    th.Thread_obj.slice_left <- th.Thread_obj.slice_left - run;
    if run >= n then frame.Thread_obj.status <- continue_unit k
    else frame.Thread_obj.status <- Hw.Exec.On_compute (n - run, k)
  | Hw.Exec.On_read (va, k) -> do_read t th frame ~va k
  | Hw.Exec.On_write (va, v, k) -> do_write t th frame ~va v k
  | Hw.Exec.On_trap (p, k) -> do_trap t th frame p k
  | Hw.Exec.On_time k ->
    frame.Thread_obj.status <-
      Effect.Deep.continue k (Hw.Cost.us_of_cycles (cpu t).Hw.Cpu.local_time)

let step_thread t ~cpu_id (th : Thread_obj.t) =
  t.active_cpu <- cpu_id;
  t.current_thread <- th.Thread_obj.oid;
  let cpu = cpu t in
  th.Thread_obj.recently_used <- true;
  let t0 = cpu.Hw.Cpu.local_time in
  (match Thread_obj.top th with
  | None -> thread_exited t th
  | Some frame -> step_frame t th frame);
  t.current_thread <- Oid.none;
  let delta = cpu.Hw.Cpu.local_time - t0 in
  th.Thread_obj.consumed <- th.Thread_obj.consumed + delta;
  (* Processor-percentage accounting with premium charging (section 4.3). *)
  (match find_kernel t th.Thread_obj.owner with
  | Some kernel ->
    let elapsed = max 1 (cpu.Hw.Cpu.local_time - t.quota_epoch_start) in
    if
      Quota.charge kernel ~cpu:cpu_id ~priority:th.Thread_obj.priority ~cycles:delta
        ~elapsed ~grace:Config.time_slice
    then
      if tracing t then
        trace t (Trace.Quota_exceeded { kernel = kernel.Kernel_obj.oid; cpu = cpu_id })
  | None -> ());
  (* Post-step transitions. *)
  if th.Thread_obj.unload_pending then begin
    if Oid.equal t.running.(cpu_id) th.Thread_obj.oid then
      t.running.(cpu_id) <- Oid.none;
    Replacement.unload_thread_now t ~reason:Wb.Requested th
  end
  else
    match th.Thread_obj.state with
    | Thread_obj.Blocked _ ->
      t.running.(cpu_id) <- Oid.none;
      charge t Hw.Cost.context_switch
    | Thread_obj.Running _ | Thread_obj.Ready | Thread_obj.Exited -> ()

(* Scheduler eligibility: Ready, affinity matches, and the owning kernel is
   not demoted on this CPU for exceeding its percentage. *)
let eligible_normal t ~cpu_id _oid (th : Thread_obj.t) =
  (match th.Thread_obj.affinity with Some c -> c = cpu_id | None -> true)
  &&
  match find_kernel t th.Thread_obj.owner with
  | Some k -> not k.Kernel_obj.demoted.(cpu_id)
  | None -> false

(* Second phase: demoted kernels' threads run "only when the processor is
   otherwise idle". *)
let eligible_idle _t ~cpu_id _oid (th : Thread_obj.t) =
  match th.Thread_obj.affinity with Some c -> c = cpu_id | None -> true

(* The scheduler's resolve/eligibility predicates close over the instance
   and the CPU; build them once per instance (lazily, so tests that poke
   the scheduler directly see the same behavior) instead of allocating
   fresh closures on every step. *)
let ensure_sched_caches t =
  if Array.length t.elig_normal = 0 then begin
    let nc = Hw.Mpm.n_cpus t.node in
    t.elig_normal <-
      Array.init nc (fun cpu_id -> fun oid th -> eligible_normal t ~cpu_id oid th);
    t.elig_idle <-
      Array.init nc (fun cpu_id -> fun oid th -> eligible_idle t ~cpu_id oid th)
  end

let roll_quota_epoch t ~now_cycles =
  if now_cycles - t.quota_epoch_start >= Config.quota_epoch then begin
    Caches.Kernel_cache.iter t.kernels Quota.reset_epoch;
    t.quota_epoch_start <- now_cycles
  end

let dispatch t ~cpu_id oid (th : Thread_obj.t) =
  let cpu = t.node.Hw.Mpm.cpus.(cpu_id) in
  Hw.Cpu.idle_until cpu th.Thread_obj.ready_since;
  Hw.Cpu.charge cpu (Hw.Cost.dispatch + Hw.Cost.context_switch);
  th.Thread_obj.state <- Thread_obj.Running cpu_id;
  th.Thread_obj.slice_left <- Config.time_slice;
  t.running.(cpu_id) <- oid;
  cpu.Hw.Cpu.switches <- cpu.Hw.Cpu.switches + 1;
  Stdlib.incr t.hot.dispatches;
  (* Dispatch-to-run latency: ready-queue wait plus the switch just charged. *)
  Metrics.observe_hist_cycles t.hot.dispatch_us
    (cpu.Hw.Cpu.local_time - th.Thread_obj.ready_since);
  if tracing t then trace t (Trace.Thread_dispatched { thread = oid; cpu = cpu_id })

(** Run one scheduling decision or thread step on [cpu_id]. *)
let step_cpu t ~cpu_id =
  t.active_cpu <- cpu_id;
  let cpu = t.node.Hw.Mpm.cpus.(cpu_id) in
  roll_quota_epoch t ~now_cycles:cpu.Hw.Cpu.local_time;
  ensure_sched_caches t;
  let resolve = t.sched_resolve in
  let roid = t.running.(cpu_id) in
  let th = if Oid.is_none roid then None else find_thread t roid in
  match th with
  | Some th ->
    let p =
      Scheduler.highest_ready_pri t.sched ~resolve ~eligible:t.elig_normal.(cpu_id)
    in
    let preempt =
      p >= 0
      && (p > th.Thread_obj.priority
         || (th.Thread_obj.slice_left <= 0 && p >= th.Thread_obj.priority))
    in
    if preempt then begin
      Hw.Cpu.charge cpu Hw.Cost.context_switch;
      t.stats.Stats.preemptions <- t.stats.Stats.preemptions + 1;
      if tracing t then
        trace t (Trace.Thread_preempted { thread = th.Thread_obj.oid; cpu = cpu_id });
      make_ready t th;
      t.running.(cpu_id) <- Oid.none;
      `Ran
    end
    else begin
      step_thread t ~cpu_id th;
      `Ran
    end
  | None -> (
    match Scheduler.pick t.sched ~resolve ~eligible:t.elig_normal.(cpu_id) with
    | Some (oid, th) ->
      dispatch t ~cpu_id oid th;
      `Ran
    | None -> (
      match Scheduler.pick t.sched ~resolve ~eligible:t.elig_idle.(cpu_id) with
      | Some (oid, th) ->
        dispatch t ~cpu_id oid th;
        `Ran
      | None -> `Idle))

(* An idle CPU must not hold back node time (events become due only when
   every CPU has reached them): pull it forward to the earliest of the
   next event (horizon-capped, [max_int] when absent) and the other CPUs'
   clocks.  Returns whether it advanced. *)
let pull_forward (cpus : Hw.Cpu.t array) nc next_jump cpu_id =
  let me = cpus.(cpu_id) in
  let mt = me.Hw.Cpu.local_time in
  let best = ref max_int in
  if next_jump <> max_int && next_jump > mt then best := next_jump;
  for i = 0 to nc - 1 do
    let ct = cpus.(i).Hw.Cpu.local_time in
    if ct > mt && ct < !best then best := ct
  done;
  if !best <> max_int then begin
    Hw.Cpu.idle_until me !best;
    true
  end
  else false

(* Snapshot CPU clocks into [times] and return their minimum. *)
let rec snap_min (cpus : Hw.Cpu.t array) (times : int array) i acc =
  if i >= Array.length cpus then acc
  else begin
    let ct = cpus.(i).Hw.Cpu.local_time in
    times.(i) <- ct;
    snap_min cpus times (i + 1) (if ct < acc then ct else acc)
  end

(* Lowest-indexed unvisited CPU with the smallest snapshot time — the
   order a stable sort of indices by time would visit them in, computed
   by selection over the scratch array instead of building a list. *)
let rec select_cpu (times : int array) nc visited i best best_t =
  if i >= nc then best
  else if visited land (1 lsl i) = 0 && times.(i) < best_t then
    select_cpu times nc visited (i + 1) i times.(i)
  else select_cpu times nc visited (i + 1) best best_t

(** Advance one node by one step: a due event, a thread step, or an idle
    advance to the next event.  [`Quiescent] means nothing can happen until
    some external input (another node's message) arrives.

    [horizon] caps idle jumps: an idle node may not skip past the run
    deadline, nor past the point up to which other, still-active nodes
    could yet send it traffic (conservative lookahead — the cap is the
    earliest possible arrival of a frame a peer has not sent yet). *)
let step_node ~horizon t =
  if t.halted then `Quiescent
  else begin
    let cpus = t.node.Hw.Mpm.cpus in
    let nc = Array.length cpus in
    let times = t.cpu_time_scratch in
    let min_time = snap_min cpus times 0 max_int in
    let et = Hw.Event_queue.next_time_or t.node.Hw.Mpm.events ~default:max_int in
    if et <> max_int && et <= min_time then begin
      ignore (Hw.Event_queue.run_next t.node.Hw.Mpm.events);
      `Progress
    end
    else begin
      let next_jump = if et = max_int then max_int else min et horizon in
      (* Try CPUs in ascending-snapshot-time order; stop at the first that
         runs.  Idle CPUs are pulled forward as they are passed over. *)
      let rec try_cpus visited advanced =
        match select_cpu times nc visited 0 (-1) max_int with
        | -1 ->
          if advanced then `Progress
          else if next_jump <> max_int && next_jump > min_time then begin
            for i = 0 to nc - 1 do
              Hw.Cpu.idle_until cpus.(i) next_jump
            done;
            `Progress
          end
          else `Quiescent
        | cpu_id -> (
          match step_cpu t ~cpu_id with
          | `Ran -> `Progress
          | `Idle ->
            let adv = pull_forward cpus nc next_jump cpu_id || advanced in
            try_cpus (visited lor (1 lsl cpu_id)) adv)
      in
      try_cpus 0 false
    end
  end

(** Level all CPU clocks of [t] to the node's latest time (end-of-run
    idle accounting). *)
let sync_clocks t =
  let latest = Hw.Mpm.now t.node in
  Array.iter (fun c -> Hw.Cpu.idle_until c latest) t.node.Hw.Mpm.cpus

let node_time (n : Instance.t) =
  Array.fold_left (fun acc c -> min acc c.Hw.Cpu.local_time) max_int n.node.Hw.Mpm.cpus

(* -- Windowed schedule (DESIGN.md section 12) --

   Nodes advance in windows, stepped one after another.  At each window
   start the node clocks are snapshot; node [i] may then step freely while
   its time is below [cap_i] = min over active peers [m] of
   (time_m + fiber_packet): no frame a peer has not yet sent can arrive
   below that bound.  A frame lands on the destination's event queue when
   it is sent, and topology transitions apply when they are called. *)

(* One node's share of a window: step while below the cap (the final step
   may overshoot it, exactly as the per-step horizon only caps idle
   jumps).  [budget] bounds runaway nodes.

   A quiescence-flagged node is still probed (one cheap [`Quiescent]
   step_node when truly idle): a peer's frame or handler may have put an
   event on its queue, and the probe is what wakes it.  The flag's real
   job is the cap computation: a flagged peer does not gate the window,
   so active nodes are not stuck 750 cycles above a node that may stay
   idle forever.  Returns the steps taken. *)
let window_work (nd : Instance.t) qflags ~ubound ~cap ~budget i =
  (* idle jumps stop at the run deadline too: without this a node whose
     peers are all quiescent would leap to a far-future timer, and the
     replies its own frames provoke would land stamped in its past *)
  let horizon = min cap ubound in
  (* a send this window may wake a peer the cap ignored; the interconnect
     lowers this bound to the earliest reply the send could provoke *)
  Hw.Interconnect.reply_bound := max_int;
  let taken = ref 0 in
  let go = ref true in
  while !go && !taken < budget do
    let nt = node_time nd in
    let et = Hw.Event_queue.next_time_or nd.node.Hw.Mpm.events ~default:max_int in
    (* an event already due runs at its stamped (past) time and advances
       no clock, so it is exempt from both the deadline and the cap —
       refusing it would strand in-bound traffic behind a node whose
       clock out-ran it *)
    let drainable = et <= nt && et <= ubound in
    let h = min horizon !Hw.Interconnect.reply_bound in
    if nt >= h && not drainable then go := false
    else
      match step_node ~horizon:h nd with
      | `Progress ->
        incr taken;
        qflags.(i) <- false
      | `Quiescent ->
        qflags.(i) <- true;
        go := false
  done;
  !taken

(* Per-node step bound within one window.  Mostly the conservative cap
   bounds a window, but a node whose peers are all quiescent has
   [cap = max_int] and would otherwise burn the entire run's step budget
   before a sleeping peer is ever probed again. *)
let window_max_steps = 4096

(* The conservative per-node caps: [caps.(i)] is the earliest instant any
   active peer [m <> i] could deliver to [i], the minimum of
   [times.(m) + fiber_packet] (quiescent and halted peers cannot originate
   traffic and do not gate the window).  One pass keeps the smallest and
   second-smallest arrival over all active nodes: every node's cap is the
   smallest, except the node holding it, whose cap is the second. *)
let window_caps ~times ~active caps =
  let first = ref max_int and second = ref max_int and argmin = ref (-1) in
  for m = 0 to Array.length times - 1 do
    if active.(m) then begin
      let arrival = times.(m) + Hw.Cost.fiber_packet in
      if arrival < !first then begin
        second := !first;
        first := arrival;
        argmin := m
      end
      else if arrival < !second then second := arrival
    end
  done;
  for i = 0 to Array.length caps - 1 do
    caps.(i) <- (if i = !argmin then !second else !first)
  done

let run_multi ~until ~max_steps (nodes : Instance.t array) node_steps =
  let n = Array.length nodes in
  let ubound = match until with Some u -> u | None -> max_int in
  (* persistent quiescence: nothing node-local can wake a quiescent node,
     so the flag survives windows and clears only when a frame was sent *)
  let qflags = Array.make n false in
  let active = Array.make n false in
  let caps = Array.make n max_int in
  let times = Array.make n 0 in
  let sent = ref false in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    for i = 0 to n - 1 do
      times.(i) <- node_time nodes.(i);
      active.(i) <- not (qflags.(i) || nodes.(i).halted)
    done;
    window_caps ~times ~active caps;
    let budget = min window_max_steps (max_steps - !steps) in
    sent := false;
    let wsteps = ref 0 in
    for i = 0 to n - 1 do
      let taken = window_work nodes.(i) qflags ~ubound ~cap:caps.(i) ~budget i in
      if !Hw.Interconnect.reply_bound <> max_int then sent := true;
      node_steps.(i) <- node_steps.(i) + taken;
      wsteps := !wsteps + taken
    done;
    steps := !steps + !wsteps;
    (* a frame may wake a flagged node, which must gate the next window *)
    if !sent then Array.fill qflags 0 n false;
    (* The least-time unflagged node always has cap > its own time, so
       each window either steps or newly flags at least one node — the
       loop below cannot spin. *)
    if !wsteps = 0 then begin
      (* done only when every node is quiescence-flagged or past the
         deadline: a node can take zero steps merely because its cap was
         computed before a peer went quiescent mid-window, and the next
         window's fresh caps unstick it *)
      let all_done = ref true in
      for i = 0 to n - 1 do
        if not (qflags.(i) || node_time nodes.(i) >= ubound) then all_done := false
      done;
      if !all_done then continue := false
    end
  done;
  !steps

(** Run a cluster of Cache Kernel instances until every node is quiescent,
    the optional simulated-time bound is reached, or [max_steps] engine
    steps have executed.  Every cluster size, one node included, uses the
    windowed schedule.  Returns the number of steps taken. *)
let run ?until_us ?(max_steps = 200_000_000) (nodes : Instance.t array) =
  let until = Option.map Hw.Cost.cycles_of_us until_us in
  let n = Array.length nodes in
  if n = 0 then 0
  else begin
    let node_steps = Array.make n 0 in
    let steps = run_multi ~until ~max_steps nodes node_steps in
    Array.iter sync_clocks nodes;
    (* per-node step attribution: the wall-clock harness divides the
       [engine.steps] counter by real elapsed time for an events/s figure *)
    Array.iteri
      (fun idx nd ->
        if node_steps.(idx) > 0 then
          Metrics.incr ~by:node_steps.(idx) nd.metrics "engine.steps")
      nodes;
    steps
  end
