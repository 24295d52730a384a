(* One Cache Kernel instance: the supervisor state of one MPM.

   Gathers the four object caches, the physical memory map, the ready
   queues, statistics and the per-CPU running-thread table.  Operations on
   this state live in {!Api}, {!Replacement}, {!Signals} and {!Engine}. *)

(* Pre-interned handles for the per-event metrics on the engine's hottest
   paths (dispatch, fault and trap handling latency).  Interned once at
   {!create} so recording is one mutable update, not a string-keyed
   [Hashtbl.find] per event; the export still lists them by name, in this
   registration order.  Events that {!Stats} already counts (forwarded
   faults and traps, preemptions) have no second counter here. *)
type hot = {
  dispatches : int ref;
  dispatch_us : Metrics.hist;
  fault_handle_us : Metrics.hist;
  trap_forward_us : Metrics.hist;
}

let make_hot metrics =
  {
    dispatches = Metrics.counter_ref metrics "sched.dispatches";
    dispatch_us = Metrics.hist metrics "sched.dispatch_us";
    fault_handle_us = Metrics.hist metrics "fault.handle_us";
    trap_forward_us = Metrics.hist metrics "trap.forward_us";
  }

type t = {
  node : Hw.Mpm.t;
  config : Config.t;
  kernels : Caches.Kernel_cache.t;
  spaces : Caches.Space_cache.t;
  threads : Caches.Thread_cache.t;
  mappings : Mappings.t;
  sched : Scheduler.t;
  trace : Trace.t;
  stats : Stats.t;
  metrics : Metrics.t;
  hot : hot; (* pre-interned handles into [metrics] for per-event paths *)
  fi : Fault_inject.t; (* deterministic fault-injection plane *)
  mutable first_kernel : Oid.t; (* the system resource manager's kernel *)
  running : Oid.t array; (* per-CPU current thread; [Oid.none] when idle *)
  mutable active_cpu : int; (* CPU whose thread is executing right now *)
  mutable current_thread : Oid.t;
      (* thread whose code (user or handler) is executing this very Cache
         Kernel call; [Oid.none] when the call comes from outside the engine *)
  mutable quota_epoch_start : Hw.Cost.cycles;
  mutable halted : bool; (* MPM hardware failure: fault containment *)
  mutable crashed_at_us : float; (* simulated time of the last crash *)
  device_hooks : (int, int -> unit) Hashtbl.t;
      (* physical page -> callback(offset): Cache Kernel device drivers
         observing message-mode writes to device regions (section 2.2) *)
  mutable on_misbehaving : kernel:Oid.t -> thread:Oid.t -> unit;
      (* Figure-2 watchdog escalation: a kernel failed twice to resolve a
         forwarded fault.  The SRM replaces the default no-op *)
  (* Engine hot-path caches (DESIGN.md section 12): the scheduler's resolve
     and per-CPU eligibility predicates are allocated once and reused, so a
     step allocates no fresh closures; [cpu_time_scratch] snapshots CPU
     clocks for the step's stable ordering without building lists. *)
  mutable sched_resolve : Oid.t -> Thread_obj.t option;
  mutable elig_normal : (Oid.t -> Thread_obj.t -> bool) array; (* per CPU *)
  mutable elig_idle : (Oid.t -> Thread_obj.t -> bool) array; (* per CPU *)
  cpu_time_scratch : int array;
}

let node_id t = t.node.Hw.Mpm.node_id
let n_cpus t = Hw.Mpm.n_cpus t.node
let n_groups t = (Hw.Mpm.pages t.node + Hw.Addr.pages_per_group - 1) / Hw.Addr.pages_per_group

(** CPU currently executing Cache Kernel code. *)
let cpu t = t.node.Hw.Mpm.cpus.(t.active_cpu)

(** Charge [c] cycles of supervisor work to the active CPU. *)
let charge t c = Hw.Cpu.charge (cpu t) c

(** Local time of the active CPU. *)
let now t = (cpu t).Hw.Cpu.local_time

let trace t event = Trace.record t.trace ~time:(now t) event

(** Emit guard: hot paths check this before constructing an event, so a
    tracing-disabled run pays one branch and zero allocation per site. *)
let[@inline] tracing t = Trace.enabled t.trace

(** MPM hardware failure (chaos site [node.crash]): halt the node and lose
    every piece of volatile supervisor state — the four object caches, the
    TLBs, the per-CPU running table — *without* writeback.  Unloading each
    descriptor bumps its slot generation, so every identifier issued before
    the crash is stale afterwards.  Physical memory frames are not
    scrubbed: in this model the application kernels' own records plus the
    backing store play the role of the writeback images the SRM restarts
    from ({!Srm.Manager.restart_node}). *)
let crash t =
  if not t.halted then begin
    Fault_inject.inject t.fi ~site:"node.crash";
    t.halted <- true;
    t.crashed_at_us <- Hw.Cost.us_of_cycles (Hw.Mpm.now t.node);
    Array.fill t.running 0 (Array.length t.running) Oid.none;
    t.current_thread <- Oid.none;
    let ths =
      Caches.Thread_cache.fold t.threads
        (fun acc (th : Thread_obj.t) -> th.Thread_obj.oid :: acc)
        []
    in
    List.iter (fun oid -> ignore (Caches.Thread_cache.unload t.threads oid)) ths;
    t.stats.Stats.threads.Stats.discarded <-
      t.stats.Stats.threads.Stats.discarded + List.length ths;
    let ms = ref [] in
    Mappings.iter t.mappings (fun m -> ms := m :: !ms);
    List.iter
      (fun (m : Mappings.m) ->
        Mappings.remove t.mappings ~space_slot:m.Mappings.space.Oid.slot m)
      !ms;
    t.stats.Stats.mappings.Stats.discarded <-
      t.stats.Stats.mappings.Stats.discarded + List.length !ms;
    let sps =
      Caches.Space_cache.fold t.spaces
        (fun acc (sp : Space_obj.t) -> sp.Space_obj.oid :: acc)
        []
    in
    List.iter (fun oid -> ignore (Caches.Space_cache.unload t.spaces oid)) sps;
    t.stats.Stats.spaces.Stats.discarded <-
      t.stats.Stats.spaces.Stats.discarded + List.length sps;
    let ks =
      Caches.Kernel_cache.fold t.kernels
        (fun acc (k : Kernel_obj.t) -> k.Kernel_obj.oid :: acc)
        []
    in
    List.iter (fun oid -> ignore (Caches.Kernel_cache.unload t.kernels oid)) ks;
    t.stats.Stats.kernels.Stats.discarded <-
      t.stats.Stats.kernels.Stats.discarded + List.length ks;
    t.first_kernel <- Oid.none;
    Array.iter
      (fun (c : Hw.Cpu.t) ->
        Hw.Tlb.flush_all c.Hw.Cpu.tlb;
        Hw.Rtlb.flush_all c.Hw.Cpu.rtlb)
      t.node.Hw.Mpm.cpus
    (* ready-queue entries are left in place: every queued identifier is
       now stale and the scheduler drops stale entries on scan *)
  end

let create ?(config = Config.default) node =
  let metrics = Metrics.create () in
  let t =
    {
      node;
      config;
      kernels =
        Caches.Kernel_cache.create ~policy:config.Config.policy
          ~capacity:config.Config.kernel_cache ();
      spaces =
        Caches.Space_cache.create ~policy:config.Config.policy
          ~capacity:config.Config.space_cache ();
      threads =
        Caches.Thread_cache.create ~policy:config.Config.policy
          ~capacity:config.Config.thread_cache ();
      mappings =
        Mappings.create ~policy:config.Config.policy
          ~capacity:config.Config.mapping_cache ();
      sched = Scheduler.create ~priorities:Config.priorities;
      trace = Trace.create ~capacity:config.Config.trace_capacity ();
      stats = Stats.create ();
      metrics;
      hot = make_hot metrics;
      fi = Fault_inject.create config.Config.chaos;
      first_kernel = Oid.none;
      running = Array.make (Hw.Mpm.n_cpus node) Oid.none;
      active_cpu = 0;
      current_thread = Oid.none;
      quota_epoch_start = 0;
      halted = false;
      crashed_at_us = 0.0;
      device_hooks = Hashtbl.create 8;
      on_misbehaving = (fun ~kernel:_ ~thread:_ -> ());
      sched_resolve = (fun _ -> None); (* filled below, once [t] exists *)
      elig_normal = [||]; (* filled lazily by {!Engine} *)
      elig_idle = [||];
      cpu_time_scratch = Array.make (Hw.Mpm.n_cpus node) 0;
    }
  in
  t.sched_resolve <-
    (fun oid ->
      match Caches.Thread_cache.find t.threads oid with
      | Some th when th.Thread_obj.state = Thread_obj.Ready -> Some th
      | _ -> None);
  Fault_inject.set_hooks t.fi
    ~on_inject:(fun site ->
      Metrics.incr t.metrics ("inject." ^ site);
      trace t (Trace.Injected { site }))
    ~on_recover:(fun site ->
      Metrics.incr t.metrics ("recover." ^ site);
      trace t (Trace.Recovered { site }));
  (match Fault_inject.take_crash_at_us t.fi with
  | Some us -> Hw.Mpm.at node ~time:(Hw.Cost.cycles_of_us us) (fun () -> crash t)
  | None -> ());
  t

(* Observability recording: counts and observes but never charges cycles,
   so instrumentation cannot perturb the cost model (DESIGN.md section 7). *)
let count t name = Metrics.incr t.metrics name
let observe t name v = Metrics.observe t.metrics name v
let observe_cycles t name c = Metrics.observe_cycles t.metrics name c

(** Combined machine-readable snapshot: per-kind cache counters ({!Stats})
    plus the hot-path counters and latency histograms ({!Metrics}). *)
let metrics_json t =
  let open Json in
  match (Stats.to_json t.stats, Metrics.to_json t.metrics) with
  | Obj stats_fields, Obj metric_fields ->
    Obj
      (( "node", Int t.node.Hw.Mpm.node_id )
      :: ("now_us", Float (Hw.Cost.us_of_cycles (Hw.Mpm.now t.node)))
      :: ("stats", Obj stats_fields)
      :: metric_fields)
  | s, m -> Obj [ ("stats", s); ("metrics", m) ]

let find_kernel t oid = Caches.Kernel_cache.find t.kernels oid
let find_space t oid = Caches.Space_cache.find t.spaces oid
let find_thread t oid = Caches.Thread_cache.find t.threads oid

(* The locked-object ledger (section 2): a lock counts against the kernel
   that owns the object, whoever set it.  These two are the only writers of
   [locked_count]. *)
let take_lock t ~owner =
  match find_kernel t owner with
  | Some k -> k.Kernel_obj.locked_count <- k.Kernel_obj.locked_count + 1
  | None -> ()

let release_lock t ~owner =
  match find_kernel t owner with
  | Some k -> k.Kernel_obj.locked_count <- k.Kernel_obj.locked_count - 1
  | None -> ()

(** Resolve a Ready thread for the scheduler; drops stale/unready entries. *)
let resolve_ready t oid = t.sched_resolve oid

(** Mark a loaded thread ready and enqueue it. *)
let make_ready t (th : Thread_obj.t) =
  th.Thread_obj.state <- Thread_obj.Ready;
  th.Thread_obj.ready_since <- now t;
  Scheduler.enqueue t.sched ~priority:th.Thread_obj.priority th.Thread_obj.oid

(** Append a writeback record on [owner]'s channel and notify it.  Records
    for kernels whose owner has itself vanished drain to the first kernel,
    which owns all kernel objects (section 3). *)
let push_writeback ?cost t ~(owner : Oid.t) record =
  let cost =
    match cost with
    | Some c -> c
    | None -> Config.c_writeback_record + Config.c_writeback_signal
  in
  charge t cost;
  let target =
    match find_kernel t owner with
    | Some k -> Some k
    | None -> find_kernel t t.first_kernel
  in
  match target with
  | Some k ->
    Queue.push record k.Kernel_obj.writebacks;
    k.Kernel_obj.handlers.Kernel_obj.on_writeback ()
  | None -> () (* boot-time: no first kernel yet; record is dropped *)

(** Record one replacement displacement (called from {!Replacement}). *)
let note_displacement t = count t "replacement.displacement"
