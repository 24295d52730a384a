(* One Cache Kernel instance: the supervisor state of one MPM.

   Gathers the four object caches, the physical memory map, the ready
   queues, statistics and the per-CPU running-thread table.  Operations on
   this state live in {!Api}, {!Replacement}, {!Signals} and {!Engine}. *)

(* Pre-interned handles for the per-event metrics on the engine's hottest
   paths (dispatch, preemption, fault forwarding, trap forwarding).  Interned
   once at {!create} so recording is one mutable update, not a string-keyed
   [Hashtbl.find] per event; the export still lists them by name, in this
   registration order. *)
type hot = {
  faults_forwarded : int ref;
  traps_forwarded : int ref;
  dispatches : int ref;
  preemptions : int ref;
  dispatch_us : Metrics.hist;
  fault_handle_us : Metrics.hist;
  trap_forward_us : Metrics.hist;
}

let make_hot metrics =
  {
    faults_forwarded = Metrics.counter_ref metrics "fault.forwarded";
    traps_forwarded = Metrics.counter_ref metrics "trap.forwarded";
    dispatches = Metrics.counter_ref metrics "sched.dispatches";
    preemptions = Metrics.counter_ref metrics "sched.preemptions";
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
  (* writeback-storm detector: displacements per tumbling window; while a
     window exceeds [Config.storm_threshold], new loads from non-first
     kernels get [Overloaded] backpressure *)
  mutable storm_window_start : Hw.Cost.cycles;
  mutable storm_displacements : int;
  mutable storm_active_flag : bool;
  mutable last_audit : Hw.Cost.cycles; (* periodic-audit bookkeeping *)
  mutable audit_hooks : (repair:bool -> (string * string * string * bool) list) list;
      (* extra invariant checks registered by upper layers (the SRM ledger,
         the tiered backing store of each application kernel): each returns
         (check, subject, detail, repaired) tuples.  Closures rather than a
         typed interface because lib/core cannot depend on lib/srm or
         lib/aklib; a list because independent layers each contribute one *)
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
      sched = Scheduler.create ~priorities:config.Config.priorities;
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
      storm_window_start = 0;
      storm_displacements = 0;
      storm_active_flag = false;
      last_audit = 0;
      audit_hooks = [];
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

(** Register an extra audit hook; {!Audit.run} consults hooks in
    registration order after the built-in checks. *)
let add_audit_hook t f = t.audit_hooks <- t.audit_hooks @ [ f ]

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

(** The kernel that owns [thread]'s traps and faults. *)
let owner_of_thread t (th : Thread_obj.t) = find_kernel t th.Thread_obj.owner

(** Resolve a Ready thread for the scheduler; drops stale/unready entries. *)
let resolve_ready t oid = t.sched_resolve oid

(** Thread currently running on [cpu_id]. *)
let running_thread t ~cpu_id =
  let oid = t.running.(cpu_id) in
  if Oid.is_none oid then None else find_thread t oid

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

(* -- Writeback-storm detection (overload backpressure) --

   Tumbling window over replacement displacements: when one window's count
   exceeds [storm_threshold], the storm flag raises until a later window
   stays under it.  Rolling is lazy — both the recorder and the reader roll
   first — so the flag cannot stay stale across long idle stretches. *)

let roll_storm t ~now_c =
  let window = Hw.Cost.cycles_of_us t.config.Config.storm_window_us in
  if now_c - t.storm_window_start >= window then begin
    (* close out every whole window since the last roll; any window other
       than the immediately-preceding one saw zero displacements *)
    let immediately_after = now_c - t.storm_window_start < 2 * window in
    let was = t.storm_active_flag in
    t.storm_active_flag <-
      immediately_after && t.storm_displacements > t.config.Config.storm_threshold;
    if t.storm_active_flag && not was then begin
      count t "storm.begin";
      trace t (Trace.Storm { active = true; displacements = t.storm_displacements })
    end
    else if was && not t.storm_active_flag then begin
      count t "storm.end";
      trace t (Trace.Storm { active = false; displacements = t.storm_displacements })
    end;
    t.storm_window_start <- now_c - ((now_c - t.storm_window_start) mod window);
    t.storm_displacements <- 0
  end

(** Record one replacement displacement (called from {!Replacement}). *)
let note_displacement t =
  count t "replacement.displacement";
  if t.config.Config.storm_threshold > 0 then begin
    let now_c = now t in
    roll_storm t ~now_c;
    t.storm_displacements <- t.storm_displacements + 1;
    if
      (not t.storm_active_flag)
      && t.storm_displacements > t.config.Config.storm_threshold
    then begin
      (* raise mid-window: waiting for the roll would let a burst displace
         a full window's worth before backpressure engages *)
      t.storm_active_flag <- true;
      count t "storm.begin";
      trace t (Trace.Storm { active = true; displacements = t.storm_displacements })
    end
  end

(** Is the node in a writeback storm right now?  [Api] load paths consult
    this to return [Overloaded] backpressure. *)
let storm_active t =
  t.config.Config.storm_threshold > 0
  && begin
       roll_storm t ~now_c:(now t);
       t.storm_active_flag
     end
