(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5) plus the behavioural claims DESIGN.md indexes.

   All "simulated us" figures are microseconds of simulated time at 25 MHz
   (the prototype's clock); the paper's numbers are printed alongside.  The
   goal is shape — orderings, ratios, knees — not absolute equality with
   the 68040 hardware.  A final Bechamel section measures host-side wall
   time of the same operations (one Test.make per table/figure). *)

open Cachekernel

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-');
  flush stdout

(* -- T1: Table 1, object sizes and cache capacities -- *)

let table1 () =
  section "T1. Table 1: Cache Kernel object sizes (bytes) and cache capacities";
  let c = Config.default in
  Printf.printf "  %-14s %12s %12s\n" "Object" "Size" "Cache size";
  Printf.printf "  %-14s %12d %12d\n" "Kernel" c.Config.kernel_desc_bytes c.Config.kernel_cache;
  Printf.printf "  %-14s %12d %12d\n" "AddrSpace" c.Config.space_desc_bytes c.Config.space_cache;
  Printf.printf "  %-14s %12d %12d\n" "Thread" c.Config.thread_desc_bytes c.Config.thread_cache;
  Printf.printf "  %-14s %12d %12d\n" "MemMapEntry" c.Config.mapping_desc_bytes
    c.Config.mapping_cache;
  Printf.printf "  (configuration constants: identical to the paper's Table 1)\n"

(* -- T2: Table 2, basic operation times -- *)

let table2 () =
  section "T2. Table 2: basic operations, elapsed simulated microseconds";
  let paper =
    [
      ("Mappings", (45., 145., 160.));
      ("(optimized)", (67., 167., Float.nan));
      ("Threads", (113., 489., 206.));
      ("AddrSpaces", (101., 229., 152.));
      ("Kernel", (244., 291., 80.));
    ]
  in
  Printf.printf "  %-14s %14s %14s %14s\n" "Object" "load" "load+wb" "unload";
  List.iter
    (fun (name, (t : Workload.Micro.op_times)) ->
      let pl, pw, pu = List.assoc name paper in
      Printf.printf "  %-14s %6.1f (%5.0f) %6.1f (%5.0f) %6.1f (%5.0f)\n" name
        t.Workload.Micro.load pl t.Workload.Micro.load_wb pw t.Workload.Micro.unload pu)
    (Workload.Micro.table2 ());
  Printf.printf "  (parenthesised: the paper's 68040 measurements)\n"

(* -- M1/M2/M3: section 5.3 -- *)

let micro_benchmarks () =
  section "M1. Null system call: getpid through trap forwarding (sec 5.3)";
  let ck = Workload.Micro.ck_getpid_us () in
  let mono = Workload.Micro.monolithic_getpid_us () in
  Printf.printf "  Cache Kernel + UNIX emulator : %6.1f us   (paper: 37)\n" ck;
  Printf.printf "  monolithic baseline          : %6.1f us   (paper: Mach 2.5, 25)\n" mono;
  Printf.printf "  forwarding overhead          : %6.1f us   (paper: 12)\n" (ck -. mono);
  section "M2. Cross-processor signal delivery (sec 5.3)";
  let s = Workload.Micro.signal_us () in
  Printf.printf
    "  one-way signal               : %6.1f us   (paper: 44 deliver + 27 return)\n"
    s.Workload.Micro.one_way_us;
  Printf.printf "  ping-pong round trip         : %6.1f us   (paper: ~142 for 2x71)\n"
    s.Workload.Micro.round_trip_us;
  section "M3. Page-fault handling, soft fault (sec 5.3 / Figure 2)";
  let f = Workload.Micro.fault_us () in
  Printf.printf "  transfer to application kernel : %6.1f us   (paper: 32)\n"
    f.Workload.Micro.transfer_us;
  Printf.printf "  handler + optimized load+resume: %6.1f us   (paper: 67)\n"
    f.Workload.Micro.load_resume_us;
  Printf.printf "  total                          : %6.1f us   (paper: 99)\n"
    f.Workload.Micro.total_us

(* -- C1/C2: caching behaviour sweeps (sec 5.2) -- *)

let cache_sweeps () =
  section "C1. Thread-cache behaviour: cost vs active threads (capacity 64)";
  Printf.printf "  %8s %16s %12s %10s\n" "threads" "us/thread-round" "writebacks" "reloads";
  List.iter
    (fun (p : Workload.Sweeps.thread_point) ->
      Printf.printf "  %8d %16.1f %12d %10d\n" p.Workload.Sweeps.n_threads
        p.Workload.Sweeps.us_per_thread_round p.Workload.Sweeps.thread_writebacks
        p.Workload.Sweeps.reloads)
    (Workload.Sweeps.thread_sweep ~capacity:64 [ 16; 32; 48; 64; 96; 128; 192; 256 ]);
  Printf.printf "  (knee at capacity: writeback/reload churn begins past 64)\n";
  section "C2. Mapping-cache behaviour: working set vs capacity (256 mappings)";
  Printf.printf "  %8s %14s %10s %14s\n" "pages" "mapping loads" "faults" "us/access";
  List.iter
    (fun (p : Workload.Sweeps.page_point) ->
      Printf.printf "  %8d %14d %10d %14.2f\n" p.Workload.Sweeps.pages
        p.Workload.Sweeps.mapping_loads p.Workload.Sweeps.faults
        p.Workload.Sweeps.us_per_access)
    (Workload.Sweeps.page_sweep ~mapping_capacity:256 [ 64; 128; 192; 256; 320; 512; 1024 ]);
  Printf.printf "  (past capacity every pass refaults: the thrash of sec 5.2)\n"

(* -- C3: MP3D page locality -- *)

let mp3d () =
  section "C3. MP3D page locality: scattered vs clustered particles (sec 5.2)";
  let c = Workload.Locality.mp3d_compare () in
  let pr (r : Sim_kernel.Mp3d.report) =
    Printf.printf "  %-10s %12.1f us/step   tlb-miss %6.4f   cache-miss %6.4f\n"
      (Fmt.str "%a" Sim_kernel.Mp3d.pp_placement r.Sim_kernel.Mp3d.placement)
      r.Sim_kernel.Mp3d.us_per_step r.Sim_kernel.Mp3d.tlb_miss_rate
      r.Sim_kernel.Mp3d.cache_miss_rate
  in
  pr c.Workload.Locality.scattered;
  pr c.Workload.Locality.clustered;
  Printf.printf "  degradation from scattering: %.1f%%   (paper: up to 25%%)\n"
    c.Workload.Locality.degradation_percent;
  section "C3b. Application-controlled paging (sec 3): app policy vs FIFO";
  let p = Workload.Locality.app_paging_compare () in
  Printf.printf "  FIFO replacement     : %6d page-ins, %10.0f us\n"
    p.Workload.Locality.fifo_page_ins p.Workload.Locality.fifo_us;
  Printf.printf "  application page-out : %6d page-ins, %10.0f us\n"
    p.Workload.Locality.app_policy_page_ins p.Workload.Locality.app_policy_us

(* -- C4: space overhead -- *)

let space_overhead () =
  section "C4. Space overhead of mapping state (sec 5.2)";
  let inst = Workload.Setup.instance () in
  let ak = Workload.Setup.first_kernel inst in
  let caller = Aklib.App_kernel.oid ak in
  let space = Workload.Setup.ok (Api.load_space inst ~caller ~tag:7 ()) in
  (* map 8 MB with reasonable clustering *)
  for i = 0 to 2047 do
    Workload.Setup.ok
      (Api.load_mapping inst ~caller ~space
         (Api.mapping ~va:(0x40000000 + (i * Hw.Addr.page_size)) ~pfn:(1024 + i) ()))
  done;
  let r = Space_accounting.measure inst in
  Format.printf "  @[<v 2>  %a@]@." Space_accounting.pp r;
  Printf.printf "  (paper: descriptors as little as 0.4%% of mapped space;\n";
  Printf.printf "   page tables roughly half the descriptor space under clustering)\n"

(* -- R1/R2: resource allocation enforcement -- *)

let resource_enforcement () =
  section "R1. Processor-percentage enforcement (sec 4.3)";
  List.iter
    (fun pct ->
      let q = Workload.Contention.quota_enforcement ~rogue_percent:pct () in
      Printf.printf
        "  rogue allocated %3d%%: achieved %5.1f%%, victim %5.1f%%, demoted: %b\n" pct
        (100. *. q.Workload.Contention.rogue_share)
        (100. *. q.Workload.Contention.victim_share)
        q.Workload.Contention.demotions)
    [ 10; 30; 50 ];
  section "R2. Time-sliced fairness within one priority (sec 4.3)";
  List.iter
    (fun n ->
      let f = Workload.Contention.timeslice_fairness ~n () in
      Printf.printf "  %2d threads: shares [%s], max/ideal %.2f, preemptions %d\n" n
        (String.concat "; "
           (List.map (Printf.sprintf "%.2f") f.Workload.Contention.shares))
        f.Workload.Contention.max_imbalance f.Workload.Contention.preemptions)
    [ 2; 4; 8 ]

(* -- X1: descriptor exhaustion -- *)

let exhaustion () =
  section "X1. Descriptor exhaustion: caching vs static tables (sec 7)";
  let ck = Workload.Contention.ck_thread_overload ~capacity:32 () in
  let mono = Workload.Contention.monolithic_overload ~nproc:32 () in
  Printf.printf
    "  Cache Kernel: %d/%d thread loads succeeded, %d hard errors, %d writebacks\n"
    ck.Workload.Contention.loaded_ok ck.Workload.Contention.requested
    ck.Workload.Contention.hard_errors ck.Workload.Contention.writebacks;
  Printf.printf "  monolithic  : %d/%d forks succeeded, %d EAGAIN (NPROC=32)\n"
    mono.Workload.Contention.loaded_ok mono.Workload.Contention.requested
    mono.Workload.Contention.hard_errors

(* -- X2: IPC cost vs message size -- *)

let ipc_sweep () =
  section "X2. IPC cost vs message size (sec 2.2 / 6)";
  let sizes = [ 1; 16; 64; 256; 1000 ] in
  let mbm = Workload.Ipc.mbm_sweep sizes in
  let mk = Workload.Ipc.microkernel_sweep sizes in
  let pipe = Workload.Ipc.pipe_sweep sizes in
  Printf.printf "  %8s %18s %18s %18s\n" "words" "memory-based" "copy microkernel"
    "monolithic pipe";
  List.iter2
    (fun ((a : Workload.Ipc.point), (b : Workload.Ipc.point)) (c : Workload.Ipc.point) ->
      Printf.printf "  %8d %15.1f us %15.1f us %15.1f us\n" a.Workload.Ipc.words
        a.Workload.Ipc.us_per_message b.Workload.Ipc.us_per_message
        c.Workload.Ipc.us_per_message)
    (List.combine mbm mk) pipe;
  Printf.printf "  (memory-based messaging keeps the kernel off the data path)\n"

(* -- X3: multi-MPM co-scheduling and fault containment -- *)

let multinode () =
  section "X3. Multi-MPM: SRM co-scheduling and fault containment (sec 3)";
  let net = Hw.Interconnect.create () in
  let make_node id =
    let inst = Workload.Setup.instance ~node_id:id ~cpus:2 () in
    let srm = Workload.Setup.ok (Srm.Manager.boot inst ()) in
    let d = Srm.Distrib.start srm ~net in
    (* one gang member thread per node: a spinner at low priority *)
    let body () =
      let rec loop () =
        Hw.Exec.compute 3000;
        ignore (Hw.Exec.trap Api.Ck_yield);
        loop ()
      in
      loop ()
    in
    let tid =
      Workload.Setup.ok
        (Aklib.App_kernel.spawn_internal srm.Srm.Manager.ak ~priority:4
           (Hw.Exec.unit_body body))
    in
    let oid =
      Option.get (Aklib.Thread_lib.oid_of srm.Srm.Manager.ak.Aklib.App_kernel.threads tid)
    in
    Srm.Distrib.register_gang d ~gang:1 [ oid ];
    (inst, srm, d)
  in
  let nodes = List.map make_node [ 0; 1; 2 ] in
  List.iter
    (fun (_, _, d) ->
      List.iter (fun (i2, _, _) -> Srm.Distrib.add_peer d (Instance.node_id i2)) nodes)
    nodes;
  let insts = Array.of_list (List.map (fun (i, _, _) -> i) nodes) in
  (* run briefly, co-schedule the gang from node 0, run again *)
  ignore (Engine.run ~until_us:5_000.0 insts);
  let _, _, d0 = List.nth nodes 0 in
  Srm.Distrib.coschedule d0 ~gang:1 ~priority:20;
  ignore (Engine.run ~until_us:10_000.0 insts);
  List.iter
    (fun (inst, _, d) ->
      let applied = Srm.Distrib.cosched_applied d in
      Printf.printf "  node %d: gang raised at %s (simulated us)\n"
        (Instance.node_id inst)
        (String.concat ", " (List.map (fun (_, t) -> Printf.sprintf "%.1f" t) applied)))
    nodes;
  (* fault containment: halt node 2; nodes 0 and 1 keep making progress *)
  let i2, _, _ = List.nth nodes 2 in
  i2.Instance.halted <- true;
  Hw.Interconnect.fail_node net 2;
  let before = Hw.Mpm.now (List.nth nodes 0 |> fun (i, _, _) -> i.Instance.node) in
  ignore (Engine.run ~until_us:20_000.0 insts);
  let after = Hw.Mpm.now (List.nth nodes 0 |> fun (i, _, _) -> i.Instance.node) in
  Printf.printf
    "  node 2 halted; node 0 advanced %.1f us afterwards (fault contained: %b)\n"
    (Hw.Cost.us_of_cycles (after - before))
    (after > before)

(* -- Chaos: throughput degradation under deterministic fault injection -- *)

let chaos_sites =
  [ "bstore.fail"; "bstore.delay"; "signal.drop"; "signal.dup"; "stale.load";
    "fault.forward"; "node.crash" ]

(* One mixed run (demand paging + process churn) under a per-site injection
   rate; returns (simulated us, injections, recoveries). *)
let chaos_run ~rate =
  let chaos =
    if rate <= 0.0 then None
    else
      Some
        {
          Config.chaos_default with
          Config.io_fail = rate;
          io_delay = rate /. 2.;
          signal_drop = rate;
          stale_rate = rate;
          forward_drop = rate;
        }
  in
  let config = { Config.default with Config.chaos } in
  let inst = Workload.Setup.instance ~config ~cpus:2 () in
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = Workload.Setup.ok (Unix_emu.Emulator.boot inst ~groups) in
  let child =
    Unix_emu.Syscall.program "job" (fun () ->
        let pid = Unix_emu.Syscall.getpid () in
        for i = 0 to 15 do
          Hw.Exec.mem_write (Unix_emu.Process.data_base + (i * Hw.Addr.page_size)) (pid + i)
        done;
        Hw.Exec.compute 50_000;
        0)
  in
  let init =
    Unix_emu.Syscall.program "init" (fun () ->
        let pids = List.init 6 (fun _ -> Unix_emu.Syscall.spawn child) in
        List.iter (fun _ -> ignore (Unix_emu.Syscall.wait ())) pids;
        0)
  in
  ignore (Workload.Setup.ok (Unix_emu.Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  let m = inst.Instance.metrics in
  let sum prefix =
    List.fold_left (fun acc s -> acc + Metrics.counter m (prefix ^ s)) 0 chaos_sites
  in
  (Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node), sum "inject.", sum "recover.")

let chaos_sweep () =
  section "CH. Chaos: throughput degradation vs injection rate (fault plane)";
  Printf.printf "  %8s %14s %12s %10s %10s\n" "rate" "simulated us" "slowdown" "injects"
    "recovers";
  let base = ref 0.0 in
  List.iter
    (fun rate ->
      let us, inj, rec_ = chaos_run ~rate in
      if rate = 0.0 then base := us;
      Printf.printf "  %8.2f %14.1f %11.2fx %10d %10d\n" rate us
        (if !base > 0.0 then us /. !base else 1.0)
        inj rec_)
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
  Printf.printf
    "  (every injection is paired with a recovery; degradation is graceful —\n";
  Printf.printf "   retries and redeliveries stretch time, nothing wedges)\n"

(* -- Ablations of the design choices DESIGN.md calls out -- *)

let ablations () =
  section "A1. Reverse-TLB fast path for signal delivery (sec 4.1)";
  let with_rtlb = Workload.Micro.signal_us () in
  let without =
    Workload.Micro.signal_us
      ~config:{ Config.default with Config.rtlb_enabled = false }
      ()
  in
  Printf.printf "  with reverse TLB    : %6.1f us one-way\n"
    with_rtlb.Workload.Micro.one_way_us;
  Printf.printf "  two-stage lookup    : %6.1f us one-way (+%.1f)\n"
    without.Workload.Micro.one_way_us
    (without.Workload.Micro.one_way_us -. with_rtlb.Workload.Micro.one_way_us);
  section "A2. Premium charging: high-priority execution burns quota faster (sec 4.3)";
  let demotion_ms priority =
    (* a 30%-allocated kernel consuming the whole CPU at [priority]: how
       long until the accounting demotes it? *)
    let inst = Workload.Setup.instance ~cpus:1 () in
    let k =
      Kernel_obj.create ~n_cpus:1 ~n_groups:4
        {
          Kernel_obj.name = "probe";
          handlers = Kernel_obj.null_handlers;
          cpu_percent = [| 30 |];
          max_priority = 31;
          max_locked = 4;
        }
    in
    ignore inst;
    let step = Hw.Cost.cycles_of_us 1000.0 in
    let grace = Hw.Cost.cycles_of_us 20_000.0 in
    let rec loop elapsed =
      if elapsed > 1000 * step then Float.infinity
      else if
        Quota.charge k ~cpu:0 ~priority ~cycles:step ~elapsed:(elapsed + step) ~grace
      then Hw.Cost.us_of_cycles (elapsed + step) /. 1000.0
      else loop (elapsed + step)
    in
    loop 0
  in
  List.iter
    (fun prio ->
      Printf.printf
        "  priority %2d (premium %3d%%): demoted after %5.1f ms of monopolising\n" prio
        (Quota.premium_percent ~priority:prio)
        (demotion_ms prio))
    [ 2; 8; 16; 24 ];
  Printf.printf "  (the graduated rate shortens a high-priority rogue's leash)\n";
  section "A3. Optimized load-and-resume vs separate return (sec 2.1)";
  let f = Workload.Micro.fault_us () in
  let combined = Hw.Cost.us_of_cycles Config.c_combined_resume in
  let separate = Hw.Cost.us_of_cycles (Hw.Cost.trap_entry + Hw.Cost.exception_return) in
  Printf.printf "  combined return path : %5.1f us per fault\n" combined;
  Printf.printf "  separate completion  : %5.1f us per fault (+%.1f on every fault)\n"
    separate (separate -. combined);
  Printf.printf "  measured fault total with the combined call: %.1f us\n"
    f.Workload.Micro.total_us

(* -- O1: observability export, the diffable perf trajectory -- *)

(* One representative mixed workload (demand paging + thread churn +
   signals), exported as BENCH_metrics.json: fault-latency percentiles,
   dispatch latency, per-kind cache counters and writeback latencies.
   Committing nothing, diffing everything: each PR's bench run can be
   compared number-for-number against the previous one. *)
let metrics_export () =
  section "O1. Observability export (BENCH_metrics.json)";
  let inst = Workload.Setup.instance ~cpus:2 () in
  Trace.enable inst.Instance.trace;
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = Workload.Setup.ok (Unix_emu.Emulator.boot inst ~groups) in
  let child =
    Unix_emu.Syscall.program "job" (fun () ->
        let pid = Unix_emu.Syscall.getpid () in
        for i = 0 to 15 do
          Hw.Exec.mem_write (Unix_emu.Process.data_base + (i * Hw.Addr.page_size)) (pid + i)
        done;
        Hw.Exec.compute 50_000;
        0)
  in
  let init =
    Unix_emu.Syscall.program "init" (fun () ->
        let pids = List.init 8 (fun _ -> Unix_emu.Syscall.spawn child) in
        List.iter (fun _ -> ignore (Unix_emu.Syscall.wait ())) pids;
        0)
  in
  ignore (Workload.Setup.ok (Unix_emu.Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  let m = inst.Instance.metrics in
  Json.to_file "BENCH_metrics.json" (Instance.metrics_json inst);
  Printf.printf "  wrote BENCH_metrics.json (%d processes, %d syscalls)\n"
    emu.Unix_emu.Emulator.spawned emu.Unix_emu.Emulator.syscalls;
  Printf.printf "  fault.handle_us  p50 %6.1f  p90 %6.1f  p99 %6.1f  (n=%d)\n"
    (Metrics.percentile m "fault.handle_us" 0.5)
    (Metrics.percentile m "fault.handle_us" 0.9)
    (Metrics.percentile m "fault.handle_us" 0.99)
    (Metrics.observations m "fault.handle_us");
  Printf.printf "  sched.dispatch_us p50 %6.1f  p90 %6.1f  p99 %6.1f  (n=%d)\n"
    (Metrics.percentile m "sched.dispatch_us" 0.5)
    (Metrics.percentile m "sched.dispatch_us" 0.9)
    (Metrics.percentile m "sched.dispatch_us" 0.99)
    (Metrics.observations m "sched.dispatch_us");
  Printf.printf "  trace: %d entries held (capacity %d), %d dropped\n"
    (Trace.length inst.Instance.trace)
    (Trace.capacity inst.Instance.trace)
    (Trace.dropped inst.Instance.trace)

(* -- OV: overload backpressure — offered load past mapping-cache capacity -- *)

(* Drive [offered] mapping loads from a second (non-exempt) kernel against
   a mapping cache of 64 descriptors, cycling through 256 distinct pages so
   every load past capacity displaces a victim.  With backpressure off the
   displacement rate tracks the offered rate (kernels thrash each other's
   working sets out); on, the storm detector caps it near the threshold and
   the backoff layer absorbs the excess as waiting. *)
let overload_run ~offered ~backpressure =
  let config =
    {
      Config.default with
      Config.mapping_cache = 64;
      (* the uncapped workload displaces ~5 mappings/ms; a threshold of 2
         per 2 ms window forces the detector to engage and shed the rest *)
      storm_threshold = (if backpressure then 2 else 0);
      storm_window_us = 2000.0;
    }
  in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let first = Aklib.App_kernel.oid ak in
  (* the first kernel is exempt from backpressure (it hosts the SRM), so
     the offered load comes from a second kernel *)
  let spec =
    {
      Kernel_obj.name = "offered-load";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = Array.make 1 100;
      max_priority = 16;
      max_locked = 4;
    }
  in
  let caller = Workload.Setup.ok (Api.load_kernel inst ~caller:first spec) in
  List.iter
    (fun g ->
      ignore
        (Api.set_mem_access inst ~caller:first ~kernel:caller ~group:g
           Kernel_obj.Read_write))
    (List.init (Instance.n_groups inst) Fun.id);
  let space = Workload.Setup.ok (Api.load_space inst ~caller ~tag:1 ()) in
  let rejected = ref 0 in
  for i = 0 to offered - 1 do
    let slot = i mod 256 in
    let va = 0x40000000 + (slot * Hw.Addr.page_size) in
    match
      Aklib.Backoff.with_backoff inst (fun () ->
          Api.load_mapping inst ~caller ~space (Api.mapping ~va ~pfn:(512 + slot) ()))
    with
    | Ok () | Error Api.Already_mapped -> ()
    | Error Api.Overloaded -> incr rejected (* retries exhausted: load shed *)
    | Error _ -> ()
  done;
  let m = inst.Instance.metrics in
  let ms = Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node) /. 1000. in
  let audit = Audit.run inst in
  ( ms,
    Metrics.counter m "replacement.displacement",
    Metrics.counter m "overload.rejected",
    Metrics.counter m "overload.backoff",
    !rejected,
    List.length audit.Audit.violations )

let overload_sweep () =
  section "OV. Overload backpressure: displacement rate, capped vs thrashing";
  Printf.printf "  %8s %5s %10s %12s %10s %9s %7s %7s\n" "offered" "bp" "sim ms"
    "displaced" "rate/ms" "rejected" "shed" "audit";
  let rows = ref [] in
  List.iter
    (fun offered ->
      List.iter
        (fun backpressure ->
          let ms, displaced, rej, backoff, shed, viols =
            overload_run ~offered ~backpressure
          in
          ignore backoff;
          Printf.printf "  %8d %5s %10.1f %12d %10.1f %9d %7d %7d\n" offered
            (if backpressure then "on" else "off")
            ms displaced
            (float_of_int displaced /. ms)
            rej shed viols;
          rows :=
            Json.Obj
              [
                ("offered", Json.Int offered);
                ("backpressure", Json.Bool backpressure);
                ("simulated_ms", Json.Float ms);
                ("displacements", Json.Int displaced);
                ("displacement_rate_per_ms", Json.Float (float_of_int displaced /. ms));
                ("overload_rejected", Json.Int rej);
                ("loads_shed", Json.Int shed);
                ("audit_violations", Json.Int viols);
              ]
            :: !rows)
        [ false; true ])
    [ 128; 256; 512 ];
  Printf.printf
    "  (backpressure trades displacement rate for waiting: the storm detector\n";
  Printf.printf "   caps thrashing near the threshold; the audit stays clean)\n";
  (* fold the sweep into BENCH_metrics.json next to the O1 export *)
  let sweep = Json.List (List.rev !rows) in
  match
    let ic = open_in "BENCH_metrics.json" in
    let s = In_channel.input_all ic in
    close_in ic;
    Json.of_string s
  with
  | Json.Obj fields ->
    Json.to_file "BENCH_metrics.json" (Json.Obj (fields @ [ ("overload_sweep", sweep) ]))
  | _ | (exception _) -> ()

(* -- MG: live migration — pause time and bytes shipped vs working set -- *)

(* Two nodes; node 0 hosts a space with [ws] dirty pages and a spinner
   thread.  Migrate the space (thread included) to node 1 over the fiber
   and measure the source-observed pause (capture -> ack) and the bytes
   the image shipped.  Both nodes must audit clean afterwards. *)
let migrate_run ?(insts_out = ref [||]) ~ws () =
  let net = Hw.Interconnect.create () in
  let make_node id =
    let inst = Workload.Setup.instance ~node_id:id ~cpus:2 () in
    let srm = Workload.Setup.ok (Srm.Manager.boot inst ()) in
    let d = Srm.Distrib.start srm ~net in
    (inst, srm, d)
  in
  let nodes = List.map make_node [ 0; 1 ] in
  List.iter
    (fun (_, _, d) ->
      List.iter (fun (i2, _, _) -> Srm.Distrib.add_peer d (Instance.node_id i2)) nodes)
    nodes;
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, _, _ = List.nth nodes 1 in
  let ak0 = srm0.Srm.Manager.ak in
  let mgr = ak0.Aklib.App_kernel.mgr in
  let vsp = Workload.Setup.ok (Aklib.Segment_mgr.create_space mgr) in
  let seg = Aklib.Segment_mgr.create_segment mgr ~name:"ws" ~pages:ws in
  (* dirty the whole working set so the image carries it *)
  Aklib.Segment_mgr.write_segment_now mgr seg ~offset:0
    (Bytes.init (ws * Hw.Addr.page_size) (fun i -> Char.chr (1 + (i mod 251))));
  Aklib.Segment_mgr.attach_region mgr vsp
    (Aklib.Region.v ~va_start:0x40000000 ~pages:ws ~segment:seg ~seg_offset:0 ());
  let body () =
    let rec loop () =
      Hw.Exec.compute 2000;
      ignore (Hw.Exec.trap Api.Ck_yield);
      loop ()
    in
    loop ()
  in
  ignore
    (Workload.Setup.ok
       (Aklib.Thread_lib.spawn ak0.Aklib.App_kernel.threads
          ~space_tag:vsp.Aklib.Segment_mgr.tag ~priority:8 (Hw.Exec.unit_body body)));
  let insts = [| i0; i1 |] in
  insts_out := insts;
  ignore (Engine.run ~until_us:2_000.0 insts);
  (match Srm.Distrib.plane d0 |> fun p -> Migrate.Plane.move_space p ~dst:1 vsp.Aklib.Segment_mgr.tag with
  | Ok _ -> ()
  | Error e -> failwith (Fmt.str "move_space: %a" Api.pp_error e));
  (* leave room for the image's wire time: ws=256 is ~1 MB, ~32 ms on the
     266 Mb fiber *)
  ignore (Engine.run ~until_us:60_000.0 insts);
  let m0 = i0.Instance.metrics in
  let m1 = i1.Instance.metrics in
  let a0 = Audit.run i0 in
  let a1 = Audit.run i1 in
  ( Metrics.counter m0 "migrate.bytes_out",
    Metrics.counter m0 "migrate.chunks_out",
    Metrics.percentile m0 "migrate.pause_us" 0.5,
    Metrics.counter m0 "migrate.completed",
    Metrics.counter m1 "migrate.adopted",
    List.length a0.Audit.violations + List.length a1.Audit.violations )

let migration_sweep () =
  section "MG. Live migration: pause time and bytes vs working-set size";
  Printf.printf "  %8s %10s %8s %12s %10s %8s %7s\n" "ws pages" "bytes" "chunks"
    "pause us" "completed" "adopted" "audit";
  let rows = ref [] in
  List.iter
    (fun ws ->
      let bytes, chunks, pause, completed, adopted, viols = migrate_run ~ws () in
      Printf.printf "  %8d %10d %8d %12.1f %10d %8d %7d\n" ws bytes chunks pause completed
        adopted viols;
      rows :=
        Json.Obj
          [
            ("ws_pages", Json.Int ws);
            ("bytes_out", Json.Int bytes);
            ("chunks_out", Json.Int chunks);
            ("pause_us", Json.Float pause);
            ("completed", Json.Int completed);
            ("adopted", Json.Int adopted);
            ("audit_violations", Json.Int viols);
          ]
        :: !rows)
    [ 4; 16; 64; 256 ];
  Printf.printf "  (pause grows with the shipped working set; both nodes audit clean)\n";
  (* fold the sweep into BENCH_metrics.json next to the O1/OV exports *)
  let sweep = Json.List (List.rev !rows) in
  match
    let ic = open_in "BENCH_metrics.json" in
    let s = In_channel.input_all ic in
    close_in ic;
    Json.of_string s
  with
  | Json.Obj fields ->
    Json.to_file "BENCH_metrics.json" (Json.Obj (fields @ [ ("migration_sweep", sweep) ]))
  | _ | (exception _) -> ()

(* -- Bechamel: host wall-clock of the same operations -- *)

let bechamel_suite () =
  section "Host wall-clock micro-benchmarks (Bechamel, ns per run)";
  let open Bechamel in
  let t1 =
    Test.make ~name:"table1/space_accounting"
      (Staged.stage (fun () ->
           let inst = Workload.Setup.instance () in
           ignore (Space_accounting.measure inst)))
  in
  let t2 =
    let inst = Workload.Setup.instance ~config:Workload.Micro.small_config () in
    let ak = Workload.Setup.first_kernel inst in
    let caller = Aklib.App_kernel.oid ak in
    let space = Workload.Setup.ok (Api.load_space inst ~caller ~tag:1 ()) in
    let i = ref 0 in
    Test.make ~name:"table2/mapping_load_unload"
      (Staged.stage (fun () ->
           incr i;
           let va = 0x40000000 + (!i mod 1024 * Hw.Addr.page_size) in
           ignore (Api.load_mapping inst ~caller ~space (Api.mapping ~va ~pfn:512 ()));
           ignore (Api.unload_mapping inst ~caller ~space ~va)))
  in
  let m1 =
    Test.make ~name:"m1/getpid_run"
      (Staged.stage (fun () -> ignore (Workload.Micro.monolithic_getpid_us ~calls:10 ())))
  in
  let m3 =
    Test.make ~name:"m3/fault_run"
      (Staged.stage (fun () -> ignore (Workload.Micro.fault_us ~faults:5 ())))
  in
  let c1 =
    Test.make ~name:"c1/thread_churn"
      (Staged.stage (fun () ->
           ignore (Workload.Sweeps.thread_point ~capacity:16 ~rounds:2 24)))
  in
  let c2 =
    Test.make ~name:"c2/page_sweep"
      (Staged.stage (fun () ->
           ignore (Workload.Sweeps.page_point ~mapping_capacity:64 ~passes:2 96)))
  in
  let x2 =
    Test.make ~name:"x2/mbm_messages"
      (Staged.stage (fun () -> ignore (Workload.Ipc.mbm_sweep ~messages:5 [ 16 ])))
  in
  let tests = Test.make_grouped ~name:"ck" [ t1; t2; m1; m3; c1; c2; x2 ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      let est =
        match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> Float.nan
      in
      Printf.printf "  %-40s %14.0f ns/run\n" name est)
    (List.sort compare rows)

(* -- WC: wall-clock throughput harness (bench --wallclock) --

   Where the rest of this file reports *simulated* microseconds, this
   section measures how fast the simulator itself chews through them:
   engine events per wall-clock second, forwarded faults per second, and
   simulated microseconds retired per wall millisecond, across the same
   C1/C2/MG sweeps the evaluation uses.  The results land in
   BENCH_wallclock.json so CI can diff throughput PR-over-PR, and the run
   fails (nonzero exit) if the batched/prefetch mapping path is slower
   than issuing the same loads one at a time — the regression gate for
   the batching work. *)

let sum_counter insts name =
  Array.fold_left (fun acc i -> acc + Metrics.counter i.Instance.metrics name) 0 insts

(* Each scenario runs [reps] times and the fastest repetition is the
   reported one: the simulation is deterministic, so the repetitions
   differ only in scheduler/GC noise, and min-of-N is what makes a 1.05x
   regression gate usable on a shared machine. *)
(* [threshold] is the regression-gate bound in CPU us/event: when the
   min over [reps] repetitions still exceeds it, the scenario gets up to
   [2 * reps] more tries before the gate's verdict stands — the
   simulation is deterministic, so a genuine regression stays above the
   bound no matter how often it reruns, while co-tenant noise does not. *)
let wall_scenario ?(reps = 3) ?threshold name f =
  let best = ref infinity in
  let best_cpu = ref infinity in
  let kept = ref [||] in
  let attempt () =
    let c0 = Sys.time () in
    let t0 = Unix.gettimeofday () in
    let insts = f () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let cpu = (Sys.time () -. c0) *. 1000.0 in
    (* best rep by CPU time: wall time on a time-shared machine measures
       the machine's other tenants, CPU time measures this simulation *)
    if cpu < !best_cpu then begin
      best_cpu := cpu;
      best := ms;
      kept := insts
    end
  in
  for _ = 1 to reps do
    attempt ()
  done;
  (match threshold with
  | Some th ->
    let us_per_event () =
      let ev = sum_counter !kept "engine.steps" in
      if ev = 0 then 0.0 else !best_cpu *. 1000.0 /. float_of_int ev
    in
    let tries = ref (2 * reps) in
    while !tries > 0 && us_per_event () > th do
      attempt ();
      decr tries
    done
  | None -> ());
  let insts = !kept in
  let wall_ms = !best in
  let cpu_ms = !best_cpu in
  let sim_us =
    Array.fold_left
      (fun acc i -> acc +. Hw.Cost.us_of_cycles (Hw.Mpm.now i.Instance.node))
      0.0 insts
  in
  let events = sum_counter insts "engine.steps" in
  let faults =
    Array.fold_left (fun acc i -> acc + i.Instance.stats.Stats.faults_forwarded) 0 insts
  in
  let per_sec n = float_of_int n /. (wall_ms /. 1000.0) in
  Printf.printf "  %-24s %9.1f ms  %9.0f events/s  %8.0f faults/s  %9.0f sim-us/ms\n"
    name wall_ms (per_sec events) (per_sec faults) (sim_us /. wall_ms);
  Json.Obj
    [
      ("name", Json.String name);
      ("wall_ms", Json.Float wall_ms);
      ("cpu_ms", Json.Float cpu_ms);
      ("simulated_us", Json.Float sim_us);
      ("events", Json.Int events);
      ("faults_forwarded", Json.Int faults);
      ("events_per_sec", Json.Float (per_sec events));
      ("faults_per_sec", Json.Float (per_sec faults));
      ("sim_us_per_wall_ms", Json.Float (sim_us /. wall_ms));
    ]

(* The regression gate: the 1024-page sweep past a 256-mapping cache, with
   clustered prefetch (and therefore batched loads) off and on.  Prefetch
   must strictly reduce both forwarded faults and simulated us/access —
   otherwise the batched path costs more than N singles and the exit code
   says so. *)
let prefetch_gate () =
  let captured = ref None in
  let off = Workload.Sweeps.page_point ~mapping_capacity:256 1024 in
  let config = { Config.default with Config.fault_prefetch = 7 } in
  let on =
    Workload.Sweeps.page_point ~config
      ~prepare:(fun inst -> captured := Some inst)
      ~mapping_capacity:256 1024
  in
  let counter name =
    match !captured with
    | Some i -> Metrics.counter i.Instance.metrics name
    | None -> 0
  in
  let gain =
    100.0
    *. (off.Workload.Sweeps.us_per_access -. on.Workload.Sweeps.us_per_access)
    /. off.Workload.Sweeps.us_per_access
  in
  let regressed =
    on.Workload.Sweeps.us_per_access >= off.Workload.Sweeps.us_per_access
    || on.Workload.Sweeps.faults >= off.Workload.Sweeps.faults
  in
  Printf.printf "  prefetch off: faults %5d   us/access %7.2f\n"
    off.Workload.Sweeps.faults off.Workload.Sweeps.us_per_access;
  Printf.printf "  prefetch on : faults %5d   us/access %7.2f   (%.1f%% faster)\n"
    on.Workload.Sweeps.faults on.Workload.Sweeps.us_per_access gain;
  Printf.printf "  prefetch issued %d, used %d, wasted %d%s\n" (counter "prefetch.issued")
    (counter "prefetch.used") (counter "prefetch.wasted")
    (if regressed then "  ** REGRESSION: batched path is not faster **" else "");
  let json =
    Json.Obj
      [
        ( "off",
          Json.Obj
            [
              ("faults_forwarded", Json.Int off.Workload.Sweeps.faults);
              ("us_per_access", Json.Float off.Workload.Sweeps.us_per_access);
            ] );
        ( "on",
          Json.Obj
            [
              ("faults_forwarded", Json.Int on.Workload.Sweeps.faults);
              ("us_per_access", Json.Float on.Workload.Sweeps.us_per_access);
              ("prefetch_issued", Json.Int (counter "prefetch.issued"));
              ("prefetch_used", Json.Int (counter "prefetch.used"));
              ("prefetch_wasted", Json.Int (counter "prefetch.wasted"));
            ] );
        ("us_per_access_gain_percent", Json.Float gain);
        ("regressed", Json.Bool regressed);
      ]
  in
  (json, regressed)

(* Shard independent work items across OCaml domains with a shared
   work-stealing counter.  Items are claimed largest-first by the caller's
   ordering; each item is a self-contained simulation (its own instance,
   event queue and metrics), so running them concurrently changes nothing
   observable — only the wall clock. *)
let shard_iter ~domains f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let workers = min domains n in
  if workers <= 1 then Array.iter f arr
  else begin
    let next = Atomic.make 0 in
    let work () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          f arr.(i);
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (workers - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join others
  end

let collect_sharded ~domains point items =
  let lock = Mutex.create () in
  let insts = ref [] in
  let prepare i =
    Mutex.lock lock;
    insts := i :: !insts;
    Mutex.unlock lock
  in
  (* largest point first: it bounds the makespan when points shard *)
  shard_iter ~domains (point ~prepare) (List.sort (fun a b -> compare b a) items);
  Array.of_list !insts

(* Minor-heap allocation per event.  Two numbers: the raw event-queue
   hot loop (schedule + run_next with a preallocated closure), which the
   SoA queue keeps at zero and CI gates at <= 1.0 minor words/event; and
   the C2 fault path per engine step, reported but not gated — resuming
   an effects-based thread inherently allocates a continuation. *)
let alloc_probe () =
  let q = Hw.Event_queue.create () in
  let sink = ref 0 in
  let f () = incr sink in
  (* warm the heap arrays so growth doesn't count against the loop *)
  for i = 1 to 64 do
    Hw.Event_queue.schedule q ~time:i f
  done;
  for _ = 1 to 64 do
    ignore (Hw.Event_queue.run_next q)
  done;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Hw.Event_queue.schedule q ~time:i f;
    ignore (Hw.Event_queue.run_next q)
  done;
  let queue_words = (Gc.minor_words () -. w0) /. float_of_int n in
  let captured = ref None in
  let w1 = Gc.minor_words () in
  ignore
    (Workload.Sweeps.page_point ~mapping_capacity:256
       ~prepare:(fun i -> captured := Some i)
       512);
  let dw = Gc.minor_words () -. w1 in
  let steps =
    match !captured with
    | Some i -> max 1 (Metrics.counter i.Instance.metrics "engine.steps")
    | None -> 1
  in
  let step_words = dw /. float_of_int steps in
  let gate = 1.0 in
  let failed = queue_words > gate in
  Printf.printf "  event-queue loop: %6.3f minor words/event   (gate <= %.1f)%s\n"
    queue_words gate
    (if failed then "  ** ALLOC REGRESSION **" else "");
  Printf.printf
    "  c2 fault path   : %6.1f minor words/engine step (reported only: effect resume allocates)\n"
    step_words;
  ( Json.Obj
      [
        ("queue_minor_words_per_event", Json.Float queue_words);
        ("queue_gate", Json.Float gate);
        ("c2_minor_words_per_step", Json.Float step_words);
        ("failed", Json.Bool failed);
      ],
    failed )

(* -- us/event regression gate against the checked-in baseline -- *)

let jfield name = function Json.Obj f -> List.assoc_opt name f | _ -> None

let jfloat = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let jstr = function Some (Json.String s) -> Some s | _ -> None

let read_wallclock_baseline () =
  try
    Some
      (Json.of_string
         (In_channel.with_open_text "BENCH_wallclock.json" In_channel.input_all))
  with _ -> None

(* The baseline file keeps one section per (mode, domains) pair — "quick",
   "quick-d4", "full", ... — so each CI invocation gates against numbers
   measured the same way (a sharded run's wall clock is not comparable to
   an unsharded baseline) and a regeneration of one section doesn't lose
   the others.  The pre-split single-mode shape is still read. *)
let baseline_modes baseline =
  match baseline with
  | Some (Json.Obj top) -> (
    match List.assoc_opt "modes" top with
    | Some (Json.Obj modes) -> modes
    | _ -> (
      match List.assoc_opt "quick" top with
      | Some (Json.Bool q) -> [ ((if q then "quick" else "full"), Json.Obj top) ]
      | _ -> []))
  | _ -> []

let baseline_mode mode_key baseline = List.assoc_opt mode_key (baseline_modes baseline)

(* CPU us/event when the row carries it (noise-immune on shared machines);
   wall us/event for legacy baselines that predate the cpu_ms field. *)
let scenario_us_per_event j =
  let t =
    match jfloat (jfield "cpu_ms" j) with
    | Some c -> Some c
    | None -> jfloat (jfield "wall_ms" j)
  in
  match (t, jfield "events" j) with
  | Some w, Some (Json.Int e) when e > 0 -> Some (w *. 1000.0 /. float_of_int e)
  | _ -> None

let gate_factor () =
  match Sys.getenv_opt "CK_BENCH_GATE_FACTOR" with
  | Some s -> ( try float_of_string s with _ -> 1.05)
  | None -> 1.05

let gate_scenarios ~mode_key baseline rows =
  match baseline_mode mode_key baseline with
  | None ->
    Printf.printf "  no checked-in %s-mode baseline; us/event gate skipped\n" mode_key;
    []
  | Some bmode ->
    let bscen =
      match jfield "scenarios" bmode with Some (Json.List l) -> l | _ -> []
    in
    let factor = gate_factor () in
    List.filter_map
      (fun row ->
        let name =
          match jstr (jfield "name" row) with Some n -> n | None -> "?"
        in
        let base =
          List.find_opt (fun b -> jstr (jfield "name" b) = Some name) bscen
        in
        match (Option.bind base scenario_us_per_event, scenario_us_per_event row) with
        | Some b, Some cur ->
          let bad = cur > b *. factor in
          Printf.printf "  %-24s %7.3f us/event   baseline %7.3f%s\n" name cur b
            (if bad then
               Printf.sprintf "   ** REGRESSION (> %.2fx) **" factor
             else "   ok");
          if bad then Some name else None
        | _ -> None)
      rows

let wallclock_suite ~quick ~domains =
  let mode_key =
    (if quick then "quick" else "full")
    ^ if domains > 1 then Printf.sprintf "-d%d" domains else ""
  in
  let baseline = read_wallclock_baseline () in
  section
    (Printf.sprintf "WC. Wall-clock throughput (%s, domains %d)" mode_key domains);
  let c1_counts = if quick then [ 16; 64 ] else [ 16; 32; 64; 128; 256 ] in
  let c2_pages = if quick then [ 128; 512 ] else [ 64; 128; 256; 512; 1024 ] in
  let mg_ws = if quick then 16 else 64 in
  let threshold name =
    Option.map
      (fun b -> b *. gate_factor ())
      (Option.bind
         (Option.bind (baseline_mode mode_key baseline) (fun b ->
              match jfield "scenarios" b with
              | Some (Json.List l) ->
                List.find_opt (fun r -> jstr (jfield "name" r) = Some name) l
              | _ -> None))
         scenario_us_per_event)
  in
  let c1 =
    wall_scenario ?threshold:(threshold "c1/thread_sweep") "c1/thread_sweep"
      (fun () ->
        collect_sharded ~domains
          (fun ~prepare n ->
            ignore (Workload.Sweeps.thread_point ~capacity:64 ~prepare n))
          c1_counts)
  in
  let c2 =
    wall_scenario ?threshold:(threshold "c2/page_sweep") "c2/page_sweep" (fun () ->
        collect_sharded ~domains
          (fun ~prepare pages ->
            ignore (Workload.Sweeps.page_point ~mapping_capacity:256 ~prepare pages))
          c2_pages)
  in
  let mg =
    wall_scenario ?threshold:(threshold "mg/migrate") "mg/migrate" (fun () ->
        let out = ref [||] in
        ignore (migrate_run ~insts_out:out ~ws:mg_ws ());
        !out)
  in
  let rows = [ c1; c2; mg ] in
  section "WC. Batched-load / prefetch regression gate (1024 pages, capacity 256)";
  let prefetch_json, prefetch_regressed = prefetch_gate () in
  section "WC. Allocation probe (Gc.minor_words per event)";
  let alloc_json, alloc_failed = alloc_probe () in
  section
    (Printf.sprintf "WC. us/event regression gate vs checked-in baseline (%s mode)"
       mode_key);
  let regressions = gate_scenarios ~mode_key baseline rows in
  let mode_json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("domains", Json.Int domains);
        ("scenarios", Json.List rows);
        ("prefetch_gate", prefetch_json);
        ("alloc_probe", alloc_json);
      ]
  in
  let modes =
    (mode_key, mode_json)
    :: List.filter (fun (k, _) -> k <> mode_key) (baseline_modes baseline)
  in
  Json.to_file "BENCH_wallclock.json"
    (Json.Obj
       [
         ("cores", Json.Int (Domain.recommended_domain_count ()));
         ("modes", Json.Obj modes);
       ]);
  Printf.printf "\n  wrote BENCH_wallclock.json\n";
  let gating = Sys.getenv_opt "CK_BENCH_GATE" <> Some "0" in
  if gating && (prefetch_regressed || alloc_failed || regressions <> []) then exit 1

(* -- PL: replacement-policy shoot-out (bench --policy) --

   Both policies (clock and strict LRU) run the same three mapping/thread
   workloads: the C1 thread churn, the C2 sequential over-capacity sweep
   (plus its FP prefetch variant), and the SK skewed working set where a
   recency-aware policy should hold the hot set resident.  Results are
   merged into BENCH_metrics.json under "policy_sweep"; the run exits
   nonzero unless LRU's SK us/access is strictly below clock's — the
   end-to-end number that justifies keeping LRU next to clock. *)

let merge_into_bench_metrics key json =
  match
    let ic = open_in "BENCH_metrics.json" in
    let s = In_channel.input_all ic in
    close_in ic;
    Json.of_string s
  with
  | Json.Obj fields ->
    let fields = List.filter (fun (k, _) -> k <> key) fields in
    Json.to_file "BENCH_metrics.json" (Json.Obj (fields @ [ (key, json) ]))
  | _ | (exception _) -> Json.to_file "BENCH_metrics.json" (Json.Obj [ (key, json) ])

let policy_suite ~quick =
  section
    (Printf.sprintf "PL. Replacement-policy shoot-out%s" (if quick then " (quick)" else ""));
  let c1_threads = if quick then 96 else 128 in
  let c1_rounds = if quick then 8 else 20 in
  let c2_pages = if quick then 384 else 512 in
  let c2_passes = if quick then 3 else 4 in
  (* hot + one pass of cold must fit the 128-descriptor cache, or every
     policy thrashes equally and the sweep measures nothing *)
  let sk_cold = if quick then 32 else 24 in
  let sk_passes = if quick then 4 else 8 in
  Printf.printf "  %-9s %11s %7s %10s %9s %10s %8s %10s\n" "policy" "C1 us/rnd" "C1 wb"
    "C2 us/acc" "C2 hit%" "FP us/acc" "SK hit%" "SK us/acc";
  let rows = ref [] in
  let results = ref [] in
  List.iter
    (fun kind ->
      let name = Policy.kind_name kind in
      let config = { Config.default with Config.policy = kind } in
      let c1 =
        Workload.Sweeps.thread_point ~config ~capacity:64 ~rounds:c1_rounds c1_threads
      in
      let c2 =
        Workload.Sweeps.page_point ~config ~mapping_capacity:256 ~passes:c2_passes
          c2_pages
      in
      let c2_hit =
        1.0
        -. float_of_int c2.Workload.Sweeps.faults
           /. float_of_int (c2_passes * c2_pages)
      in
      let fp =
        Workload.Sweeps.page_point
          ~config:{ config with Config.fault_prefetch = 7 }
          ~mapping_capacity:256 ~passes:c2_passes c2_pages
      in
      let sk =
        Workload.Sweeps.skew_point ~config ~capacity:128 ~hot:96 ~cold:sk_cold
          ~passes:sk_passes ()
      in
      Printf.printf "  %-9s %11.1f %7d %10.2f %8.1f%% %10.2f %7.1f%% %10.2f\n" name
        c1.Workload.Sweeps.us_per_thread_round c1.Workload.Sweeps.thread_writebacks
        c2.Workload.Sweeps.us_per_access (100.0 *. c2_hit)
        fp.Workload.Sweeps.us_per_access
        (100.0 *. sk.Workload.Sweeps.skew_hit_rate)
        sk.Workload.Sweeps.skew_us_per_access;
      rows :=
        Json.Obj
          [
            ("policy", Json.String name);
            ( "c1",
              Json.Obj
                [
                  ("threads", Json.Int c1_threads);
                  ("us_per_thread_round", Json.Float c1.Workload.Sweeps.us_per_thread_round);
                  ("thread_writebacks", Json.Int c1.Workload.Sweeps.thread_writebacks);
                  ("reloads", Json.Int c1.Workload.Sweeps.reloads);
                ] );
            ( "c2",
              Json.Obj
                [
                  ("pages", Json.Int c2_pages);
                  ("mapping_loads", Json.Int c2.Workload.Sweeps.mapping_loads);
                  ("faults_forwarded", Json.Int c2.Workload.Sweeps.faults);
                  ("hit_rate", Json.Float c2_hit);
                  ("us_per_access", Json.Float c2.Workload.Sweeps.us_per_access);
                ] );
            ( "fp",
              Json.Obj
                [
                  ("faults_forwarded", Json.Int fp.Workload.Sweeps.faults);
                  ("us_per_access", Json.Float fp.Workload.Sweeps.us_per_access);
                ] );
            ( "sk",
              Json.Obj
                [
                  ("hot_pages", Json.Int sk.Workload.Sweeps.hot_pages);
                  ("cold_per_pass", Json.Int sk.Workload.Sweeps.cold_per_pass);
                  ("mapping_loads", Json.Int sk.Workload.Sweeps.skew_mapping_loads);
                  ("faults_forwarded", Json.Int sk.Workload.Sweeps.skew_faults);
                  ("hit_rate", Json.Float sk.Workload.Sweeps.skew_hit_rate);
                  ("us_per_access", Json.Float sk.Workload.Sweeps.skew_us_per_access);
                ] );
          ]
        :: !rows;
      results := (kind, sk.Workload.Sweeps.skew_us_per_access) :: !results)
    [ Policy.Clock; Policy.Lru ];
  let clock_sk = List.assoc Policy.Clock !results in
  let lru_sk = List.assoc Policy.Lru !results in
  let gate_failed = not (lru_sk < clock_sk) in
  Printf.printf "  lru vs clock on SK: %.2f vs %.2f us/access (lru must be lower)%s\n" lru_sk
    clock_sk
    (if gate_failed then "  ** REGRESSION: lru does not beat clock **" else "");
  merge_into_bench_metrics "policy_sweep"
    (Json.Obj
       [
         ("quick", Json.Bool quick);
         ("policies", Json.List (List.rev !rows));
         ("lru_sk_gate_failed", Json.Bool gate_failed);
       ]);
  Printf.printf "\n  merged policy_sweep into BENCH_metrics.json\n";
  if gate_failed then exit 1

(* -- TS: tiered backing store (bench --tiers) --

   The same bounded-frame paging workload runs against the seed's flat
   store (slots = 0) and the two-tier store (every page-out lands fast,
   LRU demotion sorts it out).  The table splits fault-service latency by
   tier — a fast hit is a RAM copy (~0.1 ms) where a slow hit pays the
   full disk path (~12 ms) — and reports what share of the re-referenced
   hot set stayed at RAM cost.  A second table checkpoints the kernel at
   varying tier mixes: every fast-resident image must flush to the paging
   disk before capture, so the modeled persistence pause grows with the
   fast tier.  Gates (exit nonzero): the tiered store must not regress
   C1 us/round or TS us/access by more than 1.10x vs flat, fast-tier
   service must be strictly cheaper than slow, and the tiered store's TS
   us/access must be strictly below flat's. *)

let tiers_suite ~quick =
  section
    (Printf.sprintf "TS. Tiered backing store%s" (if quick then " (quick)" else ""));
  let passes = if quick then 5 else 8 in
  let hot = 64 and cold = 32 and frames = 64 and slots = 64 in
  let stores = [ ("flat", 0); ("tiered", slots) ] in
  Printf.printf "  %-11s %8s %9s %9s %7s %11s %11s %8s %8s %10s\n" "store" "pg-ins"
    "fast-hit" "slow-hit" "fast%" "fast us" "slow us" "promote" "demote" "us/access";
  let rows = ref [] in
  let results = ref [] in
  List.iter
    (fun (label, slots) ->
      let p = Workload.Sweeps.tier_point ~slots ~hot ~cold ~passes ~frames () in
      Printf.printf "  %-11s %8d %9d %9d %6.1f%% %11.1f %11.1f %8d %8d %10.2f\n" label
        p.Workload.Sweeps.ts_page_ins p.Workload.Sweeps.ts_fast_hits
        p.Workload.Sweeps.ts_slow_hits
        (100.0 *. p.Workload.Sweeps.ts_fast_share)
        p.Workload.Sweeps.ts_fast_mean_us p.Workload.Sweeps.ts_slow_mean_us
        p.Workload.Sweeps.ts_promotes p.Workload.Sweeps.ts_demotes
        p.Workload.Sweeps.ts_us_per_access;
      rows :=
        Json.Obj
          [
            ("store", Json.String label);
            ("slots", Json.Int p.Workload.Sweeps.ts_slots);
            ("page_ins", Json.Int p.Workload.Sweeps.ts_page_ins);
            ("page_outs", Json.Int p.Workload.Sweeps.ts_page_outs);
            ("fast_hits", Json.Int p.Workload.Sweeps.ts_fast_hits);
            ("slow_hits", Json.Int p.Workload.Sweeps.ts_slow_hits);
            ("fast_share", Json.Float p.Workload.Sweeps.ts_fast_share);
            ("promotes", Json.Int p.Workload.Sweeps.ts_promotes);
            ("demotes", Json.Int p.Workload.Sweeps.ts_demotes);
            ("fast_mean_us", Json.Float p.Workload.Sweeps.ts_fast_mean_us);
            ("slow_mean_us", Json.Float p.Workload.Sweeps.ts_slow_mean_us);
            ("us_per_access", Json.Float p.Workload.Sweeps.ts_us_per_access);
          ]
        :: !rows;
      results := (label, p) :: !results)
    stores;
  (* checkpoint pause vs tier mix: everything fast-resident flushes to the
     paging disk before capture *)
  Printf.printf "\n  checkpoint pause vs tier mix:\n";
  Printf.printf "  %-11s %13s %8s %13s\n" "slots" "fast-resident" "flushed" "pause us";
  let ck_rows = ref [] in
  List.iter
    (fun slots ->
      let resident = ref 0 and flushed = ref 0 in
      ignore
        (Workload.Sweeps.tier_point ~slots ~hot ~cold
           ~passes:(if quick then 3 else 5)
           ~frames
           ~finish:(fun inst ak ->
             resident := Aklib.Backing_store.fast_resident ak.Aklib.App_kernel.store;
             let path = Filename.temp_file "ckos_tier" ".ckpt" in
             ignore (Migrate.Checkpoint.save ak ~path ());
             Sys.remove path;
             flushed := Metrics.counter inst.Instance.metrics "checkpoint.tier_flush")
           ());
      let pause_us =
        if !flushed = 0 then 0.0
        else
          Hw.Cost.us_of_cycles
            (Hw.Cost.disk_seek + (!flushed * Hw.Cost.disk_page_transfer))
      in
      Printf.printf "  %-11d %13d %8d %13.1f\n" slots !resident !flushed pause_us;
      ck_rows :=
        Json.Obj
          [
            ("slots", Json.Int slots);
            ("fast_resident", Json.Int !resident);
            ("flushed", Json.Int !flushed);
            ("pause_us", Json.Float pause_us);
          ]
        :: !ck_rows)
    [ 0; 32; 128 ];
  (* C1 non-interference: the thread sweep never pages, so enabling the
     tier must cost nothing there *)
  let c1_threads = if quick then 96 else 128 in
  let c1_rounds = if quick then 8 else 20 in
  let c1_flat =
    Workload.Sweeps.thread_point ~capacity:64 ~rounds:c1_rounds c1_threads
  in
  let c1_tiered =
    Workload.Sweeps.thread_point
      ~config:{ Config.default with Config.fast_tier_slots = slots }
      ~capacity:64 ~rounds:c1_rounds c1_threads
  in
  let flat = List.assoc "flat" !results in
  let tiered = List.assoc "tiered" !results in
  let c1_gate =
    c1_tiered.Workload.Sweeps.us_per_thread_round
    > c1_flat.Workload.Sweeps.us_per_thread_round *. 1.10
  in
  let ts_gate =
    tiered.Workload.Sweeps.ts_us_per_access
    > flat.Workload.Sweeps.ts_us_per_access *. 1.10
  in
  let latency_gate =
    not
      (tiered.Workload.Sweeps.ts_fast_mean_us
      < tiered.Workload.Sweeps.ts_slow_mean_us)
  in
  let beats_flat_gate =
    not (tiered.Workload.Sweeps.ts_us_per_access < flat.Workload.Sweeps.ts_us_per_access)
  in
  Printf.printf "\n  tiered vs flat on C1: %.1f vs %.1f us/round (tolerance 1.10x)%s\n"
    c1_tiered.Workload.Sweeps.us_per_thread_round
    c1_flat.Workload.Sweeps.us_per_thread_round
    (if c1_gate then "  ** REGRESSION **" else "");
  Printf.printf "  tiered vs flat on TS: %.2f vs %.2f us/access (tolerance 1.10x)%s\n"
    tiered.Workload.Sweeps.ts_us_per_access flat.Workload.Sweeps.ts_us_per_access
    (if ts_gate then "  ** REGRESSION **" else "");
  Printf.printf "  fast vs slow service: %.1f vs %.1f us%s\n"
    tiered.Workload.Sweeps.ts_fast_mean_us tiered.Workload.Sweeps.ts_slow_mean_us
    (if latency_gate then "  ** fast tier not faster **" else "");
  Printf.printf "  tiered must beat flat on TS us/access%s\n"
    (if beats_flat_gate then "  ** tiered store not faster than flat **" else ": ok");
  let failed = c1_gate || ts_gate || latency_gate || beats_flat_gate in
  merge_into_bench_metrics "tier_sweep"
    (Json.Obj
       [
         ("quick", Json.Bool quick);
         ("stores", Json.List (List.rev !rows));
         ("checkpoint_mix", Json.List (List.rev !ck_rows));
         ("c1_flat_us_per_round", Json.Float c1_flat.Workload.Sweeps.us_per_thread_round);
         ( "c1_tiered_us_per_round",
           Json.Float c1_tiered.Workload.Sweeps.us_per_thread_round );
         ("gate_failed", Json.Bool failed);
       ]);
  Printf.printf "\n  merged tier_sweep into BENCH_metrics.json\n";
  if failed then exit 1

(* -- FO: failover sweep (ISSUE PR 8) ------------------------------------- *)

(* MTTR decomposition vs cluster size: a loaded victim is hard-killed at a
   known instant; the surviving nodes' quorum-gated two-phase detector
   confirms the death, the recovery leader restarts the victim from its
   writeback images under the fenced epoch, and the new incarnation
   services work again.  Per point:

     detect  us  crash -> first [Node_dead] on a surviving node
     adopt   us  crash -> [Node_restart] on the victim (images reloaded)
     service us  crash -> first [Thread_dispatched] on the restarted victim
     loss        runnable victim threads not restored across the crash

   Gate (exit nonzero): at the largest swept size the death must be
   confirmed within 2x the suspect timeout (the detector's design
   envelope: suspicion at one timeout of silence, confirmation at two,
   minus the silence already accrued before the crash), and the victim
   must be running again by the end of the window. *)

let failover_point ~heartbeat ~suspect ~load ~window_us n =
  let config =
    {
      Config.default with
      Config.heartbeat_interval_us = heartbeat;
      suspect_timeout_us = suspect;
    }
  in
  let c = Workload.Cluster.create ~config ~n () in
  let victim = n - 1 in
  let vinst = Workload.Cluster.inst c victim in
  let witness = Workload.Cluster.inst c 0 in
  Trace.enable witness.Instance.trace;
  Trace.enable vinst.Instance.trace;
  ignore (Workload.Cluster.spawn_load c victim load);
  let boot_us = Hw.Cost.us_of_cycles (Workload.Cluster.live_now c) in
  (* warm up past the detectors' first-sight grace window *)
  Workload.Cluster.run ~until_us:(boot_us +. (3.0 *. suspect)) c;
  let crash_cyc = Workload.Cluster.live_now c in
  let crash_us = Hw.Cost.us_of_cycles crash_cyc in
  let before = Scheduler.length vinst.Instance.sched in
  Workload.Cluster.crash c victim;
  Workload.Cluster.run ~until_us:(crash_us +. window_us) c;
  let first_after ?(floor = crash_cyc) trace pred =
    Trace.fold trace
      (fun acc (e : Trace.entry) ->
        if e.Trace.time > floor && pred e.Trace.event then
          match acc with Some t when t <= e.Trace.time -> acc | _ -> Some e.Trace.time
        else acc)
      None
  in
  let detect_cyc =
    first_after witness.Instance.trace (function
      | Trace.Node_dead { node; _ } -> node = victim
      | _ -> false)
  in
  let restart_cyc =
    first_after vinst.Instance.trace (function
      | Trace.Node_restart { node; _ } -> node = victim
      | _ -> false)
  in
  let service_cyc =
    match restart_cyc with
    | None -> None
    | Some r ->
      first_after ~floor:r vinst.Instance.trace (function
        | Trace.Thread_dispatched _ -> true
        | _ -> false)
  in
  let rel = Option.map (fun t -> Hw.Cost.us_of_cycles t -. crash_us) in
  let after = Scheduler.length vinst.Instance.sched in
  ( n,
    rel detect_cyc,
    rel restart_cyc,
    rel service_cyc,
    max 0 (before - after),
    not vinst.Instance.halted )

let failover_suite ~quick =
  section
    (Printf.sprintf "FO. Failover: MTTR and work loss vs cluster size%s"
       (if quick then " (quick)" else ""));
  let heartbeat = 200.0 and suspect = 1_000.0 in
  let load = if quick then 3 else 6 in
  let window_us = 12_000.0 in
  let sizes = [ 4; 8; 16; 32 ] in
  Printf.printf "  heartbeat %.0f us, suspect timeout %.0f us, victim load %d threads\n"
    heartbeat suspect load;
  Printf.printf "  %5s %10s %10s %10s %6s %5s\n" "nodes" "detect us" "adopt us"
    "service us" "loss" "up";
  let rows = ref [] in
  let points =
    List.map (fun n -> failover_point ~heartbeat ~suspect ~load ~window_us n) sizes
  in
  List.iter
    (fun (n, detect, adopt, service, loss, up) ->
      let f = function Some v -> Printf.sprintf "%10.1f" v | None -> "         -" in
      Printf.printf "  %5d %s %s %s %6d %5s\n" n (f detect) (f adopt) (f service) loss
        (if up then "yes" else "NO");
      rows :=
        Json.Obj
          [
            ("nodes", Json.Int n);
            ("detect_us", match detect with Some v -> Json.Float v | None -> Json.Null);
            ("adopt_us", match adopt with Some v -> Json.Float v | None -> Json.Null);
            ("service_us", match service with Some v -> Json.Float v | None -> Json.Null);
            ("inflight_loss", Json.Int loss);
            ("recovered", Json.Bool up);
          ]
        :: !rows)
    points;
  let budget = 2.0 *. suspect in
  let n_max, detect_max, _, _, _, up_max = List.nth points (List.length points - 1) in
  let detect_gate =
    match detect_max with Some v -> v > budget | None -> true
  in
  let recover_gate = not up_max in
  Printf.printf "\n  detection at %d nodes: %s us (budget %.0f = 2x suspect timeout)%s\n"
    n_max
    (match detect_max with Some v -> Printf.sprintf "%.1f" v | None -> "none")
    budget
    (if detect_gate then "  ** GATE FAILED **" else "");
  if recover_gate then
    Printf.printf "  victim did not recover at %d nodes  ** GATE FAILED **\n" n_max;
  merge_into_bench_metrics "failover_sweep"
    (Json.Obj
       [
         ("quick", Json.Bool quick);
         ("heartbeat_us", Json.Float heartbeat);
         ("suspect_timeout_us", Json.Float suspect);
         ("detect_budget_us", Json.Float budget);
         ("points", Json.List (List.rev !rows));
         ("gate_failed", Json.Bool (detect_gate || recover_gate));
       ]);
  Printf.printf "  merged failover_sweep into BENCH_metrics.json\n";
  if detect_gate || recover_gate then exit 1

let full_suite () =
  Printf.printf "Cache Kernel reproduction benchmarks (OSDI '94)\n";
  Printf.printf "simulated machine: 25 MHz MPM CPUs; times in simulated microseconds\n";
  table1 ();
  table2 ();
  micro_benchmarks ();
  cache_sweeps ();
  mp3d ();
  space_overhead ();
  resource_enforcement ();
  exhaustion ();
  ipc_sweep ();
  multinode ();
  chaos_sweep ();
  ablations ();
  metrics_export ();
  overload_sweep ();
  migration_sweep ();
  bechamel_suite ();
  Printf.printf "\nDone.\n"

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let domains =
    let rec value = function
      | "--domains" :: v :: _ -> ( try max 1 (int_of_string v) with _ -> 1)
      | _ :: tl -> value tl
      | [] -> 1
    in
    value args
  in
  if List.mem "--wallclock" args then wallclock_suite ~quick ~domains
  else if List.mem "--policy" args then policy_suite ~quick
  else if List.mem "--tiers" args then tiers_suite ~quick
  else if List.mem "--failover" args then failover_suite ~quick
  else full_suite ()
