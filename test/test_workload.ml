(* Shape-regression tests: the qualitative claims of the evaluation section
   must keep holding — orderings, knees, enforcement effects.  These run
   the builders behind the `ckos bench` scenarios with reduced sizes; the
   registry group runs the scenarios themselves, gates included. *)

let test_table2_shape () =
  let rows = Workload.Micro.table2 () in
  let get name = List.assoc name rows in
  let m = get "Mappings" and t = get "Threads" and s = get "AddrSpaces" in
  let k = get "Kernel" in
  (* mapping load is the cheapest operation *)
  Alcotest.(check bool) "mapping load cheapest" true
    (m.Workload.Micro.load < t.Workload.Micro.load
    && m.Workload.Micro.load < s.Workload.Micro.load
    && m.Workload.Micro.load < k.Workload.Micro.load);
  (* loads with writeback always dominate plain loads *)
  List.iter
    (fun (name, (r : Workload.Micro.op_times)) ->
      Alcotest.(check bool)
        (name ^ ": load+wb > load")
        true
        (r.Workload.Micro.load_wb > r.Workload.Micro.load))
    rows;
  (* the kernel-object outliers: costliest load, cheapest unload *)
  Alcotest.(check bool) "kernel load costliest" true
    (k.Workload.Micro.load > t.Workload.Micro.load);
  Alcotest.(check bool) "kernel unload cheapest" true
    (k.Workload.Micro.unload < m.Workload.Micro.unload
    && k.Workload.Micro.unload < t.Workload.Micro.unload)

let test_trap_forwarding_shape () =
  let ck = Workload.Micro.ck_getpid_us ~calls:50 () in
  let mono = Workload.Micro.monolithic_getpid_us ~calls:50 () in
  Alcotest.(check bool) "forwarded trap costs more than monolithic" true (ck > mono);
  Alcotest.(check bool) "but less than 2x (paper: 37 vs 25)" true (ck < 2.0 *. mono);
  Alcotest.(check bool) "in the tens of microseconds" true (ck > 10.0 && ck < 100.0)

let test_fault_decomposition () =
  let f = Workload.Micro.fault_us ~faults:30 () in
  Alcotest.(check bool) "total = transfer + serve (within 1us)" true
    (Float.abs
       (f.Workload.Micro.total_us
       -. (f.Workload.Micro.transfer_us +. f.Workload.Micro.load_resume_us))
    < 1.0);
  Alcotest.(check bool) "serve dominates transfer (paper 67 vs 32)" true
    (f.Workload.Micro.load_resume_us > f.Workload.Micro.transfer_us)

let test_thread_sweep_knee () =
  let below = Workload.Sweeps.thread_point ~capacity:32 ~rounds:10 24 in
  let above = Workload.Sweeps.thread_point ~capacity:32 ~rounds:10 48 in
  Alcotest.(check int) "no writebacks below capacity" 0
    below.Workload.Sweeps.thread_writebacks;
  Alcotest.(check bool) "writebacks above capacity" true
    (above.Workload.Sweeps.thread_writebacks > 0);
  Alcotest.(check bool) "per-round cost rises past the knee" true
    (above.Workload.Sweeps.us_per_thread_round
    > below.Workload.Sweeps.us_per_thread_round)

let test_page_sweep_thrash () =
  let fits = Workload.Sweeps.page_point ~mapping_capacity:128 ~passes:3 96 in
  let thrash = Workload.Sweeps.page_point ~mapping_capacity:128 ~passes:3 192 in
  Alcotest.(check int) "fitting set loads once" 96 fits.Workload.Sweeps.mapping_loads;
  Alcotest.(check bool) "oversized set refaults every pass" true
    (thrash.Workload.Sweeps.mapping_loads >= 3 * 192);
  Alcotest.(check bool) "an order of magnitude dearer" true
    (thrash.Workload.Sweeps.us_per_access > 4.0 *. fits.Workload.Sweeps.us_per_access)

let test_quota_shape () =
  let q = Workload.Contention.quota_enforcement ~rogue_percent:30 ~run_ms:200 () in
  Alcotest.(check bool) "rogue capped near its 30%" true
    (q.Workload.Contention.rogue_share < 0.40);
  Alcotest.(check bool) "victim gets the rest" true
    (q.Workload.Contention.victim_share > 0.55);
  Alcotest.(check bool) "demotion engaged" true q.Workload.Contention.demotions

let test_exhaustion_shape () =
  let ck = Workload.Contention.ck_thread_overload ~capacity:16 () in
  Alcotest.(check int) "no hard errors" 0 ck.Workload.Contention.hard_errors;
  Alcotest.(check int) "all loads succeed" ck.Workload.Contention.requested
    ck.Workload.Contention.loaded_ok;
  Alcotest.(check bool) "overflow went to writeback" true
    (ck.Workload.Contention.writebacks >= 16);
  let mono = Workload.Contention.monolithic_overload ~nproc:16 () in
  Alcotest.(check int) "monolithic hits the wall" 16 mono.Workload.Contention.hard_errors

let test_ipc_shape () =
  let one = function
    | [ (p : Workload.Ipc.point) ] -> p.Workload.Ipc.us_per_message
    | _ -> Alcotest.fail "sweep shape"
  in
  let mbm_1 = one (Workload.Ipc.mbm_sweep ~messages:20 [ 1 ]) in
  let mk_1 = one (Workload.Ipc.microkernel_sweep ~messages:20 [ 1 ]) in
  Alcotest.(check bool) "memory-based messaging beats copy IPC" true (mbm_1 < mk_1);
  let mbm_big = one (Workload.Ipc.mbm_sweep ~messages:20 [ 500 ]) in
  Alcotest.(check bool) "mbm grows only with memory traffic" true
    (mbm_big < mbm_1 +. 500.0 *. 0.6)

let test_mp3d_shape () =
  let c = Workload.Locality.mp3d_compare ~particles:16384 ~cells:64 ~steps:2 () in
  Alcotest.(check bool) "scattering degrades performance 10-45%" true
    (c.Workload.Locality.degradation_percent > 10.0
    && c.Workload.Locality.degradation_percent < 45.0);
  Alcotest.(check bool) "driven by TLB misses" true
    (c.Workload.Locality.scattered.Sim_kernel.Mp3d.tlb_miss_rate
    > 10.0 *. c.Workload.Locality.clustered.Sim_kernel.Mp3d.tlb_miss_rate)

(* -- the scenario registry -- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_registry_unique () =
  let names = Workload.Bench.names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_unknown () =
  match Workload.Bench.select [ "t1"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown scenario accepted"
  | Error msg ->
    List.iter
      (fun n -> Alcotest.(check bool) (n ^ " listed") true (contains msg n))
      ("nope" :: Workload.Bench.names)

(* Every simulated scenario, at its benchmark size, with its gates.  WC
   times the host against a checked-in baseline, so it stays out of the
   test suite. *)
let test_registry_scenarios () =
  List.iter
    (fun (s : Workload.Scenario.t) ->
      if s.name <> "wc" then begin
        let r = s.run () in
        Alcotest.(check bool) (s.name ^ " has rows") true (r.rows <> []);
        List.iter (fun (g, ok) -> Alcotest.(check bool) (s.name ^ ": " ^ g) true ok) r.gates
      end)
    Workload.Bench.all

let () =
  Alcotest.run "workload-shapes"
    [
      ( "micro",
        [
          Alcotest.test_case "table 2 orderings" `Quick test_table2_shape;
          Alcotest.test_case "trap forwarding premium" `Quick test_trap_forwarding_shape;
          Alcotest.test_case "fault decomposition" `Quick test_fault_decomposition;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "thread-cache knee" `Quick test_thread_sweep_knee;
          Alcotest.test_case "mapping-cache thrash" `Quick test_page_sweep_thrash;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "quota capping" `Quick test_quota_shape;
          Alcotest.test_case "exhaustion semantics" `Quick test_exhaustion_shape;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "ipc ordering" `Quick test_ipc_shape;
          Alcotest.test_case "mp3d locality" `Slow test_mp3d_shape;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names are unique" `Quick test_registry_unique;
          Alcotest.test_case "unknown name lists the valid ones" `Quick test_registry_unknown;
          Alcotest.test_case "every scenario passes its gates" `Quick test_registry_scenarios;
        ] );
    ]
