(* Invariant auditor, overload backpressure and forwarding-watchdog tests.

   - clean runs (plain and chaos-enabled) audit with zero violations
   - a qcheck property: arbitrary load/unload workloads under stale
     injection leave every audited invariant intact
   - seeded corruptions — counter drift, orphaned mappings, conservation
     drift, bogus page-table/TLB/RTLB entries, quota and ledger damage —
     are each detected, repaired, and a re-audit comes back clean
   - the periodic engine audit fires on Config.audit_interval_us
   - writeback-storm backpressure rejects loads and the aklib backoff
     layer absorbs the rejections without losing work
   - the Figure-2 forwarding watchdog re-forwards a wedged handler once,
     then escalates to the SRM hook and kills the thread *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let counter (inst : Instance.t) name = Metrics.counter inst.Instance.metrics name

let check_clean what r =
  if not (Audit.clean r) then
    Alcotest.failf "%s: %a" what (fun ppf -> Audit.pp_report ppf) r

let has_check c (r : Audit.report) =
  List.exists (fun (v : Audit.violation) -> v.Audit.check = c) r.Audit.violations

let all_repaired (r : Audit.report) = Audit.unrepaired r = []

(* The `ckos trace` demo workload: one thread demand-faulting [pages]
   pages, leaving live spaces, mappings and translation state behind. *)
let fig2_run ?(pages = 4) ?(config = Config.default) () =
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"demo" ~pages in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages ~segment:seg ~seg_offset:0 ());
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body (fun () ->
               for i = 0 to pages - 1 do
                 Hw.Exec.mem_write (0x40000000 + (i * Hw.Addr.page_size)) i
               done))));
  ignore (Engine.run [| inst |]);
  (inst, vsp)

let demo_space (inst : Instance.t) (vsp : Segment_mgr.vspace) =
  match Instance.find_space inst vsp.Segment_mgr.oid with
  | Some sp -> sp
  | None -> Alcotest.fail "demo space not resident"

(* -- clean runs -- *)

let test_clean_run () =
  let inst, _ = fig2_run () in
  check_clean "clean workload" (Audit.run inst);
  Alcotest.(check int) "audit counted" 1 (counter inst "audit.runs");
  Alcotest.(check int) "no violations counted" 0
    (counter inst "audit.violation.counter" + counter inst "audit.violation.dependency")

let test_exact_counters () =
  (* the denormalised per-object counters must equal a live recount
     exactly — not merely stay non-negative under clamped decrements *)
  let inst, vsp = fig2_run ~pages:6 () in
  let sp = demo_space inst vsp in
  let live sp =
    List.length (Mappings.of_space inst.Instance.mappings ~space_slot:(Space_obj.asid sp))
  in
  Alcotest.(check int) "mapping_count exact after faults" (live sp)
    sp.Space_obj.mapping_count;
  (* a double writeback of the same record must be an exact no-op: the
     second visit may happen when the consistency cascade reaches a
     sibling the outer loop still holds *)
  (match Mappings.of_space inst.Instance.mappings ~space_slot:(Space_obj.asid sp) with
  | [] -> Alcotest.fail "expected live mappings"
  | m :: _ ->
    let before = sp.Space_obj.mapping_count in
    Replacement.writeback_mapping inst ~reason:Wb.Requested sp m;
    Alcotest.(check int) "exact decrement" (before - 1) sp.Space_obj.mapping_count;
    Replacement.writeback_mapping inst ~reason:Wb.Requested sp m;
    Alcotest.(check int) "second visit is a no-op" (before - 1) sp.Space_obj.mapping_count);
  Alcotest.(check int) "recount still matches" (live sp) sp.Space_obj.mapping_count;
  check_clean "post-writeback audit" (Audit.run ~repair:false inst)

let test_clean_after_crash () =
  (* node crash discards descriptors without writeback; the [discarded]
     stats keep the conservation invariant true *)
  let inst, _ = fig2_run () in
  Instance.crash inst;
  check_clean "post-crash audit" (Audit.run inst)

(* -- qcheck: arbitrary workloads under stale injection stay invariant -- *)

let with_stale_retry op =
  match op () with Error Api.Stale_reference -> op () | r -> r

let run_ops_and_audit ops =
  let config =
    {
      Config.default with
      Config.space_cache = 6;
      thread_cache = 8;
      mapping_cache = 32;
      chaos = Some { Config.chaos_default with Config.stale_rate = 0.3 };
    }
  in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let spec =
    {
      Kernel_obj.name = "w";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = [| 100 |];
      max_priority = 31;
      max_locked = 8;
    }
  in
  let koid = ok (Api.boot inst spec) in
  let spaces = ref [] in
  let threads = ref [] in
  let next_tag = ref 0 in
  let pick l i = List.nth l (i mod List.length l) in
  let apply (code, operand) =
    match code mod 5 with
    | 0 ->
      incr next_tag;
      let oid = ok (Api.load_space inst ~caller:koid ~tag:!next_tag ()) in
      spaces := oid :: !spaces
    | 1 ->
      if !spaces <> [] then ignore (Api.unload_space inst ~caller:koid (pick !spaces operand))
    | 2 ->
      if !spaces <> [] then begin
        incr next_tag;
        match
          with_stale_retry (fun () ->
              Api.load_thread inst ~caller:koid ~space:(pick !spaces operand) ~priority:1
                ~tag:!next_tag
                ~start:(Thread_obj.Fresh (Hw.Exec.unit_body (fun () -> ())))
                ())
        with
        | Ok oid -> threads := oid :: !threads
        | Error _ -> ()
      end
    | 3 ->
      if !threads <> [] then
        ignore (Api.unload_thread inst ~caller:koid (pick !threads operand))
    | _ ->
      if !spaces <> [] then begin
        let va = 0x40000000 + (operand mod 64 * Hw.Addr.page_size) in
        ignore
          (with_stale_retry (fun () ->
               Api.load_mapping inst ~caller:koid ~space:(pick !spaces operand)
                 (Api.mapping ~va ~pfn:(operand mod 128) ())))
      end
  in
  List.iter apply ops;
  Audit.clean (Audit.run inst)

let qcheck_workload_invariants =
  QCheck.Test.make ~count:40 ~name:"arbitrary workload audits clean"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (pair small_int small_int))
    run_ops_and_audit

(* -- seeded corruptions: detect, repair, re-audit clean -- *)

let detect_repair_reaudit what inst ~check =
  let r = Audit.run ~repair:true inst in
  Alcotest.(check bool) (what ^ " detected") true (has_check check r);
  Alcotest.(check bool) (what ^ " repaired") true (all_repaired r);
  check_clean (what ^ " re-audit") (Audit.run inst);
  Alcotest.(check bool)
    (what ^ " repair counted")
    true
    (counter inst ("audit.repair." ^ check) > 0)

let test_counter_drift () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  sp.Space_obj.mapping_count <- sp.Space_obj.mapping_count + 3;
  sp.Space_obj.thread_count <- sp.Space_obj.thread_count + 2;
  detect_repair_reaudit "counter drift" inst ~check:"counter"

let test_locked_drift () =
  let inst, _ = fig2_run () in
  Caches.Kernel_cache.iter inst.Instance.kernels (fun (k : Kernel_obj.t) ->
      k.Kernel_obj.locked_count <- k.Kernel_obj.locked_count + 1);
  detect_repair_reaudit "locked_count drift" inst ~check:"counter"

let test_orphan_mapping () =
  (* rip the space out of its cache slot behind replacement's back: its
     mappings become orphans and the space's stats drift *)
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  Alcotest.(check bool) "mappings exist" true (sp.Space_obj.mapping_count > 0);
  ignore (Caches.Space_cache.unload inst.Instance.spaces sp.Space_obj.oid);
  let r = Audit.run ~repair:true inst in
  Alcotest.(check bool) "orphans detected" true (has_check "dependency" r);
  Alcotest.(check bool) "orphans repaired" true (all_repaired r);
  check_clean "re-audit" (Audit.run inst);
  (* the repair went through the writeback channel, not a silent drop *)
  Alcotest.(check bool) "orphan writebacks pushed" true
    (inst.Instance.stats.Stats.mappings.Stats.writebacks > 0)

let test_conservation_drift () =
  let inst, _ = fig2_run () in
  let c = inst.Instance.stats.Stats.mappings in
  c.Stats.loads <- c.Stats.loads + 5;
  detect_repair_reaudit "conservation drift" inst ~check:"conservation"

let test_bogus_page_table_entry () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let bogus = Hw.Page_table.make_entry ~frame:5 ~flags:Hw.Page_table.rw () in
  ignore (Hw.Page_table.insert sp.Space_obj.table 0x7F000000 bogus);
  detect_repair_reaudit "bogus page-table entry" inst ~check:"translation"

let test_detached_mapping_pte () =
  (* replace a live mapping's page-table entry with a different object:
     the shared-by-reference agreement breaks *)
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let impostor = Hw.Page_table.make_entry ~frame:9 ~flags:Hw.Page_table.rw () in
  ignore (Hw.Page_table.insert sp.Space_obj.table 0x40000000 impostor);
  detect_repair_reaudit "detached mapping pte" inst ~check:"translation"

let test_stale_tlb_and_rtlb () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let cpu = inst.Instance.node.Hw.Mpm.cpus.(0) in
  let bogus = Hw.Page_table.make_entry ~frame:7 ~flags:Hw.Page_table.rw () in
  Hw.Tlb.insert cpu.Hw.Cpu.tlb ~asid:(Space_obj.asid sp) ~vpn:999 ~pte:bogus;
  Hw.Rtlb.insert cpu.Hw.Cpu.rtlb ~pfn:777 ~va_base:0 ~tag:0;
  detect_repair_reaudit "stale TLB/RTLB entries" inst ~check:"translation";
  Alcotest.(check bool) "tlb entry flushed" true
    (Hw.Tlb.lookup cpu.Hw.Cpu.tlb ~asid:(Space_obj.asid sp) ~vpn:999 = None);
  Alcotest.(check bool) "rtlb entry flushed" true
    (Hw.Rtlb.lookup cpu.Hw.Cpu.rtlb ~pfn:777 = None)

let test_quota_corruption () =
  let inst, _ = fig2_run () in
  Caches.Kernel_cache.iter inst.Instance.kernels (fun (k : Kernel_obj.t) ->
      k.Kernel_obj.consumed.(0) <- -100);
  detect_repair_reaudit "negative quota consumption" inst ~check:"quota"

(* -- tiered backing store: per-tier conservation through the audit hook -- *)

(* Run a tiered paging workload and keep the instance and app kernel alive
   so the store can be corrupted afterwards.  Slots above the working set
   keep every paged-out image fast-resident, guaranteeing
   there is an image for [corrupt_tier_for_test] to damage. *)
let tier_run () =
  let inst_r = ref None and ak_r = ref None in
  ignore
    (Workload.Sweeps.tier_point ~slots:64 ~hot:24 ~cold:12 ~passes:2 ~frames:24
       ~finish:(fun inst ak ->
         inst_r := Some inst;
         ak_r := Some ak)
       ());
  match (!inst_r, !ak_r) with
  | Some inst, Some ak -> (inst, ak)
  | _ -> Alcotest.fail "tier workload did not run"

let seed_tier_corruption kind =
  let inst, ak = tier_run () in
  let store = ak.App_kernel.store in
  check_clean "tier workload audits clean" (Audit.run inst);
  Alcotest.(check bool) "fast tier populated" true
    (Backing_store.fast_resident store > 0);
  Alcotest.(check bool) "corruption seeded" true
    (Backing_store.corrupt_tier_for_test store kind);
  inst

let test_tier_orphan_image () =
  let inst = seed_tier_corruption `Orphan_image in
  detect_repair_reaudit "orphaned fast image" inst ~check:"tier"

let test_tier_missing_image () =
  let inst = seed_tier_corruption `Missing_image in
  detect_repair_reaudit "missing fast image" inst ~check:"tier"

let test_tier_live_drift () =
  let inst = seed_tier_corruption `Drift in
  detect_repair_reaudit "fast_live drift" inst ~check:"tier"

(* -- SRM ledger conservation, standalone and through the instance hook -- *)

let test_ledger_audit () =
  let l = Srm.Ledger.create ~groups:[ 0; 1; 2; 3 ] ~n_cpus:2 in
  let g =
    match
      Srm.Ledger.allocate l ~kernel_name:"a" ~group_count:2 ~cpu_percent:30
        ~net_percent:10
    with
    | Ok g -> g
    | Error _ -> Alcotest.fail "allocate failed"
  in
  Alcotest.(check bool) "clean ledger audits clean" true (Srm.Ledger.audit l ~repair:false = []);
  (* net drift: committed no longer equals the sum over grants *)
  g.Srm.Ledger.net_percent <- g.Srm.Ledger.net_percent + 25;
  let viols = Srm.Ledger.audit l ~repair:true in
  Alcotest.(check bool) "net drift detected" true
    (List.exists (fun (_, s, _, _) -> s = "net_committed") viols);
  Alcotest.(check bool) "net drift repaired" true
    (List.for_all (fun (_, _, _, repaired) -> repaired) viols);
  Alcotest.(check bool) "ledger clean after repair" true
    (Srm.Ledger.audit l ~repair:false = []);
  (* group leak: a granted group vanishes from every holder *)
  g.Srm.Ledger.groups <- List.tl g.Srm.Ledger.groups;
  let viols = Srm.Ledger.audit l ~repair:true in
  Alcotest.(check bool) "leak detected" true
    (List.exists (fun (_, s, _, _) -> s = "groups") viols);
  Alcotest.(check bool) "leak repaired" true
    (Srm.Ledger.audit l ~repair:false = [])

let test_srm_audit_hook () =
  let inst = Workload.Setup.instance ~cpus:1 () in
  let srm = ok (Srm.Manager.boot inst ()) in
  let g =
    match
      Srm.Ledger.allocate (Srm.Manager.ledger srm) ~kernel_name:"guest" ~group_count:1
        ~cpu_percent:20 ~net_percent:5
    with
    | Ok g -> g
    | Error _ -> Alcotest.fail "allocate failed"
  in
  check_clean "booted SRM audits clean" (Audit.run inst);
  g.Srm.Ledger.net_percent <- 0;
  let r = Audit.run ~repair:true inst in
  Alcotest.(check bool) "ledger check reached through the hook" true (has_check "ledger" r);
  check_clean "repaired through the hook" (Audit.run inst);
  (* the misbehaving-kernel escalation hook feeds the SRM's record *)
  inst.Instance.on_misbehaving ~kernel:(Srm.Manager.oid srm) ~thread:Oid.none;
  Alcotest.(check bool) "escalation recorded" true (srm.Srm.Manager.misbehaving <> []);
  Alcotest.(check int) "escalation counted" 1 (counter inst "srm.misbehaving")

(* -- periodic audit from the engine -- *)

let test_periodic_audit () =
  let config = { Config.default with Config.audit_interval_us = 200.0 } in
  let inst, _ = fig2_run ~config () in
  Alcotest.(check bool) "periodic audits ran" true (counter inst "audit.runs" >= 2);
  Alcotest.(check int) "nothing to repair" 0 (counter inst "audit.repair.counter")

(* -- overload backpressure and bounded backoff -- *)

let test_backpressure_backoff () =
  let config =
    {
      Config.default with
      Config.mapping_cache = 16;
      storm_threshold = 2;
      storm_window_us = 2000.0;
    }
  in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let first = App_kernel.oid ak in
  let spec =
    {
      Kernel_obj.name = "loader";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = [| 100 |];
      max_priority = 16;
      max_locked = 4;
    }
  in
  let caller = ok (Api.load_kernel inst ~caller:first spec) in
  List.iter
    (fun g ->
      ignore
        (Api.set_mem_access inst ~caller:first ~kernel:caller ~group:g
           Kernel_obj.Read_write))
    (List.init (Instance.n_groups inst) Fun.id);
  let space = ok (Api.load_space inst ~caller ~tag:1 ()) in
  for i = 0 to 63 do
    let slot = i mod 32 in
    let va = 0x40000000 + (slot * Hw.Addr.page_size) in
    match
      Backoff.with_backoff inst (fun () ->
          Api.load_mapping inst ~caller ~space (Api.mapping ~va ~pfn:(512 + slot) ()))
    with
    | Ok () | Error Api.Already_mapped -> ()
    | Error Api.Overloaded -> Alcotest.fail "bounded backoff exhausted under a transient storm"
    | Error e -> Alcotest.failf "load_mapping: %a" Api.pp_error e
  done;
  Alcotest.(check bool) "storm detected" true (counter inst "storm.begin" > 0);
  Alcotest.(check bool) "loads rejected" true (counter inst "overload.rejected" > 0);
  Alcotest.(check bool) "backoff retries counted" true (counter inst "overload.backoff" > 0);
  check_clean "audit after storm" (Audit.run inst)

(* -- Figure-2 forwarding watchdog -- *)

let test_watchdog_escalation () =
  let config = { Config.default with Config.forward_deadline_us = 1_000.0 } in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  (* a kernel whose fault handler wedges forever on a signal that never
     arrives: the fault can never resolve *)
  let spec =
    {
      Kernel_obj.name = "wedged";
      handlers =
        {
          Kernel_obj.null_handlers with
          Kernel_obj.on_fault = (fun _ctx -> ignore (Hw.Exec.trap Api.Ck_wait_signal));
        };
      cpu_percent = [| 100 |];
      max_priority = 31;
      max_locked = 8;
    }
  in
  let koid = ok (Api.boot inst spec) in
  let escalated = ref None in
  inst.Instance.on_misbehaving <-
    (fun ~kernel ~thread -> escalated := Some (kernel, thread));
  let space = ok (Api.load_space inst ~caller:koid ~tag:1 ()) in
  let toid =
    ok
      (Api.load_thread inst ~caller:koid ~space ~priority:8 ~tag:1
         ~start:(Thread_obj.Fresh (Hw.Exec.unit_body (fun () -> Hw.Exec.mem_write 0x40000000 1)))
         ())
  in
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "re-forwarded once" 1 (counter inst "watchdog.reforward");
  Alcotest.(check int) "escalated once" 1 (counter inst "watchdog.escalation");
  (match !escalated with
  | Some (k, th) ->
    Alcotest.(check bool) "escalated the wedged kernel" true (Oid.equal k koid);
    Alcotest.(check bool) "escalated the hung thread" true (Oid.equal th toid)
  | None -> Alcotest.fail "misbehaving hook never fired");
  Alcotest.(check bool) "hung thread was killed" true
    (Instance.find_thread inst toid = None);
  check_clean "audit after escalation" (Audit.run inst)

let test_watchdog_quiet_on_healthy_runs () =
  (* a healthy handler resolves faults well inside the deadline: the armed
     watchdogs all find their frame popped and stay silent *)
  let config = { Config.default with Config.forward_deadline_us = 2_000.0 } in
  let inst, _ = fig2_run ~config () in
  Alcotest.(check int) "no re-forwards" 0 (counter inst "watchdog.reforward");
  Alcotest.(check int) "no escalations" 0 (counter inst "watchdog.escalation")

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "workload audits clean" `Quick test_clean_run;
          Alcotest.test_case "counters are exact" `Quick test_exact_counters;
          Alcotest.test_case "post-crash conservation" `Quick test_clean_after_crash;
          QCheck_alcotest.to_alcotest qcheck_workload_invariants;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "counter drift" `Quick test_counter_drift;
          Alcotest.test_case "locked_count drift" `Quick test_locked_drift;
          Alcotest.test_case "orphan mapping" `Quick test_orphan_mapping;
          Alcotest.test_case "conservation drift" `Quick test_conservation_drift;
          Alcotest.test_case "bogus page-table entry" `Quick test_bogus_page_table_entry;
          Alcotest.test_case "detached mapping pte" `Quick test_detached_mapping_pte;
          Alcotest.test_case "stale TLB and RTLB" `Quick test_stale_tlb_and_rtlb;
          Alcotest.test_case "quota corruption" `Quick test_quota_corruption;
        ] );
      ( "tier",
        [
          Alcotest.test_case "orphaned fast image" `Quick test_tier_orphan_image;
          Alcotest.test_case "missing fast image" `Quick test_tier_missing_image;
          Alcotest.test_case "fast_live drift" `Quick test_tier_live_drift;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "conservation and repair" `Quick test_ledger_audit;
          Alcotest.test_case "instance hook via SRM boot" `Quick test_srm_audit_hook;
        ] );
      ("periodic", [ Alcotest.test_case "engine interval" `Quick test_periodic_audit ]);
      ( "overload",
        [ Alcotest.test_case "backpressure and backoff" `Quick test_backpressure_backoff ] );
      ( "watchdog",
        [
          Alcotest.test_case "stuck handler escalates" `Quick test_watchdog_escalation;
          Alcotest.test_case "quiet on healthy runs" `Quick
            test_watchdog_quiet_on_healthy_runs;
        ] );
    ]
