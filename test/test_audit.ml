(* Invariant auditor and forwarding-watchdog tests.

   - clean runs (plain and chaos-enabled) audit with zero violations
   - a qcheck property: arbitrary load/unload workloads under stale
     injection leave every audited invariant intact
   - seeded corruptions — counter drift, orphaned mappings, conservation
     drift, bogus page-table/TLB/RTLB entries, quota damage — are each
     flagged with their check and subject, and a second audit reports the
     same violations (auditing changes nothing)
   - a corruption made before a chaos run is still reported after it: the
     engine does not audit, so nothing erases it
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

let found (r : Audit.report) =
  List.map (fun (v : Audit.violation) -> (v.Audit.check, v.Audit.subject)) r.Audit.violations

(* The `ckos trace` demo workload, before it runs: one thread that will
   demand-fault [pages] pages. *)
let fig2_setup ?(pages = 4) ?(config = Config.default) () =
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
  (inst, vsp)

(* ... and run, leaving live spaces, mappings and translation state
   behind. *)
let fig2_run ?pages ?config () =
  let inst, vsp = fig2_setup ?pages ?config () in
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
  check_clean "post-writeback audit" (Audit.run inst)

let test_clean_after_crash () =
  (* node crash discards descriptors without writeback; the [discarded]
     stats keep the conservation invariant true *)
  let inst, _ = fig2_run () in
  Instance.crash inst;
  check_clean "post-crash audit" (Audit.run inst)

(* -- qcheck: arbitrary workloads under stale injection stay invariant -- *)

let with_stale_retry op =
  match op () with Error Api.Stale_reference -> op () | r -> r

(* Two kernels share the instance: the first kernel and k2.  Every object
   is loaded by its owner; locks are set and cleared both by the owner and
   by the first kernel, so the lock ledger must follow the owner. *)
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
  let spec name =
    {
      Kernel_obj.name;
      handlers = Kernel_obj.null_handlers;
      cpu_percent = [| 100 |];
      max_priority = 31;
      max_locked = 8;
    }
  in
  let koid = ok (Api.boot inst (spec "w")) in
  let k2 = ok (Api.load_kernel inst ~caller:koid (spec "k2")) in
  for g = 0 to Instance.n_groups inst - 1 do
    ok (Api.set_mem_access inst ~caller:koid ~kernel:k2 ~group:g Kernel_obj.Read_write)
  done;
  (* (identifier, owner) of every space and thread loaded so far *)
  let spaces = ref [] in
  let threads = ref [] in
  let next_tag = ref 0 in
  let pick l i = List.nth l (i mod List.length l) in
  let apply (code, operand) =
    match code mod 7 with
    | 0 ->
      incr next_tag;
      let owner = if operand land 1 = 0 then koid else k2 in
      let oid = ok (Api.load_space inst ~caller:owner ~tag:!next_tag ()) in
      spaces := (oid, owner) :: !spaces
    | 1 ->
      if !spaces <> [] then
        let sp, owner = pick !spaces operand in
        ignore (Api.unload_space inst ~caller:owner sp)
    | 2 ->
      if !spaces <> [] then begin
        incr next_tag;
        let sp, owner = pick !spaces operand in
        match
          with_stale_retry (fun () ->
              Api.load_thread inst ~caller:owner ~space:sp ~priority:1 ~tag:!next_tag
                ~start:(Thread_obj.Fresh (Hw.Exec.unit_body (fun () -> ())))
                ())
        with
        | Ok oid -> threads := (oid, owner) :: !threads
        | Error _ -> ()
      end
    | 3 ->
      if !threads <> [] then
        let th, owner = pick !threads operand in
        ignore (Api.unload_thread inst ~caller:owner th)
    | 4 ->
      if !spaces <> [] then begin
        let va = 0x40000000 + (operand mod 64 * Hw.Addr.page_size) in
        let sp, owner = pick !spaces operand in
        ignore
          (with_stale_retry (fun () ->
               Api.load_mapping inst ~caller:owner ~space:sp
                 (Api.mapping ~va ~pfn:(operand mod 128) ())))
      end
    | code ->
      (* 5 locks, 6 unlocks; an odd operand acts as the first kernel *)
      let objects = !spaces @ !threads in
      if objects <> [] then
        let oid, owner = pick objects (operand / 2) in
        let caller = if operand land 1 = 1 then koid else owner in
        ignore (Api.set_lock inst ~caller oid (code = 5))
  in
  List.iter apply ops;
  Audit.clean (Audit.run inst)

let qcheck_workload_invariants =
  QCheck.Test.make ~count:40 ~name:"arbitrary workload audits clean"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (pair small_int small_int))
    run_ops_and_audit

(* -- seeded corruptions: each is flagged, and flagging changes nothing -- *)

(* The audit flags every (check, subject) of [expected] — nothing else
   when [exact] — counts them, and a second audit reports the same. *)
let detects ?(exact = true) what inst expected =
  let r = Audit.run inst in
  let got = found r in
  List.iter
    (fun (check, subject) ->
      if not (List.mem (check, subject) got) then
        Alcotest.failf "%s: [%s] %s not flagged in %a" what check subject Audit.pp_report r;
      Alcotest.(check bool)
        (Printf.sprintf "%s: audit.violation.%s counted" what check)
        true
        (counter inst ("audit.violation." ^ check) > 0))
    expected;
  if exact then
    Alcotest.(check (list (pair string string)))
      (what ^ ": nothing else flagged")
      (List.sort compare expected) (List.sort compare got);
  let again = Audit.run inst in
  Alcotest.(check (list (pair string string))) (what ^ ": a second audit agrees") got (found again);
  Alcotest.(check (list string))
    (what ^ ": with the same details")
    (List.map (fun (v : Audit.violation) -> v.Audit.detail) r.Audit.violations)
    (List.map (fun (v : Audit.violation) -> v.Audit.detail) again.Audit.violations)

let oid_field (o : Oid.t) field = Fmt.str "%a.%s" Oid.pp o field

let first_kernel (inst : Instance.t) =
  match Caches.Kernel_cache.fold inst.Instance.kernels (fun l k -> k :: l) [] with
  | [ k ] -> k
  | ks -> Alcotest.failf "expected one kernel, found %d" (List.length ks)

let test_counter_drift () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  sp.Space_obj.mapping_count <- sp.Space_obj.mapping_count + 3;
  sp.Space_obj.thread_count <- sp.Space_obj.thread_count + 2;
  detects "counter drift" inst
    [
      ("counter", oid_field sp.Space_obj.oid "mapping_count");
      ("counter", oid_field sp.Space_obj.oid "thread_count");
    ]

let test_locked_drift () =
  let inst, _ = fig2_run () in
  let k = first_kernel inst in
  k.Kernel_obj.locked_count <- k.Kernel_obj.locked_count + 1;
  detects "locked_count drift" inst [ ("counter", oid_field k.Kernel_obj.oid "locked_count") ]

(* Rip the space out of its cache slot behind replacement's back: its
   mappings become orphans.  Returns the orphans' subjects. *)
let orphan_space inst vsp =
  let sp = demo_space inst vsp in
  let orphans =
    List.map
      (fun (m : Mappings.m) ->
        ( "dependency",
          Fmt.str "mapping %a/%a" Oid.pp m.Mappings.space Hw.Addr.pp_addr m.Mappings.va ))
      (Mappings.of_space inst.Instance.mappings ~space_slot:(Space_obj.asid sp))
  in
  ignore (Caches.Space_cache.unload inst.Instance.spaces sp.Space_obj.oid);
  orphans

let test_orphan_mapping () =
  let inst, vsp = fig2_run () in
  let orphans = orphan_space inst vsp in
  Alcotest.(check bool) "mappings exist" true (orphans <> []);
  (* the space's stats drift and its translations go stale too *)
  detects ~exact:false "orphan mapping" inst (("conservation", "spaces") :: orphans)

let test_orphan_locked_mapping () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  ok
    (Api.load_mapping inst ~caller:sp.Space_obj.owner ~space:sp.Space_obj.oid
       (Api.mapping ~va:0x50000000 ~pfn:100 ~lock:true ()));
  let locked =
    ("dependency", Fmt.str "mapping %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr 0x50000000)
  in
  let orphans = orphan_space inst vsp in
  Alcotest.(check bool) "the locked mapping is an orphan" true (List.mem locked orphans);
  detects ~exact:false "locked orphan mapping" inst orphans

let test_conservation_drift () =
  let inst, _ = fig2_run () in
  let c = inst.Instance.stats.Stats.mappings in
  c.Stats.loads <- c.Stats.loads + 5;
  detects "conservation drift" inst [ ("conservation", "mappings") ]

let test_bogus_page_table_entry () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let bogus = Hw.Page_table.make_entry ~frame:5 ~flags:Hw.Page_table.rw () in
  ignore (Hw.Page_table.insert sp.Space_obj.table 0x7F000000 bogus);
  detects "bogus page-table entry" inst
    [ ("translation", Fmt.str "pte %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr 0x7F000000) ]

let test_detached_mapping_pte () =
  (* replace a live mapping's page-table entry with a different object:
     the shared-by-reference agreement breaks both ways *)
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let impostor = Hw.Page_table.make_entry ~frame:9 ~flags:Hw.Page_table.rw () in
  ignore (Hw.Page_table.insert sp.Space_obj.table 0x40000000 impostor);
  detects "detached mapping pte" inst
    [
      ( "translation",
        Fmt.str "mapping %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr 0x40000000 );
      ("translation", Fmt.str "pte %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr 0x40000000);
    ]

let test_stale_tlb_and_rtlb () =
  let inst, vsp = fig2_run () in
  let sp = demo_space inst vsp in
  let cpu = inst.Instance.node.Hw.Mpm.cpus.(0) in
  let bogus = Hw.Page_table.make_entry ~frame:7 ~flags:Hw.Page_table.rw () in
  let asid = Space_obj.asid sp in
  Hw.Tlb.insert cpu.Hw.Cpu.tlb ~asid ~vpn:999 ~pte:bogus;
  Hw.Rtlb.insert cpu.Hw.Cpu.rtlb ~pfn:777 ~va_base:0 ~tag:0;
  detects "stale TLB/RTLB entries" inst
    [
      ("translation", Printf.sprintf "tlb cpu0 asid=%d vpn=999" asid);
      ("translation", "rtlb cpu0 pfn=777");
    ];
  Alcotest.(check bool) "tlb entry left in place" true
    (Hw.Tlb.lookup cpu.Hw.Cpu.tlb ~asid ~vpn:999 <> None);
  Alcotest.(check bool) "rtlb entry left in place" true
    (Hw.Rtlb.lookup cpu.Hw.Cpu.rtlb ~pfn:777 <> None)

let test_quota_corruption () =
  let inst, _ = fig2_run () in
  let k = first_kernel inst in
  k.Kernel_obj.consumed.(0) <- -100;
  detects "negative quota consumption" inst [ ("quota", oid_field k.Kernel_obj.oid "consumed[0]") ]

(* -- the engine does not audit -- *)

let test_corruption_survives_chaos_run () =
  (* drift the lock ledger, then run under chaos: the run neither repairs
     nor hides the drift, so the audit after it still reports it *)
  let config =
    {
      Config.default with
      Config.chaos = Some { Config.chaos_default with Config.forward_drop = 0.5 };
    }
  in
  let inst, _ = fig2_setup ~config () in
  let k = first_kernel inst in
  k.Kernel_obj.locked_count <- k.Kernel_obj.locked_count + 1;
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "chaos injected something" true
    (counter inst "inject.fault.forward" > 0);
  Alcotest.(check int) "the engine ran no audit" 0 (counter inst "audit.runs");
  detects "drift across a chaos run" inst
    [ ("counter", oid_field k.Kernel_obj.oid "locked_count") ]

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
          Alcotest.test_case "locked orphan mapping" `Quick test_orphan_locked_mapping;
          Alcotest.test_case "conservation drift" `Quick test_conservation_drift;
          Alcotest.test_case "bogus page-table entry" `Quick test_bogus_page_table_entry;
          Alcotest.test_case "detached mapping pte" `Quick test_detached_mapping_pte;
          Alcotest.test_case "stale TLB and RTLB" `Quick test_stale_tlb_and_rtlb;
          Alcotest.test_case "quota corruption" `Quick test_quota_corruption;
          Alcotest.test_case "reported after a chaos run" `Quick
            test_corruption_survives_chaos_run;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "stuck handler escalates" `Quick test_watchdog_escalation;
          Alcotest.test_case "quiet on healthy runs" `Quick
            test_watchdog_quiet_on_healthy_runs;
        ] );
    ]
