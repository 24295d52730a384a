(* Cross-layer invariant auditor.

   The paper's safety argument rests on dependency-ordered replacement
   (section 4.2, Figure 6); the fault plane perturbs the system, and this
   module checks that the caches and MMU state stay mutually consistent
   afterwards.  It walks one Cache Kernel instance and checks

   - dependency: every loaded object's dependency chain is resident
     (mapping -> space -> kernel, mapping -> signal thread, thread ->
     space/kernel);
   - translation: page-table, TLB and reverse-TLB entries agree with the
     mapping cache — no stale translations survive a writeback/shootdown;
   - counter: derived counters ([mapping_count], [thread_count],
     [locked_count]) equal recounts from ground truth;
   - conservation: per object type, loads = unloads + discarded + resident
     (the writeback channel loses nothing);
   - quota: per-kernel consumed cycles stay within the premium-charging
     envelope of the current epoch.

   The SRM ledger and the tiered store's residency keep one record each
   (the live grants; the fast-tier image table), so there is nothing of
   theirs to recount here.

   The auditor only reports.  It changes no object, so a second audit
   reports the same violations, and it never charges simulated cycles:
   auditing is observability, and instrumentation must not perturb the
   cost model (DESIGN.md section 7). *)

open Instance

type violation = {
  check : string; (* dependency | translation | counter | conservation | quota *)
  subject : string; (* the object or counter found inconsistent *)
  detail : string;
}

type report = { at_us : float; violations : violation list }

let clean r = r.violations = []

let flag t acc ~check ~subject ~detail =
  count t ("audit.violation." ^ check);
  trace t (Trace.Audit_violation { check; subject });
  acc := { check; subject; detail } :: !acc

let oid_str o = Fmt.str "%a" Oid.pp o

(* -- (a) dependency chains (Figure 6) -- *)

let mapping_str (m : Mappings.m) =
  Fmt.str "mapping %a/%a" Oid.pp m.Mappings.space Hw.Addr.pp_addr m.Mappings.va

let check_dependency t acc =
  Caches.Space_cache.iter t.spaces (fun (sp : Space_obj.t) ->
      if find_kernel t sp.Space_obj.owner = None then
        flag t acc ~check:"dependency" ~subject:(oid_str sp.Space_obj.oid)
          ~detail:(Fmt.str "space owner kernel %a not resident" Oid.pp sp.Space_obj.owner));
  Caches.Thread_cache.iter t.threads (fun (th : Thread_obj.t) ->
      if
        find_space t th.Thread_obj.space = None || find_kernel t th.Thread_obj.owner = None
      then
        flag t acc ~check:"dependency" ~subject:(oid_str th.Thread_obj.oid)
          ~detail:"thread space or owner kernel not resident");
  Mappings.iter t.mappings (fun m ->
      let detail =
        if find_space t m.Mappings.space = None then Some "mapping space not resident"
        else if find_kernel t m.Mappings.owner = None then
          Some "mapping owner kernel not resident"
        else
          match m.Mappings.signal_thread with
          | Some th when find_thread t th = None -> Some "mapping signal thread not resident"
          | _ -> None
      in
      Option.iter
        (fun detail -> flag t acc ~check:"dependency" ~subject:(mapping_str m) ~detail)
        detail)

(* -- (b) translation agreement: page table, TLB, reverse TLB -- *)

let check_translation t acc =
  let node_cpus = t.node.Hw.Mpm.cpus in
  (* every loaded mapping's pte must be the one installed in its space's
     page table (shared by reference, so [==] is the agreement test) *)
  Mappings.iter t.mappings (fun m ->
      match find_space t m.Mappings.space with
      | None -> () (* the dependency check owns that violation *)
      | Some sp -> (
        match fst (Hw.Page_table.lookup sp.Space_obj.table m.Mappings.va) with
        | Some pte when pte == m.Mappings.pte -> ()
        | _ ->
          flag t acc ~check:"translation" ~subject:(mapping_str m)
            ~detail:"page table disagrees with mapping cache"));
  (* page-table entries with no backing mapping record *)
  Caches.Space_cache.iter t.spaces (fun (sp : Space_obj.t) ->
      Hw.Page_table.iter sp.Space_obj.table (fun va (pte : Hw.Page_table.entry) ->
          match Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va with
          | Some m when m.Mappings.pte == pte -> ()
          | _ ->
            flag t acc ~check:"translation"
              ~subject:(Fmt.str "pte %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr va)
              ~detail:
                (Fmt.str "page table maps pfn %d with no mapping record"
                   pte.Hw.Page_table.frame)));
  (* TLB entries must translate exactly what the mapping cache says *)
  Array.iteri
    (fun cpu_id (cpu : Hw.Cpu.t) ->
      Hw.Tlb.iter cpu.Hw.Cpu.tlb (fun (e : Hw.Tlb.entry) ->
          let ok =
            Caches.Space_cache.get t.spaces ~slot:e.Hw.Tlb.asid <> None
            &&
            match
              Mappings.find t.mappings ~space_slot:e.Hw.Tlb.asid
                ~va:(e.Hw.Tlb.vpn * Hw.Addr.page_size)
            with
            | Some m -> m.Mappings.pte == e.Hw.Tlb.pte
            | None -> false
          in
          if not ok then
            flag t acc ~check:"translation"
              ~subject:(Fmt.str "tlb cpu%d asid=%d vpn=%d" cpu_id e.Hw.Tlb.asid e.Hw.Tlb.vpn)
              ~detail:"stale TLB translation"))
    node_cpus;
  (* reverse-TLB entries must still validate against the thread cache and
     the signal records ({!Signals.validated_rtlb_hit} without the lazy
     flush the delivery path would do) *)
  Array.iteri
    (fun cpu_id (cpu : Hw.Cpu.t) ->
      Hw.Rtlb.iter cpu.Hw.Cpu.rtlb (fun (e : Hw.Rtlb.entry) ->
          if Signals.validated_rtlb_hit t ~pfn:e.Hw.Rtlb.pfn ~tag:e.Hw.Rtlb.tag = None then
            flag t acc ~check:"translation"
              ~subject:(Fmt.str "rtlb cpu%d pfn=%d" cpu_id e.Hw.Rtlb.pfn)
              ~detail:"stale reverse-TLB entry"))
    node_cpus

(* -- (c) derived counters vs ground-truth recounts -- *)

let check_counters t acc =
  let drift ~subject recorded recounted =
    if recorded <> recounted then
      flag t acc ~check:"counter" ~subject
        ~detail:(Fmt.str "recorded %d, recounted %d" recorded recounted)
  in
  Caches.Space_cache.iter t.spaces (fun (sp : Space_obj.t) ->
      drift
        ~subject:(Fmt.str "%a.mapping_count" Oid.pp sp.Space_obj.oid)
        sp.Space_obj.mapping_count
        (List.length (Mappings.of_space t.mappings ~space_slot:(Space_obj.asid sp)));
      drift
        ~subject:(Fmt.str "%a.thread_count" Oid.pp sp.Space_obj.oid)
        sp.Space_obj.thread_count
        (Caches.Thread_cache.fold t.threads
           (fun n (th : Thread_obj.t) ->
             if Oid.equal th.Thread_obj.space sp.Space_obj.oid then n + 1 else n)
           0));
  Caches.Kernel_cache.iter t.kernels (fun (k : Kernel_obj.t) ->
      let mine (owner : Oid.t) locked = locked && Oid.equal owner k.Kernel_obj.oid in
      let locked =
        Caches.Space_cache.fold t.spaces
          (fun n (sp : Space_obj.t) ->
            if mine sp.Space_obj.owner sp.Space_obj.locked then n + 1 else n)
          0
        + Caches.Thread_cache.fold t.threads
            (fun n (th : Thread_obj.t) ->
              if mine th.Thread_obj.owner th.Thread_obj.locked then n + 1 else n)
            0
        +
        let n = ref 0 in
        Mappings.iter t.mappings (fun m ->
            if mine m.Mappings.owner m.Mappings.locked then incr n);
        !n
      in
      drift
        ~subject:(Fmt.str "%a.locked_count" Oid.pp k.Kernel_obj.oid)
        k.Kernel_obj.locked_count locked)

(* -- (e) writeback-channel conservation -- *)

let check_conservation t acc =
  let one name (c : Stats.counter) ~live =
    if c.Stats.loads - c.Stats.unloads - c.Stats.discarded <> live then
      flag t acc ~check:"conservation" ~subject:name
        ~detail:
          (Fmt.str "loads=%d unloads=%d discarded=%d resident=%d" c.Stats.loads
             c.Stats.unloads c.Stats.discarded live)
  in
  one "kernels" t.stats.Stats.kernels ~live:(Caches.Kernel_cache.live t.kernels);
  one "spaces" t.stats.Stats.spaces ~live:(Caches.Space_cache.live t.spaces);
  one "threads" t.stats.Stats.threads ~live:(Caches.Thread_cache.live t.threads);
  one "mappings" t.stats.Stats.mappings ~live:(Mappings.live t.mappings)

(* -- (d) quota consumption sanity --

   Premium charging (section 4.3) weights consumption by at most 220%, so
   within one accounting epoch no kernel can have consumed more than
   2.2 x elapsed plus a few scheduling quanta of slack per CPU; negative
   consumption is impossible by construction. *)

let check_quota t acc =
  let elapsed = Hw.Mpm.now t.node - t.quota_epoch_start in
  let cap = (22 * elapsed / 10) + (3 * Config.time_slice) in
  Caches.Kernel_cache.iter t.kernels (fun (k : Kernel_obj.t) ->
      Array.iteri
        (fun cpu c ->
          if c < 0 || c > cap then
            flag t acc ~check:"quota"
              ~subject:(Fmt.str "%a.consumed[%d]" Oid.pp k.Kernel_obj.oid cpu)
              ~detail:(Fmt.str "consumed %d cycles of a %d-cycle envelope" c cap))
        k.Kernel_obj.consumed)

let run t =
  count t "audit.runs";
  let acc = ref [] in
  check_dependency t acc;
  check_translation t acc;
  check_counters t acc;
  check_conservation t acc;
  check_quota t acc;
  { at_us = Hw.Cost.us_of_cycles (Hw.Mpm.now t.node); violations = List.rev !acc }

let violation_json v =
  Json.Obj
    [
      ("check", Json.String v.check);
      ("subject", Json.String v.subject);
      ("detail", Json.String v.detail);
    ]

let report_json r =
  Json.Obj
    [
      ("at_us", Json.Float r.at_us);
      ("total", Json.Int (List.length r.violations));
      ("violations", Json.List (List.map violation_json r.violations));
    ]

let pp_report ppf r =
  if clean r then Fmt.pf ppf "audit @ %.1fus: clean@." r.at_us
  else begin
    Fmt.pf ppf "audit @ %.1fus: %d violation(s)@." r.at_us (List.length r.violations);
    List.iter
      (fun v -> Fmt.pf ppf "  [%s] %s: %s@." v.check v.subject v.detail)
      r.violations
  end
