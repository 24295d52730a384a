(* Cross-layer invariant auditor with self-healing repair.

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

   Checks never charge simulated cycles — auditing is observability, and
   instrumentation must not perturb the cost model (DESIGN.md section 7).
   Repairs reuse the ordinary writeback paths, which do charge: a repair
   only runs on a corrupted instance, where fidelity of the cost model has
   already been lost. *)

open Instance

type violation = {
  check : string; (* dependency | translation | counter | conservation | quota *)
  subject : string; (* the object or counter found inconsistent *)
  detail : string;
  repaired : bool;
}

type report = { at_us : float; violations : violation list }

let clean r = r.violations = []
let unrepaired r = List.filter (fun v -> not v.repaired) r.violations

let flag t acc ~check ~subject ~detail ~repaired =
  count t ("audit.violation." ^ check);
  trace t (Trace.Audit_violation { check; subject });
  if repaired then begin
    count t ("audit.repair." ^ check);
    trace t (Trace.Audit_repaired { check; subject })
  end;
  acc := { check; subject; detail; repaired } :: !acc

let oid_str o = Fmt.str "%a" Oid.pp o

(* -- (a) dependency chains (Figure 6) --

   Each class is listed fresh, immediately before it is processed: a
   repaired orphan space writes back its dependent threads and mappings
   through the ordinary dependency-ordered path, so they must not also be
   flagged from a stale snapshot. *)

(* Remove a mapping whose space is no longer resident.  The ordinary
   writeback path needs the space (page-table entry, tag); here only the
   translation caches, the mapping record and its lock are left to clean
   up. *)
let remove_orphan_mapping t (m : Mappings.m) =
  let vpn = Hw.Addr.page_of m.Mappings.va in
  let asid = m.Mappings.space.Oid.slot in
  Array.iter
    (fun cpu ->
      Hw.Tlb.flush_page cpu.Hw.Cpu.tlb ~asid ~vpn;
      Hw.Rtlb.flush_pfn cpu.Hw.Cpu.rtlb ~pfn:(Mappings.pfn m))
    t.node.Hw.Mpm.cpus;
  Mappings.remove t.mappings ~space_slot:asid m;
  Replacement.release_mapping_lock t m;
  Stats.unloaded t.stats.Stats.mappings ~written_back:true;
  push_writeback ~cost:0 t ~owner:m.Mappings.owner
    (Wb.Mapping_wb
       {
         space = m.Mappings.space;
         space_tag = -1;
         state = Replacement.mapping_state m;
         reason = Wb.Dependent;
       })

let check_dependency t ~repair acc =
  (* spaces whose owning kernel vanished *)
  Caches.Space_cache.fold t.spaces
    (fun l (sp : Space_obj.t) ->
      if find_kernel t sp.Space_obj.owner = None then sp :: l else l)
    []
  |> List.iter (fun (sp : Space_obj.t) ->
         let repaired =
           repair && Replacement.unload_space_now t ~reason:Wb.Dependent sp = `Done
         in
         flag t acc ~check:"dependency" ~subject:(oid_str sp.Space_obj.oid)
           ~detail:
             (Fmt.str "space owner kernel %a not resident" Oid.pp sp.Space_obj.owner)
           ~repaired);
  (* threads whose space or owning kernel vanished *)
  Caches.Thread_cache.fold t.threads
    (fun l (th : Thread_obj.t) ->
      if
        find_space t th.Thread_obj.space = None
        || find_kernel t th.Thread_obj.owner = None
      then th :: l
      else l)
    []
  |> List.iter (fun (th : Thread_obj.t) ->
         let repaired =
           repair
           &&
           (Replacement.unload_thread_now t ~reason:Wb.Dependent th;
            true)
         in
         flag t acc ~check:"dependency" ~subject:(oid_str th.Thread_obj.oid)
           ~detail:"thread space or owner kernel not resident" ~repaired);
  (* mappings whose space, owner kernel or signal thread vanished *)
  let orphans = ref [] in
  Mappings.iter t.mappings (fun m ->
      let space_dead = find_space t m.Mappings.space = None in
      let owner_dead = find_kernel t m.Mappings.owner = None in
      let signal_dead =
        match m.Mappings.signal_thread with
        | None -> false
        | Some th -> find_thread t th = None
      in
      if space_dead || owner_dead || signal_dead then
        orphans := (m, space_dead, owner_dead, signal_dead) :: !orphans);
  List.iter
    (fun ((m : Mappings.m), space_dead, owner_dead, signal_dead) ->
      let subject =
        Fmt.str "mapping %a/%a" Oid.pp m.Mappings.space Hw.Addr.pp_addr m.Mappings.va
      in
      if space_dead then
        let repaired =
          repair
          &&
          (remove_orphan_mapping t m;
           true)
        in
        flag t acc ~check:"dependency" ~subject ~detail:"mapping space not resident"
          ~repaired
      else if owner_dead then
        let repaired =
          repair
          &&
          match find_space t m.Mappings.space with
          | Some sp ->
            Replacement.writeback_mapping t ~reason:Wb.Dependent sp m;
            true
          | None -> false
        in
        flag t acc ~check:"dependency" ~subject
          ~detail:"mapping owner kernel not resident" ~repaired
      else if signal_dead then begin
        (* recoverable in place: drop the dangling signal binding *)
        let repaired =
          repair
          &&
          (Mappings.set_signal_thread t.mappings m None;
           Array.iter
             (fun cpu -> Hw.Rtlb.flush_pfn cpu.Hw.Cpu.rtlb ~pfn:(Mappings.pfn m))
             t.node.Hw.Mpm.cpus;
           true)
        in
        flag t acc ~check:"dependency" ~subject
          ~detail:"mapping signal thread not resident" ~repaired
      end)
    !orphans

(* -- (b) translation agreement: page table, TLB, reverse TLB -- *)

let check_translation t ~repair acc =
  (* every loaded mapping's pte must be the one installed in its space's
     page table (shared by reference, so [==] is the agreement test) *)
  let detached = ref [] in
  Mappings.iter t.mappings (fun m ->
      match find_space t m.Mappings.space with
      | None -> () (* the dependency check owns that violation *)
      | Some sp -> (
        match fst (Hw.Page_table.lookup sp.Space_obj.table m.Mappings.va) with
        | Some pte when pte == m.Mappings.pte -> ()
        | _ -> detached := (m, sp) :: !detached));
  List.iter
    (fun ((m : Mappings.m), (sp : Space_obj.t)) ->
      let repaired =
        repair
        &&
        (ignore (Hw.Page_table.insert sp.Space_obj.table m.Mappings.va m.Mappings.pte);
         true)
      in
      flag t acc ~check:"translation"
        ~subject:
          (Fmt.str "mapping %a/%a" Oid.pp m.Mappings.space Hw.Addr.pp_addr m.Mappings.va)
        ~detail:"page table disagrees with mapping cache" ~repaired)
    !detached;
  (* page-table entries with no backing mapping record *)
  Caches.Space_cache.iter t.spaces (fun (sp : Space_obj.t) ->
      let extras = ref [] in
      Hw.Page_table.iter sp.Space_obj.table (fun va pte ->
          match Mappings.find t.mappings ~space_slot:(Space_obj.asid sp) ~va with
          | Some m when m.Mappings.pte == pte -> ()
          | _ -> extras := (va, pte) :: !extras);
      List.iter
        (fun (va, (pte : Hw.Page_table.entry)) ->
          let repaired =
            repair
            &&
            (ignore (Hw.Page_table.remove sp.Space_obj.table va);
             Array.iter
               (fun cpu ->
                 Hw.Tlb.flush_page cpu.Hw.Cpu.tlb ~asid:(Space_obj.asid sp)
                   ~vpn:(Hw.Addr.page_of va))
               t.node.Hw.Mpm.cpus;
             true)
          in
          flag t acc ~check:"translation"
            ~subject:(Fmt.str "pte %a/%a" Oid.pp sp.Space_obj.oid Hw.Addr.pp_addr va)
            ~detail:
              (Fmt.str "page table maps pfn %d with no mapping record"
                 pte.Hw.Page_table.frame)
            ~repaired)
        !extras);
  (* TLB entries must translate exactly what the mapping cache says *)
  Array.iteri
    (fun cpu_id (cpu : Hw.Cpu.t) ->
      let stale = ref [] in
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
          if not ok then stale := e :: !stale);
      List.iter
        (fun (e : Hw.Tlb.entry) ->
          let repaired =
            repair
            &&
            (Hw.Tlb.flush_page cpu.Hw.Cpu.tlb ~asid:e.Hw.Tlb.asid ~vpn:e.Hw.Tlb.vpn;
             true)
          in
          flag t acc ~check:"translation"
            ~subject:(Fmt.str "tlb cpu%d asid=%d vpn=%d" cpu_id e.Hw.Tlb.asid e.Hw.Tlb.vpn)
            ~detail:"stale TLB translation" ~repaired)
        !stale)
    t.node.Hw.Mpm.cpus;
  (* reverse-TLB entries must still validate against the thread cache and
     the signal records ({!Signals.validated_rtlb_hit} without the lazy
     flush the delivery path would do) *)
  Array.iteri
    (fun cpu_id (cpu : Hw.Cpu.t) ->
      let stale = ref [] in
      Hw.Rtlb.iter cpu.Hw.Cpu.rtlb (fun (e : Hw.Rtlb.entry) ->
          match Signals.validated_rtlb_hit t ~pfn:e.Hw.Rtlb.pfn ~tag:e.Hw.Rtlb.tag with
          | Some _ -> ()
          | None -> stale := e :: !stale);
      List.iter
        (fun (e : Hw.Rtlb.entry) ->
          let repaired =
            repair
            &&
            (Hw.Rtlb.flush_pfn cpu.Hw.Cpu.rtlb ~pfn:e.Hw.Rtlb.pfn;
             true)
          in
          flag t acc ~check:"translation"
            ~subject:(Fmt.str "rtlb cpu%d pfn=%d" cpu_id e.Hw.Rtlb.pfn)
            ~detail:"stale reverse-TLB entry" ~repaired)
        !stale)
    t.node.Hw.Mpm.cpus

(* -- (c) derived counters vs ground-truth recounts -- *)

let check_counters t ~repair acc =
  Caches.Space_cache.iter t.spaces (fun (sp : Space_obj.t) ->
      let mappings =
        List.length (Mappings.of_space t.mappings ~space_slot:(Space_obj.asid sp))
      in
      if sp.Space_obj.mapping_count <> mappings then begin
        let detail =
          Fmt.str "recorded %d, recounted %d" sp.Space_obj.mapping_count mappings
        in
        let repaired =
          repair
          &&
          (sp.Space_obj.mapping_count <- mappings;
           true)
        in
        flag t acc ~check:"counter"
          ~subject:(Fmt.str "%a.mapping_count" Oid.pp sp.Space_obj.oid)
          ~detail ~repaired
      end;
      let threads =
        Caches.Thread_cache.fold t.threads
          (fun n (th : Thread_obj.t) ->
            if Oid.equal th.Thread_obj.space sp.Space_obj.oid then n + 1 else n)
          0
      in
      if sp.Space_obj.thread_count <> threads then begin
        let detail =
          Fmt.str "recorded %d, recounted %d" sp.Space_obj.thread_count threads
        in
        let repaired =
          repair
          &&
          (sp.Space_obj.thread_count <- threads;
           true)
        in
        flag t acc ~check:"counter"
          ~subject:(Fmt.str "%a.thread_count" Oid.pp sp.Space_obj.oid)
          ~detail ~repaired
      end);
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
      if k.Kernel_obj.locked_count <> locked then begin
        let detail =
          Fmt.str "recorded %d, recounted %d" k.Kernel_obj.locked_count locked
        in
        let repaired =
          repair
          &&
          (k.Kernel_obj.locked_count <- locked;
           true)
        in
        flag t acc ~check:"counter"
          ~subject:(Fmt.str "%a.locked_count" Oid.pp k.Kernel_obj.oid)
          ~detail ~repaired
      end)

(* -- (e) writeback-channel conservation -- *)

let check_conservation t ~repair acc =
  let one name (c : Stats.counter) ~live =
    if c.Stats.loads - c.Stats.unloads - c.Stats.discarded <> live then begin
      let detail =
        Fmt.str "loads=%d unloads=%d discarded=%d resident=%d" c.Stats.loads
          c.Stats.unloads c.Stats.discarded live
      in
      let repaired =
        repair
        &&
        (c.Stats.unloads <- max 0 (c.Stats.loads - c.Stats.discarded - live);
         true)
      in
      flag t acc ~check:"conservation" ~subject:name ~detail ~repaired
    end
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

let check_quota t ~repair acc =
  let elapsed = Hw.Mpm.now t.node - t.quota_epoch_start in
  let cap = (22 * elapsed / 10) + (3 * Config.time_slice) in
  Caches.Kernel_cache.iter t.kernels (fun (k : Kernel_obj.t) ->
      Array.iteri
        (fun cpu c ->
          if c < 0 || c > cap then begin
            let repaired =
              repair
              &&
              (k.Kernel_obj.consumed.(cpu) <- max 0 (min c cap);
               true)
            in
            flag t acc ~check:"quota"
              ~subject:(Fmt.str "%a.consumed[%d]" Oid.pp k.Kernel_obj.oid cpu)
              ~detail:(Fmt.str "consumed %d cycles of a %d-cycle envelope" c cap)
              ~repaired
          end)
        k.Kernel_obj.consumed)

let run ?(repair = false) t =
  count t "audit.runs";
  let acc = ref [] in
  check_dependency t ~repair acc;
  check_translation t ~repair acc;
  check_counters t ~repair acc;
  check_conservation t ~repair acc;
  check_quota t ~repair acc;
  { at_us = Hw.Cost.us_of_cycles (Hw.Mpm.now t.node); violations = List.rev !acc }

let violation_json v =
  Json.Obj
    [
      ("check", Json.String v.check);
      ("subject", Json.String v.subject);
      ("detail", Json.String v.detail);
      ("repaired", Json.Bool v.repaired);
    ]

let report_json r =
  Json.Obj
    [
      ("at_us", Json.Float r.at_us);
      ("total", Json.Int (List.length r.violations));
      ("unrepaired", Json.Int (List.length (unrepaired r)));
      ("violations", Json.List (List.map violation_json r.violations));
    ]

let pp_report ppf r =
  if clean r then Fmt.pf ppf "audit @ %.1fus: clean@." r.at_us
  else begin
    Fmt.pf ppf "audit @ %.1fus: %d violation(s), %d unrepaired@." r.at_us
      (List.length r.violations)
      (List.length (unrepaired r));
    List.iter
      (fun v ->
        Fmt.pf ppf "  [%s] %s: %s%s@." v.check v.subject v.detail
          (if v.repaired then " (repaired)" else ""))
      r.violations
  end
