(* Cache Kernel unit and property tests: identifiers, slot caches, the
   mapping cache, replacement ordering (Figure 6), locking semantics,
   permission checks, multi-mapping consistency, scheduling and quotas. *)

open Cachekernel

let qcheck = QCheck_alcotest.to_alcotest

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let err expected = function
  | Ok _ -> Alcotest.failf "expected %a" Api.pp_error expected
  | Error e ->
    if e <> expected then Alcotest.failf "expected %a, got %a" Api.pp_error expected
        Api.pp_error e

let small_config =
  {
    Config.default with
    Config.kernel_cache = 4;
    space_cache = 6;
    thread_cache = 8;
    mapping_cache = 16;
  }

let make ?(config = small_config) ?(cpus = 2) () =
  let inst =
    Instance.create ~config (Hw.Mpm.create ~node_id:0 ~cpus ~mem_size:(16 * 1024 * 1024) ())
  in
  let spec =
    {
      Kernel_obj.name = "first";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = Array.make cpus 100;
      max_priority = 31;
      max_locked = 6;
    }
  in
  let first = ok (Api.boot inst spec) in
  (inst, first)

let null_spec ?(max_locked = 4) inst name =
  {
    Kernel_obj.name;
    handlers = Kernel_obj.null_handlers;
    cpu_percent = Array.make (Instance.n_cpus inst) 50;
    max_priority = 16;
    max_locked;
  }

let idle_body () = Hw.Exec.Unit_payload

(* -- Object identifiers: stale references -- *)

let test_stale_identifiers () =
  let inst, first = make () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  ok (Api.unload_space inst ~caller:first sp);
  err Api.Stale_reference (Api.unload_space inst ~caller:first sp);
  (* reloading reuses the slot but with a fresh generation *)
  let sp2 = ok (Api.load_space inst ~caller:first ~tag:2 ()) in
  Alcotest.(check bool) "new identifier differs" false (Oid.equal sp sp2);
  (* loading a thread against the stale space identifier fails; the
     application kernel retries with the fresh one (section 2) *)
  err Api.Stale_reference
    (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:1
       ~start:(Thread_obj.Fresh idle_body) ());
  ignore
    (ok
       (Api.load_thread inst ~caller:first ~space:sp2 ~priority:4 ~tag:1
          ~start:(Thread_obj.Fresh idle_body) ()))

(* -- Replacement: no hard errors, generation invalidation -- *)

let test_space_replacement () =
  let inst, first = make () in
  (* fill beyond capacity: every load succeeds, old spaces written back *)
  let oids = List.init 12 (fun i -> ok (Api.load_space inst ~caller:first ~tag:i ())) in
  Alcotest.(check int) "all 12 loaded over capacity 6" 12 (List.length oids);
  let live = List.filter (fun o -> Instance.find_space inst o <> None) oids in
  Alcotest.(check bool) "early ones displaced" true (List.length live < 12);
  let k = Option.get (Instance.find_kernel inst first) in
  let wb = Queue.fold (fun acc _ -> acc + 1) 0 k.Kernel_obj.writebacks in
  Alcotest.(check bool) "writeback records delivered" true (wb >= 6)

(* -- Figure 6: dependency-ordered unload -- *)

let test_dependency_cascade () =
  let inst, first = make () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let th =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:1
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:0x40000000 ~pfn:64 ~signal_thread:th ()));
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:0x40001000 ~pfn:65 ()));
  (* unloading the space must first write back its threads and mappings *)
  ok (Api.unload_space inst ~caller:first sp);
  Alcotest.(check bool) "thread gone" true (Instance.find_thread inst th = None);
  Alcotest.(check int) "no mappings left" 0 (Mappings.live inst.Instance.mappings);
  let k = Option.get (Instance.find_kernel inst first) in
  let kinds =
    Queue.fold
      (fun acc r ->
        match r with
        | Wb.Mapping_wb _ -> `M :: acc
        | Wb.Thread_wb _ -> `T :: acc
        | Wb.Space_wb _ -> `S :: acc
        | Wb.Kernel_wb _ -> `K :: acc)
      [] k.Kernel_obj.writebacks
  in
  (* the space record must be written back after its dependents *)
  Alcotest.(check bool) "space writeback is last" true (List.hd kinds = `S);
  Alcotest.(check int) "two mappings written back" 2
    (List.length (List.filter (( = ) `M) kinds));
  Alcotest.(check int) "one thread written back" 1
    (List.length (List.filter (( = ) `T) kinds))

let test_signal_mapping_depends_on_thread () =
  let inst, first = make () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let th =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:1
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:0x40000000 ~pfn:64 ~signal_thread:th ()));
  Alcotest.(check int) "mapping loaded" 1 (Mappings.live inst.Instance.mappings);
  (* unloading the signal thread unloads the signal mapping (Figure 6) *)
  ok (Api.unload_thread inst ~caller:first th);
  Alcotest.(check int) "signal mapping unloaded with thread" 0
    (Mappings.live inst.Instance.mappings)

(* -- Multi-mapping consistency (section 4.2) -- *)

let test_multi_mapping_consistency () =
  let inst, first = make () in
  let sp_tx = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let sp_rx = ok (Api.load_space inst ~caller:first ~tag:2 ()) in
  let th =
    ok
      (Api.load_thread inst ~caller:first ~space:sp_rx ~priority:4 ~tag:1
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  (* sender: writable message-mode mapping; receiver: signal mapping *)
  ok
    (Api.load_mapping inst ~caller:first ~space:sp_tx
       (Api.mapping ~va:0x50000000 ~pfn:64 ~flags:Hw.Page_table.message ()));
  ok
    (Api.load_mapping inst ~caller:first ~space:sp_rx
       (Api.mapping ~va:0x60000000 ~pfn:64 ~flags:Hw.Page_table.ro ~signal_thread:th ()));
  Alcotest.(check int) "both loaded" 2 (Mappings.live inst.Instance.mappings);
  (* unloading the receiver's signal mapping must flush the sender's
     writable mapping of the same page *)
  ok (Api.unload_mapping inst ~caller:first ~space:sp_rx ~va:0x60000000);
  Alcotest.(check int) "writable sibling flushed too" 0
    (Mappings.live inst.Instance.mappings);
  Alcotest.(check bool) "consistency flush counted" true
    (inst.Instance.stats.Stats.consistency_flushes >= 1)

(* -- Locking -- *)

let test_locking () =
  let inst, first = make () in
  (* locked spaces survive replacement pressure *)
  let locked_sp = ok (Api.load_space inst ~caller:first ~lock:true ~tag:0 ()) in
  for i = 1 to 12 do
    ignore (ok (Api.load_space inst ~caller:first ~tag:i ()))
  done;
  Alcotest.(check bool) "locked space still loaded" true
    (Instance.find_space inst locked_sp <> None);
  (* the locked-object quota is enforced *)
  let k2 = ok (Api.load_kernel inst ~caller:first (null_spec ~max_locked:1 inst "k2")) in
  let sp_a = ok (Api.load_space inst ~caller:k2 ~lock:true ~tag:100 ()) in
  ignore sp_a;
  err Api.Limit_exceeded (Api.load_space inst ~caller:k2 ~lock:true ~tag:101 ());
  (* unlock frees quota *)
  ok (Api.unlock_object inst ~caller:k2 sp_a);
  ignore (ok (Api.load_space inst ~caller:k2 ~lock:true ~tag:102 ()))

let test_locked_mapping_chain () =
  let inst, first = make () in
  (* "a locked mapping can be reclaimed unless its address space, its
     kernel object and its signal thread (if any) are locked" *)
  let sp = ok (Api.load_space inst ~caller:first ~lock:true ~tag:1 ()) in
  ok (Api.lock_object inst ~caller:first first);
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:0x40000000 ~pfn:64 ~lock:true ()));
  (* fill the mapping cache; the fully locked chain must survive *)
  for i = 1 to 2 * small_config.Config.mapping_cache do
    ignore
      (Api.load_mapping inst ~caller:first ~space:sp
         (Api.mapping ~va:(0x50000000 + (i * 4096)) ~pfn:(64 + i) ()))
  done;
  Alcotest.(check bool) "locked chain survived" true
    (Mappings.find inst.Instance.mappings
       ~space_slot:(Space_obj.asid (Option.get (Instance.find_space inst sp)))
       ~va:0x40000000
    <> None)

(* -- Permissions and resource checks -- *)

let test_permissions () =
  let inst, first = make () in
  let k2 = ok (Api.load_kernel inst ~caller:first (null_spec inst "k2")) in
  let sp2 = ok (Api.load_space inst ~caller:k2 ~tag:1 ()) in
  (* another kernel cannot unload or map into k2's space *)
  let k3 = ok (Api.load_kernel inst ~caller:first (null_spec inst "k3")) in
  err Api.Permission (Api.unload_space inst ~caller:k3 sp2);
  err Api.Permission
    (Api.load_mapping inst ~caller:k3 ~space:sp2 (Api.mapping ~va:0x40000000 ~pfn:64 ()));
  (* only the first kernel performs kernel-object operations *)
  err Api.Permission (Api.load_kernel inst ~caller:k2 (null_spec inst "nope"));
  err Api.Permission (Api.set_max_priority inst ~caller:k2 ~kernel:k2 31);
  (* priority cap: k2's max is 16 *)
  err Api.Limit_exceeded
    (Api.load_thread inst ~caller:k2 ~space:sp2 ~priority:20 ~tag:1
       ~start:(Thread_obj.Fresh idle_body) ());
  (* first kernel can act on other kernels' objects *)
  ok (Api.unload_space inst ~caller:first sp2)

let test_memory_access_array () =
  let inst, first = make () in
  let k2 = ok (Api.load_kernel inst ~caller:first (null_spec inst "k2")) in
  let sp = ok (Api.load_space inst ~caller:k2 ~tag:1 ()) in
  (* no grant yet: mapping denied *)
  err Api.No_access
    (Api.load_mapping inst ~caller:k2 ~space:sp (Api.mapping ~va:0x40000000 ~pfn:0 ()));
  (* grant group 0 read-write: pages 0-127 become mappable *)
  ok (Api.set_mem_access inst ~caller:first ~kernel:k2 ~group:0 Kernel_obj.Read_write);
  ok (Api.load_mapping inst ~caller:k2 ~space:sp (Api.mapping ~va:0x40000000 ~pfn:0 ()));
  (* pages of other groups still out of bounds *)
  err Api.No_access
    (Api.load_mapping inst ~caller:k2 ~space:sp (Api.mapping ~va:0x40001000 ~pfn:300 ()));
  (* read-only grant refuses writable mappings but allows read-only ones *)
  ok (Api.set_mem_access inst ~caller:first ~kernel:k2 ~group:2 Kernel_obj.Read_only);
  err Api.No_access
    (Api.load_mapping inst ~caller:k2 ~space:sp (Api.mapping ~va:0x40002000 ~pfn:256 ()));
  ok
    (Api.load_mapping inst ~caller:k2 ~space:sp
       (Api.mapping ~va:0x40002000 ~pfn:256 ~flags:Hw.Page_table.ro ()))

(* -- Scheduler -- *)

let test_scheduler_priorities () =
  let sched = Scheduler.create ~priorities:8 in
  let mk p tag = Oid.v ~kind:Oid.Thread ~slot:tag ~gen:p in
  Scheduler.enqueue sched ~priority:2 (mk 2 1);
  Scheduler.enqueue sched ~priority:5 (mk 5 2);
  Scheduler.enqueue sched ~priority:5 (mk 5 3);
  let resolve oid = Some oid in
  let eligible _ _ = true in
  (match Scheduler.pick sched ~resolve ~eligible with
  | Some (oid, _) -> Alcotest.(check int) "highest first" 2 oid.Oid.slot
  | None -> Alcotest.fail "empty");
  (match Scheduler.pick sched ~resolve ~eligible with
  | Some (oid, _) -> Alcotest.(check int) "fifo within priority" 3 oid.Oid.slot
  | None -> Alcotest.fail "empty");
  (* stale entries are dropped silently *)
  Scheduler.enqueue sched ~priority:7 (mk 7 9);
  let resolve_none _ = None in
  Alcotest.(check bool) "stale dropped" true
    (Scheduler.pick sched ~resolve:resolve_none ~eligible = None)

(* -- Quota -- *)

let test_quota_premium () =
  Alcotest.(check bool) "premium above base" true
    (Quota.premium_percent ~priority:20 > 100);
  Alcotest.(check bool) "discount below base" true
    (Quota.premium_percent ~priority:2 < 100);
  Alcotest.(check int) "flat at base" 100 (Quota.premium_percent ~priority:Quota.base_priority)

let test_quota_demotion () =
  let inst, first = make ~cpus:1 () in
  let k = Option.get (Instance.find_kernel inst first) in
  (* kernels at 100% are never demoted *)
  let over =
    Quota.charge k ~cpu:0 ~priority:8 ~cycles:1_000_000 ~elapsed:1_000_000 ~grace:0
  in
  Alcotest.(check bool) "100%% kernel never demoted" false over;
  let k2d = Kernel_obj.create ~n_cpus:1 ~n_groups:4 (null_spec inst "k2") in
  let over = Quota.charge k2d ~cpu:0 ~priority:8 ~cycles:900_000 ~elapsed:1_000_000 ~grace:0 in
  Alcotest.(check bool) "50%% kernel demoted at 90%% use" true over;
  Alcotest.(check bool) "flag set" true k2d.Kernel_obj.demoted.(0);
  Quota.reset_epoch k2d;
  Alcotest.(check bool) "epoch reset lifts demotion" false k2d.Kernel_obj.demoted.(0)

(* -- Signal redirection (section 2.3) -- *)

let test_signal_redirection () =
  let inst, first = make () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let t1 =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:1
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  let t2 =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:2
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:0x40000000 ~pfn:64 ~signal_thread:t1 ()));
  (* redirect the page's signals to t2, then unload t1: the mapping now
     depends on t2 and survives *)
  ok (Api.redirect_signal inst ~caller:first ~space:sp ~va:0x40000000 ~thread:(Some t2));
  ok (Api.unload_thread inst ~caller:first t1);
  Alcotest.(check int) "mapping survived t1 unload" 1 (Mappings.live inst.Instance.mappings);
  ok (Api.unload_thread inst ~caller:first t2);
  Alcotest.(check int) "unloading t2 takes the mapping" 0
    (Mappings.live inst.Instance.mappings)

(* -- Properties -- *)

let prop_slot_cache_generation =
  QCheck.Test.make ~name:"slot cache: unload invalidates exactly that generation"
    ~count:50
    QCheck.(int_bound 20)
    (fun n ->
      let inst, first =
        let config = { small_config with Config.space_cache = 64 } in
        make ~config ()
      in
      let oids = List.init (n + 1) (fun i -> ok (Api.load_space inst ~caller:first ~tag:i ())) in
      List.for_all (fun o -> Instance.find_space inst o <> None) oids
      &&
      (List.iter (fun o -> ok (Api.unload_space inst ~caller:first o)) oids;
       List.for_all (fun o -> Instance.find_space inst o = None) oids))

let prop_mapping_records =
  QCheck.Test.make ~name:"mappings: dependency-record count tracks live contents"
    ~count:50
    QCheck.(small_list (pair (int_bound 200) bool))
    (fun pages ->
      let inst, first =
        make ~config:{ small_config with Config.mapping_cache = 512; space_cache = 8 } ()
      in
      let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
      let th =
        ok
          (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:1
             ~start:(Thread_obj.Fresh idle_body) ())
      in
      let uniq =
        List.sort_uniq compare (List.map (fun (p, s) -> (p land 0xFF, s)) pages)
      in
      let uniq =
        (* one entry per page *)
        List.fold_left
          (fun acc (p, s) -> if List.mem_assoc p acc then acc else (p, s) :: acc)
          [] uniq
      in
      List.iter
        (fun (p, signal) ->
          let signal_thread = if signal then Some th else None in
          ignore
            (Api.load_mapping inst ~caller:first ~space:sp
               (Api.mapping ~va:(0x40000000 + (p * 4096)) ~pfn:(256 + p) ?signal_thread ())))
        uniq;
      let expected =
        List.fold_left (fun acc (_, s) -> acc + 1 + if s then 1 else 0) 0 uniq
      in
      Mappings.live inst.Instance.mappings = List.length uniq
      && Mappings.dependency_records inst.Instance.mappings = expected)

(* Cache capacities are replacement bounds, not up-front allocations: a
   node with the default 65536-entry mapping cache costs well under a
   megabyte to create, and still reports the configured bound. *)
let test_create_allocates_on_use () =
  let node = Hw.Mpm.create ~node_id:0 ~cpus:2 ~mem_size:(16 * 1024 * 1024) () in
  let before = Gc.allocated_bytes () in
  let inst = Instance.create ~config:Config.default node in
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= 1024.0 *. 1024.0 then
    Alcotest.failf "Instance.create allocated %.0f bytes (bound: 1 MB)" allocated;
  Alcotest.(check int) "mapping capacity is the configured bound"
    Config.default.Config.mapping_cache (Mappings.capacity inst.Instance.mappings);
  Alcotest.(check bool) "an empty cache is not full" false
    (Mappings.is_full inst.Instance.mappings)

let () =
  Alcotest.run "cachekernel"
    [
      ( "identifiers",
        [
          Alcotest.test_case "stale references fail and retry" `Quick test_stale_identifiers;
          qcheck prop_slot_cache_generation;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "no hard errors past capacity" `Quick test_space_replacement;
          Alcotest.test_case "storage is allocated on use" `Quick test_create_allocates_on_use;
          Alcotest.test_case "dependency cascade (Figure 6)" `Quick test_dependency_cascade;
          Alcotest.test_case "signal mapping depends on thread" `Quick
            test_signal_mapping_depends_on_thread;
          Alcotest.test_case "multi-mapping consistency" `Quick
            test_multi_mapping_consistency;
        ] );
      ( "locking",
        [
          Alcotest.test_case "lock quota and survival" `Quick test_locking;
          Alcotest.test_case "locked mapping needs locked chain" `Quick
            test_locked_mapping_chain;
        ] );
      ( "protection",
        [
          Alcotest.test_case "ownership and first-kernel rights" `Quick test_permissions;
          Alcotest.test_case "page-group access array" `Quick test_memory_access_array;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "priorities and staleness" `Quick test_scheduler_priorities ] );
      ( "quota",
        [
          Alcotest.test_case "premium charging" `Quick test_quota_premium;
          Alcotest.test_case "demotion and epoch reset" `Quick test_quota_demotion;
        ] );
      ( "signals",
        [
          Alcotest.test_case "redirection rebinding" `Quick test_signal_redirection;
          qcheck prop_mapping_records;
        ] );
    ]
