(* Fault injection and recovery tests.

   - a qcheck state-machine test: random load/unload sequences against a
     pure reference model of the object caches, with stale-identifier
     injection enabled, asserting generation-tag monotonicity, stale-id
     rejection and dependency-ordered replacement survive injected failures
   - deterministic replay: same seed + same injection plan => identical
     trace and metrics across two runs
   - the Figure 2 fault protocol under adversity (dropped forwards,
     stale/victimized handler spaces)
   - the X3 kill-one-MPM scenario: survivors keep progressing, the crashed
     kernel is restarted by the SRM from its writeback image
   - inject/recover counter balance on a chaos-enabled UNIX workload
   - Json round-trip edge cases and Metrics empty-histogram reads

   CHAOS_SEED parameterizes every chaos configuration (default 42) so CI
   can run the suite under several fixed seeds. *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

let chaos ?(io_fail = 0.0) ?(io_delay = 0.0) ?(tier_fail = 0.0) ?(tier_delay = 0.0)
    ?(signal_drop = 0.0) ?(signal_dup = 0.0) ?(stale_rate = 0.0) ?(forward_drop = 0.0)
    ?crash_at_us () =
  Some
    {
      Config.chaos_default with
      Config.chaos_seed;
      io_fail;
      io_delay;
      tier_fail;
      tier_delay;
      signal_drop;
      signal_dup;
      stale_rate;
      forward_drop;
      crash_at_us;
    }

let counter (inst : Instance.t) name = Metrics.counter inst.Instance.metrics name

(* -- qcheck state machine: object caches under stale injection -- *)

(* The reference model: live spaces and threads as the application kernel
   believes them to be, plus every identifier ever retired.  Removals are
   learned exclusively by draining the owning kernel's writeback channel,
   exactly as a real application kernel would. *)
type model = {
  mutable m_spaces : (int * Oid.t) list; (* tag, oid *)
  mutable m_threads : (Oid.t * Oid.t) list; (* thread oid, its space oid *)
  mutable m_retired : Oid.t list;
}

let drain_into (inst : Instance.t) koid m =
  match Instance.find_kernel inst koid with
  | None -> Alcotest.fail "first kernel vanished"
  | Some k ->
    while not (Queue.is_empty k.Kernel_obj.writebacks) do
      match Queue.pop k.Kernel_obj.writebacks with
      | Wb.Space_wb { oid; _ } ->
        m.m_spaces <- List.filter (fun (_, o) -> not (Oid.equal o oid)) m.m_spaces;
        m.m_retired <- oid :: m.m_retired
      | Wb.Thread_wb { oid; _ } ->
        m.m_threads <- List.filter (fun (o, _) -> not (Oid.equal o oid)) m.m_threads;
        m.m_retired <- oid :: m.m_retired
      | Wb.Mapping_wb _ | Wb.Kernel_wb _ -> ()
    done

let check_invariants (inst : Instance.t) m ~prev_space_gens ~prev_thread_gens =
  let sc = inst.Instance.spaces in
  let tc = inst.Instance.threads in
  (* generation tags only ever grow *)
  Array.iteri
    (fun i g ->
      if sc.Caches.Space_cache.gens.(i) < g then
        Alcotest.failf "space gen regressed at slot %d" i)
    prev_space_gens;
  Array.iteri
    (fun i g ->
      if tc.Caches.Thread_cache.gens.(i) < g then
        Alcotest.failf "thread gen regressed at slot %d" i)
    prev_thread_gens;
  (* the model's live objects all resolve, with matching state *)
  List.iter
    (fun (tag, oid) ->
      match Instance.find_space inst oid with
      | Some sp -> Alcotest.(check int) "space tag" tag sp.Space_obj.tag
      | None -> Alcotest.failf "live space %a does not resolve" Oid.pp oid)
    m.m_spaces;
  List.iter
    (fun (oid, _) ->
      if Instance.find_thread inst oid = None then
        Alcotest.failf "live thread %a does not resolve" Oid.pp oid)
    m.m_threads;
  (* every retired identifier is rejected as stale *)
  List.iter
    (fun (oid : Oid.t) ->
      let resolves =
        match oid.Oid.kind with
        | Oid.Space -> Instance.find_space inst oid <> None
        | Oid.Thread -> Instance.find_thread inst oid <> None
        | Oid.Kernel -> Instance.find_kernel inst oid <> None
      in
      if resolves then Alcotest.failf "retired id %a still resolves" Oid.pp oid)
    m.m_retired;
  (* dependency-ordered replacement: no live thread refers to a retired
     space (a space's dependents are written back with or before it) *)
  List.iter
    (fun (th, sp) ->
      if not (List.exists (fun (_, o) -> Oid.equal o sp) m.m_spaces) then
        Alcotest.failf "thread %a outlived its space %a" Oid.pp th Oid.pp sp)
    m.m_threads;
  (* live counts agree *)
  Alcotest.(check int) "space live count" (List.length m.m_spaces)
    (Caches.Space_cache.live sc);
  Alcotest.(check int) "thread live count" (List.length m.m_threads)
    (Caches.Thread_cache.live tc)

(* A retry-path call under stale injection: the first attempt may see an
   injected [Stale_reference]; the immediate retry must not (the plane
   never injects twice in a row at one site). *)
let with_stale_retry op =
  match op () with
  | Error Api.Stale_reference -> (
    match op () with
    | Error Api.Stale_reference -> Alcotest.fail "stale injection repeated on retry"
    | r -> r)
  | r -> r

let run_cache_ops ops =
  let config =
    {
      Config.default with
      Config.space_cache = 6;
      thread_cache = 8;
      chaos = chaos ~stale_rate:0.3 ();
    }
  in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let spec =
    {
      Kernel_obj.name = "sm";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = [| 100 |];
      max_priority = 31;
      max_locked = 8;
    }
  in
  let koid = ok (Api.boot inst spec) in
  let m = { m_spaces = []; m_threads = []; m_retired = [] } in
  let next_tag = ref 0 in
  let pick l i = List.nth l (i mod List.length l) in
  let apply (code, operand) =
    match code mod 5 with
    | 0 ->
      incr next_tag;
      let tag = !next_tag in
      let oid = ok (Api.load_space inst ~caller:koid ~tag ()) in
      m.m_spaces <- (tag, oid) :: m.m_spaces
    | 1 ->
      if m.m_spaces <> [] then
        let _, oid = pick m.m_spaces operand in
        ignore (Api.unload_space inst ~caller:koid oid)
    | 2 ->
      if m.m_spaces <> [] then begin
        incr next_tag;
        let _, space = pick m.m_spaces operand in
        match
          with_stale_retry (fun () ->
              Api.load_thread inst ~caller:koid ~space ~priority:1 ~tag:!next_tag
                ~start:(Thread_obj.Fresh (Hw.Exec.unit_body (fun () -> ())))
                ())
        with
        | Ok oid -> m.m_threads <- (oid, space) :: m.m_threads
        | Error e -> Alcotest.failf "load_thread: %a" Api.pp_error e
      end
    | 3 ->
      if m.m_threads <> [] then
        let oid, _ = pick m.m_threads operand in
        ignore (Api.unload_thread inst ~caller:koid oid)
    | _ ->
      if m.m_spaces <> [] then begin
        let _, space = pick m.m_spaces operand in
        let va = 0x40000000 + (operand mod 64 * Hw.Addr.page_size) in
        match
          with_stale_retry (fun () ->
              Api.load_mapping inst ~caller:koid ~space
                (Api.mapping ~va ~pfn:(operand mod 128) ()))
        with
        | Ok () | Error Api.Already_mapped -> ()
        | Error e -> Alcotest.failf "load_mapping: %a" Api.pp_error e
      end
  in
  List.iter
    (fun op ->
      let prev_space_gens = Array.copy inst.Instance.spaces.Caches.Space_cache.gens in
      let prev_thread_gens = Array.copy inst.Instance.threads.Caches.Thread_cache.gens in
      apply op;
      drain_into inst koid m;
      check_invariants inst m ~prev_space_gens ~prev_thread_gens)
    ops;
  true

let qcheck_cache_model =
  QCheck.Test.make ~count:60 ~name:"cache model under stale injection"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (pair small_int small_int))
    run_cache_ops

(* -- deterministic replay -- *)

(* The chaos-enabled UNIX workload of `ckos run --chaos`. *)
let unix_run ~chaos () =
  let config = { Config.default with Config.chaos } in
  let inst = Workload.Setup.instance ~config ~cpus:2 () in
  Trace.enable inst.Instance.trace;
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = ok (Unix_emu.Emulator.boot inst ~groups) in
  let child =
    Unix_emu.Syscall.program "job" (fun () ->
        let pid = Unix_emu.Syscall.getpid () in
        for i = 0 to 7 do
          Hw.Exec.mem_write (Unix_emu.Process.data_base + (i * Hw.Addr.page_size)) (pid + i)
        done;
        Hw.Exec.compute 20_000;
        0)
  in
  let init =
    Unix_emu.Syscall.program "init" (fun () ->
        let pids = List.init 4 (fun _ -> Unix_emu.Syscall.spawn child) in
        List.iter (fun _ -> ignore (Unix_emu.Syscall.wait ())) pids;
        0)
  in
  ignore (ok (Unix_emu.Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  inst

let test_deterministic_replay () =
  let snap () =
    let inst =
      unix_run ~chaos:(chaos ~io_fail:0.1 ~stale_rate:0.1 ~forward_drop:0.1 ()) ()
    in
    ( Json.to_string (Instance.metrics_json inst),
      Json.to_string (Trace.to_json inst.Instance.trace) )
  in
  let m1, t1 = snap () in
  let m2, t2 = snap () in
  Alcotest.(check string) "metrics replay identically" m1 m2;
  Alcotest.(check string) "trace replays identically" t1 t2

(* -- inject/recover balance -- *)

let test_counter_balance () =
  let inst =
    unix_run
      ~chaos:(chaos ~io_fail:0.15 ~io_delay:0.1 ~stale_rate:0.15 ~forward_drop:0.15 ())
      ()
  in
  let balanced = [ "bstore.fail"; "bstore.delay"; "stale.load"; "fault.forward" ] in
  let total =
    List.fold_left (fun acc s -> acc + counter inst ("inject." ^ s)) 0 balanced
  in
  Alcotest.(check bool) "chaos injected something" true (total > 0);
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Printf.sprintf "%s inject = recover" site)
        (counter inst ("inject." ^ site))
        (counter inst ("recover." ^ site)))
    balanced;
  (* every inject./recover. counter the run produced names a site in
     Fault_inject.sites, the list `ckos run --chaos` prints the balance of *)
  List.iter
    (fun name ->
      List.iter
        (fun prefix ->
          let n = String.length prefix in
          if String.length name > n && String.sub name 0 n = prefix then
            let site = String.sub name n (String.length name - n) in
            Alcotest.(check bool)
              (Printf.sprintf "%s is a listed site" name)
              true
              (List.mem site Fault_inject.sites))
        [ "inject."; "recover." ])
    (Metrics.exported_names inst.Instance.metrics)

(* -- tier-migration fault sites --

   The tiered backing store's promotion/demotion path runs through its own
   chaos sites ([tier.promote.*], [tier.demote.*]) with the same
   retry-with-backoff recovery protocol as block I/O.  A fast tier smaller
   than the hot set maximizes migration traffic: every page-out lands
   fast, every slow refault promotes, and capacity pressure demotes the
   sequentially-flooded LRU tail continuously. *)

let tier_run ?(tier_fail = 0.0) ?(tier_delay = 0.0) ?(io_fail = 0.0) () =
  let config =
    { Config.default with Config.chaos = chaos ~io_fail ~tier_fail ~tier_delay () }
  in
  let inst_ref = ref None and ak_ref = ref None in
  let pt =
    Workload.Sweeps.tier_point ~config ~slots:16 ~hot:24 ~cold:12 ~passes:3 ~frames:24
      ~prepare:(fun i ->
        inst_ref := Some i;
        Trace.enable i.Instance.trace)
      ~finish:(fun _ ak -> ak_ref := Some ak)
      ()
  in
  (pt, Option.get !inst_ref, Option.get !ak_ref)

(* After recovery, exactly one valid copy of every writeback image: the
   tier-conservation audit is clean and every block still holds the bytes
   the workload paged out (hot page h was filled with h+1). *)
let check_one_valid_copy (ak : App_kernel.t) =
  let store = ak.App_kernel.store in
  (match Backing_store.audit_tiers store ~repair:false with
  | [] -> ()
  | (_, subject, detail, _) :: _ ->
    Alcotest.failf "tier conservation violated: %s: %s" subject detail);
  Alcotest.(check bool) "fast tier within capacity" true
    (Backing_store.fast_resident store <= 16)

let tier_sites ~promote = if promote then "tier.promote" else "tier.demote"

let run_tier_chaos ~tier_fail ~tier_delay ~expect_kind () =
  let pt, inst, ak = tier_run ~tier_fail ~tier_delay () in
  (* migration traffic actually flowed *)
  Alcotest.(check bool) "promotions happened" true (pt.Workload.Sweeps.ts_promotes > 0);
  Alcotest.(check bool) "demotions happened" true (pt.Workload.Sweeps.ts_demotes > 0);
  let injected_total = ref 0 in
  List.iter
    (fun promote ->
      let site = tier_sites ~promote in
      List.iter
        (fun kind ->
          let s = site ^ "." ^ kind in
          let i = counter inst ("inject." ^ s) in
          injected_total := !injected_total + i;
          Alcotest.(check int)
            (Printf.sprintf "%s inject = recover" s)
            i
            (counter inst ("recover." ^ s));
          if kind <> expect_kind then
            Alcotest.(check int) (Printf.sprintf "%s never drawn" s) 0 i)
        [ "fail"; "delay" ])
    [ true; false ];
  Alcotest.(check bool)
    (Printf.sprintf "chaos injected %s somewhere" expect_kind)
    true (!injected_total > 0);
  check_one_valid_copy ak

let test_tier_fail_recovery () = run_tier_chaos ~tier_fail:0.4 ~tier_delay:0.0 ~expect_kind:"fail" ()

let test_tier_delay_recovery () =
  run_tier_chaos ~tier_fail:0.0 ~tier_delay:0.4 ~expect_kind:"delay" ()

(* Tier moves alongside injected block-I/O faults: the two planes compose
   without losing an image. *)
let test_tier_with_io_chaos () =
  let _, inst, ak = tier_run ~tier_fail:0.3 ~tier_delay:0.2 ~io_fail:0.2 () in
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Printf.sprintf "%s inject = recover" site)
        (counter inst ("inject." ^ site))
        (counter inst ("recover." ^ site)))
    [ "bstore.fail"; "tier.promote.fail"; "tier.promote.delay"; "tier.demote.fail";
      "tier.demote.delay" ];
  check_one_valid_copy ak

(* Same seed, same injection plan: two tiered chaos runs produce identical
   metrics and identical traces (Tier_move events included). *)
let test_tier_deterministic_replay () =
  let snap () =
    let _, inst, _ = tier_run ~tier_fail:0.3 ~tier_delay:0.2 ~io_fail:0.1 () in
    ( Json.to_string (Instance.metrics_json inst),
      Json.to_string (Trace.to_json inst.Instance.trace) )
  in
  let m1, t1 = snap () in
  let m2, t2 = snap () in
  Alcotest.(check string) "tier metrics replay identically" m1 m2;
  Alcotest.(check string) "tier trace replays identically" t1 t2

(* -- Figure 2 under adversity -- *)

(* The `ckos trace` demo: one thread demand-faulting four pages through the
   six-step protocol. *)
let fig2_run ?(pages = 4) ~config () =
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"demo" ~pages in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages ~segment:seg ~seg_offset:0 ());
  let done_ = ref false in
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body (fun () ->
               for i = 0 to pages - 1 do
                 Hw.Exec.mem_write (0x40000000 + (i * Hw.Addr.page_size)) i
               done;
               done_ := true))));
  ignore (Engine.run [| inst |]);
  (inst, ak, done_)

let test_fig2_dropped_forward () =
  let config = { Config.default with Config.chaos = chaos ~forward_drop:1.0 () } in
  let inst, _, done_ = fig2_run ~config () in
  Alcotest.(check bool) "protocol completed" true !done_;
  let injected = counter inst "inject.fault.forward" in
  Alcotest.(check bool) "forwards were dropped" true (injected > 0);
  Alcotest.(check int) "every drop recovered" injected (counter inst "recover.fault.forward");
  Alcotest.(check bool) "retried forwards reached the kernel" true
    (counter inst "fault.forwarded" >= 4)

let test_fig2_stale_handler_space () =
  let config = { Config.default with Config.chaos = chaos ~stale_rate:1.0 () } in
  let inst, _, done_ = fig2_run ~config () in
  Alcotest.(check bool) "protocol completed" true !done_;
  let injected = counter inst "inject.stale.load" in
  Alcotest.(check bool) "stale ids were injected" true (injected > 0);
  Alcotest.(check int) "every stale load recovered" injected
    (counter inst "recover.stale.load")

(* Genuine victimization: a 2-slot space cache (one of which the kernel's
   own locked space occupies) forces the two demo spaces to displace each
   other while their threads fault, so handler spaces really are written
   back mid-protocol and reloaded through the reload-and-retry path. *)
let test_fig2_victimized_space () =
  let config = { Config.default with Config.space_cache = 2 } in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let spawn_faulter n =
    let vsp = ok (Segment_mgr.create_space mgr) in
    let seg = Segment_mgr.create_segment mgr ~name:(Printf.sprintf "seg%d" n) ~pages:4 in
    Segment_mgr.attach_region mgr vsp
      (Region.v ~va_start:0x40000000 ~pages:4 ~segment:seg ~seg_offset:0 ());
    let done_ = ref false in
    ignore
      (ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag
            ~priority:8
            (Hw.Exec.unit_body (fun () ->
                 for i = 0 to 3 do
                   Hw.Exec.mem_write (0x40000000 + (i * Hw.Addr.page_size)) i;
                   ignore (Hw.Exec.trap Api.Ck_yield)
                 done;
                 done_ := true))));
    done_
  in
  let d1 = spawn_faulter 1 and d2 = spawn_faulter 2 in
  (* a displaced thread stays written back until its kernel reloads it;
     play the application-kernel scheduler and pump until both finish *)
  let rec pump n =
    ignore (Engine.run [| inst |]);
    if not (!d1 && !d2) && n > 0 then begin
      App_kernel.resume_threads ak;
      pump (n - 1)
    end
  in
  pump 32;
  Alcotest.(check bool) "both threads completed" true (!d1 && !d2);
  Alcotest.(check bool) "spaces really were displaced" true
    (inst.Instance.stats.Stats.spaces.Stats.loads_with_writeback > 0)

(* -- X3: kill one MPM, restart its kernels from writeback -- *)

let test_x3_crash_restart () =
  let mk ~node_id ~chaos =
    Workload.Setup.instance
      ~config:{ Config.default with Config.chaos }
      ~cpus:2
      ~mem:(32 * 1024 * 1024)
      ~node_id ()
  in
  (* node 0: the survivor, with an observable long-running thread *)
  let i0 = mk ~node_id:0 ~chaos:None in
  let srm0 = ok (Srm.Manager.boot i0 ()) in
  let progress0 = ref 0 in
  let spin0 () =
    for _ = 1 to 5000 do
      Hw.Exec.compute 2000;
      incr progress0;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  ignore (ok (App_kernel.spawn_internal srm0.Srm.Manager.ak ~priority:4 (Hw.Exec.unit_body spin0)));
  (* node 1: the chaos plane crashes it at 8 ms *)
  let i1 = mk ~node_id:1 ~chaos:(chaos ~crash_at_us:8000.0 ()) in
  let srm1 = ok (Srm.Manager.boot i1 ()) in
  let clock1 () =
    for _ = 1 to 5000 do
      Hw.Exec.compute 2000;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  ignore (ok (App_kernel.spawn_internal srm1.Srm.Manager.ak ~priority:2 (Hw.Exec.unit_body clock1)));
  let ak1, spec1 = App_kernel.prepare i1 ~name:"guest" () in
  let launched = ok (Srm.Manager.launch srm1 (ak1, spec1) ~group_count:2 ~cpu_percent:40 ()) in
  let progress1 = ref 0 in
  let body1 () =
    for _ = 1 to 50 do
      Hw.Exec.compute 2000;
      incr progress1;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  ignore (ok (App_kernel.spawn_internal ak1 ~priority:8 (Hw.Exec.unit_body body1)));
  let insts = [| i0; i1 |] in
  ignore (Engine.run ~until_us:4_000.0 insts);
  Alcotest.(check bool) "guest made progress" true (!progress1 > 0);
  (* write the guest back: its state becomes an image in the SRM's records *)
  ok (Srm.Manager.swap_out_kernel srm1 launched);
  let p1 = !progress1 in
  ignore (Engine.run ~until_us:10_000.0 insts);
  Alcotest.(check bool) "chaos crashed node 1" true i1.Instance.halted;
  Alcotest.(check int) "crash counted" 1 (counter i1 "inject.node.crash");
  Alcotest.(check int) "guest frozen across the crash" p1 !progress1;
  (* the surviving node keeps making progress *)
  let p0 = !progress0 in
  ignore (Engine.run ~until_us:14_000.0 insts);
  Alcotest.(check bool) "survivor progressed after the crash" true (!progress0 > p0);
  (* SRM-driven restart: reload everything from the writeback images *)
  ok (Srm.Manager.restart_node srm1);
  Alcotest.(check int) "restart counted as recovery" 1 (counter i1 "recover.node.crash");
  ignore (Engine.run ~until_us:80_000.0 insts);
  Alcotest.(check int) "guest resumed from its writeback image and finished" 50 !progress1

(* -- Json edge cases -- *)

let roundtrip v = Json.of_string (Json.to_string v)

let test_json_string_escapes () =
  let s = "quote\" back\\ slash/ nl\n cr\r tab\t ctl\x01 caf\xc3\xa9" in
  Alcotest.(check bool) "escaped string round-trips" true
    (roundtrip (Json.String s) = Json.String s);
  (match Json.of_string {|"\u00e9 \u20ac \ud83d\ude00 \b\f"|} with
  | Json.String s ->
    Alcotest.(check string) "\\u escapes decode to UTF-8"
      "\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 \b\x0c" s
  | _ -> Alcotest.fail "expected a string");
  (* a decoded astral-plane string round-trips through the writer *)
  let v = Json.of_string {|"\ud83d\ude00"|} in
  Alcotest.(check bool) "astral round-trip" true (roundtrip v = v);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" bad)
    [ {|"\ud800"|}; {|"\udc00 low first"|}; {|"\uzzzz"|}; {|"\x"|} ]

let test_json_nesting_and_empties () =
  let deep = String.concat "" (List.init 400 (fun _ -> "[")) ^ "0"
             ^ String.concat "" (List.init 400 (fun _ -> "]")) in
  let v = Json.of_string deep in
  Alcotest.(check bool) "deep array round-trips" true (roundtrip v = v);
  let empties =
    Json.Obj
      [ ("a", Json.Obj []); ("b", Json.List []); ("c", Json.Obj [ ("d", Json.List []) ]) ]
  in
  Alcotest.(check bool) "empty objects round-trip" true (roundtrip empties = empties);
  Alcotest.(check bool) "pretty form parses back" true
    (Json.of_string (Json.to_string_pretty empties) = empties)

let test_json_nonfinite_floats () =
  Alcotest.(check string) "infinity is null" "null" (Json.to_string (Json.Float infinity));
  Alcotest.(check string) "-infinity is null" "null"
    (Json.to_string (Json.Float neg_infinity));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  let v = Json.List [ Json.Float infinity; Json.Int 1 ] in
  Alcotest.(check bool) "document with infinities still parses" true
    (Json.of_string (Json.to_string v) = Json.List [ Json.Null; Json.Int 1 ])

(* -- Metrics empty-histogram reads -- *)

let test_metrics_empty_histogram () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "absent histogram percentile" 0.0
    (Metrics.percentile m "nothing" 0.5);
  Alcotest.(check int) "absent histogram observations" 0 (Metrics.observations m "nothing");
  Metrics.observe m "only_nan" Float.nan;
  Alcotest.(check (float 0.0)) "NaN-only histogram percentile" 0.0
    (Metrics.percentile m "only_nan" 0.99);
  Alcotest.(check int) "NaN observations are dropped" 0 (Metrics.observations m "only_nan")

let () =
  Alcotest.run "fault_inject"
    [
      ("model", [ QCheck_alcotest.to_alcotest qcheck_cache_model ]);
      ( "replay",
        [ Alcotest.test_case "same seed, same run" `Quick test_deterministic_replay ] );
      ("balance", [ Alcotest.test_case "inject = recover" `Quick test_counter_balance ]);
      ( "tier",
        [
          Alcotest.test_case "fail mid-promotion/demotion recovers" `Quick
            test_tier_fail_recovery;
          Alcotest.test_case "delay mid-promotion/demotion recovers" `Quick
            test_tier_delay_recovery;
          Alcotest.test_case "tier and block-I/O chaos compose" `Quick
            test_tier_with_io_chaos;
          Alcotest.test_case "tiered chaos replays deterministically" `Quick
            test_tier_deterministic_replay;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "dropped forward" `Quick test_fig2_dropped_forward;
          Alcotest.test_case "injected stale handler space" `Quick
            test_fig2_stale_handler_space;
          Alcotest.test_case "genuinely victimized space" `Quick test_fig2_victimized_space;
        ] );
      ("x3", [ Alcotest.test_case "crash and SRM restart" `Quick test_x3_crash_restart ]);
      ( "json",
        [
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "nesting and empties" `Quick test_json_nesting_and_empties;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
        ] );
      ( "metrics",
        [ Alcotest.test_case "empty histograms" `Quick test_metrics_empty_histogram ] );
    ]
