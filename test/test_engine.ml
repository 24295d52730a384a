(* Engine behaviour: dispatch, preemption, affinity, quota demotion,
   runaway-fault containment, signal queue bounds, thread exit. *)

open Cachekernel

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let make ?(cpus = 1) () =
  let inst =
    Instance.create (Hw.Mpm.create ~node_id:0 ~cpus ~mem_size:(16 * 1024 * 1024) ())
  in
  let spec =
    {
      Kernel_obj.name = "first";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = Array.make cpus 100;
      max_priority = 31;
      max_locked = 8;
    }
  in
  let first = ok (Api.boot inst spec) in
  let space = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  (inst, first, space)

let spawn inst first space ?affinity ~priority body =
  ok
    (Api.load_thread inst ~caller:first ~space ~priority ~affinity ~tag:0
       ~start:(Thread_obj.Fresh (Hw.Exec.unit_body body))
       ())

let test_priority_preemption () =
  let inst, first, space = make () in
  let order = ref [] in
  let low () =
    order := `Low_start :: !order;
    Hw.Exec.compute 1_000_000;
    order := `Low_end :: !order
  in
  let high () = order := `High :: !order in
  ignore (spawn inst first space ~priority:4 low);
  (* run a moment so the low thread occupies the CPU *)
  ignore (Engine.run ~until_us:500.0 [| inst |]);
  ignore (spawn inst first space ~priority:20 high);
  ignore (Engine.run [| inst |]);
  (* the high-priority thread ran before the low one finished *)
  let rec before a b = function
    | [] -> false
    | x :: rest -> if x = a then List.mem b rest else before a b rest
  in
  Alcotest.(check bool) "high ran before low finished" true
    (before `Low_end `High (!order) (* order is reversed: newest first *));
  Alcotest.(check bool) "a preemption happened" true
    (inst.Instance.stats.Stats.preemptions >= 1)

let test_affinity () =
  let inst, first, space = make ~cpus:2 () in
  Trace.enable inst.Instance.trace;
  let body () =
    for _ = 1 to 5 do
      Hw.Exec.compute 2000;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  let t1 = spawn inst first space ~affinity:1 ~priority:8 body in
  ignore (Engine.run [| inst |]);
  let dispatches =
    List.filter_map
      (function
        | Trace.Thread_dispatched { thread; cpu } when Oid.equal thread t1 -> Some cpu
        | _ -> None)
      (Trace.events inst.Instance.trace)
  in
  Alcotest.(check bool) "dispatched at least once" true (dispatches <> []);
  Alcotest.(check bool) "only ever on cpu 1" true (List.for_all (( = ) 1) dispatches)

let test_demoted_runs_only_when_idle () =
  let inst, first, space = make () in
  (* a second kernel, demoted on cpu 0 *)
  let spec2 =
    {
      Kernel_obj.name = "demoted";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = [| 10 |];
      max_priority = 31;
      max_locked = 4;
    }
  in
  let k2 = ok (Api.load_kernel inst ~caller:first spec2) in
  let sp2 = ok (Api.load_space inst ~caller:k2 ~tag:9 ()) in
  (Option.get (Instance.find_kernel inst k2)).Kernel_obj.demoted.(0) <- true;
  let ran_demoted_at = ref (-1.0) in
  let first_done_at = ref (-1.0) in
  let busy () =
    Hw.Exec.compute 400_000;
    first_done_at := Hw.Exec.time_us ()
  in
  let starved () = ran_demoted_at := Hw.Exec.time_us () in
  ignore
    (ok
       (Api.load_thread inst ~caller:k2 ~space:sp2 ~priority:31 ~tag:0
          ~start:(Thread_obj.Fresh (Hw.Exec.unit_body starved))
          ()));
  ignore (spawn inst first space ~priority:4 busy);
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "demoted thread eventually ran" true (!ran_demoted_at >= 0.0);
  Alcotest.(check bool)
    "but only after the undemoted work finished, despite higher priority" true
    (!ran_demoted_at >= !first_done_at)

let test_runaway_fault_killed () =
  (* the first kernel's fault handler does nothing: the thread refaults on
     the same page until the engine kills it *)
  let inst, first, space = make () in
  let toucher () = ignore (Hw.Exec.mem_read 0x40000000) in
  ignore (spawn inst first space ~priority:8 toucher);
  let steps = Engine.run ~max_steps:5_000_000 [| inst |] in
  Alcotest.(check bool) "engine terminated well below the step bound" true
    (steps < 1_000_000);
  Alcotest.(check int) "thread slot reclaimed" 0
    (Caches.Thread_cache.live inst.Instance.threads);
  (* the owner learned of the abnormal exit through a writeback *)
  let k = Option.get (Instance.find_kernel inst first) in
  let exited =
    Queue.fold
      (fun acc -> function Wb.Thread_wb { reason = Wb.Exited; _ } -> acc + 1 | _ -> acc)
      0 k.Kernel_obj.writebacks
  in
  Alcotest.(check bool) "exit writeback delivered" true (exited >= 1)

let test_signal_queue_bound () =
  let inst, first, space = make () in
  (* a thread that never waits: signals pile up on its bounded queue *)
  let th = spawn inst first space ~priority:8 (fun () -> Hw.Exec.compute 100) in
  let depth = inst.Instance.config.Config.signal_queue_depth in
  for i = 1 to depth + 16 do
    ignore (Api.post_signal inst ~caller:first ~thread:th ~va:(0x1000 + (4 * i)))
  done;
  Alcotest.(check int) "overflow dropped, not queued" 16
    inst.Instance.stats.Stats.signals_dropped;
  Alcotest.(check int) "queue holds exactly the bound" depth
    inst.Instance.stats.Stats.signals_queued

let test_exit_trap () =
  let inst, first, space = make () in
  let after = ref false in
  let body () =
    ignore (Hw.Exec.trap Api.Ck_exit);
    after := true
  in
  ignore (spawn inst first space ~priority:8 body);
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "nothing runs after exit" false !after;
  Alcotest.(check int) "descriptor freed" 0 (Caches.Thread_cache.live inst.Instance.threads)

(* -- Window caps -- *)

(* The per-window cap loop as the engine ran it before the one-pass
   minimum/second-minimum computation: the reference for its output. *)
let reference_caps ~times ~quiescent ~halted =
  let n = Array.length times in
  Array.init n (fun i ->
      let cap = ref max_int in
      for m = 0 to n - 1 do
        if m <> i && (not quiescent.(m)) && not halted.(m) then
          cap := min !cap (times.(m) + Hw.Cost.fiber_packet)
      done;
      !cap)

(* Small time ranges make ties common; the quiescent and halted flags
   leave anywhere from no active node to all of them. *)
let prop_window_caps =
  QCheck.Test.make ~count:1000 ~name:"window caps match the pairwise loop"
    QCheck.(
      list_of_size Gen.(int_range 1 70)
        (triple (oneof [ int_bound 8; int_bound 1_000_000 ]) bool (int_bound 3)))
    (fun nodes ->
      let times = Array.of_list (List.map (fun (t, _, _) -> t) nodes) in
      let quiescent = Array.of_list (List.map (fun (_, q, _) -> q) nodes) in
      let halted = Array.of_list (List.map (fun (_, _, h) -> h = 0) nodes) in
      let active = Array.mapi (fun i q -> not (q || halted.(i))) quiescent in
      let caps = Array.make (Array.length times) 0 in
      Engine.window_caps ~times ~active caps;
      caps = reference_caps ~times ~quiescent ~halted)

let () =
  Alcotest.run "engine"
    [
      ( "scheduling",
        [
          Alcotest.test_case "priority preemption" `Quick test_priority_preemption;
          Alcotest.test_case "cpu affinity respected" `Quick test_affinity;
          Alcotest.test_case "demoted kernels run only when idle" `Quick
            test_demoted_runs_only_when_idle;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "runaway refaulting thread is killed" `Quick
            test_runaway_fault_killed;
          Alcotest.test_case "signal queue is bounded" `Quick test_signal_queue_bound;
          Alcotest.test_case "exit trap" `Quick test_exit_trap;
        ] );
      ("window caps", [ QCheck_alcotest.to_alcotest prop_window_caps ]);
    ]
