(* System resource manager tests: the ledger, kernel launching with
   resource grants, kernel swap-out/in, I/O policing and distributed
   coordination with fault containment. *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let make ?(cpus = 2) () =
  let inst =
    Instance.create (Hw.Mpm.create ~node_id:0 ~cpus ~mem_size:(32 * 1024 * 1024) ())
  in
  let srm = ok (Srm.Manager.boot inst ()) in
  (inst, srm)

(* -- Ledger -- *)

let test_ledger () =
  let l = Srm.Ledger.create ~groups:[ 0; 1; 2; 3 ] in
  let g1 =
    match Srm.Ledger.allocate l ~kernel_name:"a" ~group_count:3 ~cpu_percent:60 ~net_percent:50 with
    | Ok g -> g
    | Error _ -> Alcotest.fail "first allocation"
  in
  Alcotest.(check int) "groups granted" 3 (List.length g1.Srm.Ledger.groups);
  Alcotest.(check int) "one group left" 1 (Srm.Ledger.free_group_count l);
  (match Srm.Ledger.allocate l ~kernel_name:"b" ~group_count:2 ~cpu_percent:10 ~net_percent:0 with
  | Error `No_memory -> ()
  | _ -> Alcotest.fail "expected memory exhaustion");
  (match Srm.Ledger.allocate l ~kernel_name:"b" ~group_count:1 ~cpu_percent:50 ~net_percent:0 with
  | Error `No_cpu -> ()
  | _ -> Alcotest.fail "expected cpu exhaustion");
  Srm.Ledger.release l g1;
  Alcotest.(check int) "groups returned" 4 (Srm.Ledger.free_group_count l);
  match Srm.Ledger.allocate l ~kernel_name:"b" ~group_count:4 ~cpu_percent:90 ~net_percent:90 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "release freed capacity"

(* Regression: releasing the same grant twice must return its resources
   exactly once.  An early release had no guard, so a stale handle
   double-subtracted committed CPU capacity and inflated other kernels'
   headroom. *)
let test_ledger_double_release () =
  let l = Srm.Ledger.create ~groups:[ 0; 1; 2; 3 ] in
  let alloc name cpu net =
    match
      Srm.Ledger.allocate l ~kernel_name:name ~group_count:1 ~cpu_percent:cpu
        ~net_percent:net
    with
    | Ok g -> g
    | Error _ -> Alcotest.failf "allocate %s" name
  in
  let ga = alloc "a" 30 20 in
  let _gb = alloc "b" 40 30 in
  Srm.Ledger.release l ga;
  Srm.Ledger.release l ga;
  Alcotest.(check int) "groups returned once" 3 (Srm.Ledger.free_group_count l);
  Alcotest.(check int) "only b's grant remains" 1 (List.length (Srm.Ledger.grants l));
  (* committed capacity reflects exactly b's grant: a request that fits the
     real headroom succeeds, one that exceeds it is refused — a double
     subtraction would have accepted it *)
  (match Srm.Ledger.allocate l ~kernel_name:"c" ~group_count:1 ~cpu_percent:60 ~net_percent:70 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "headroom freed by the release was refused");
  match Srm.Ledger.allocate l ~kernel_name:"d" ~group_count:1 ~cpu_percent:1 ~net_percent:1 with
  | Error `No_cpu | Error `No_net -> ()
  | _ -> Alcotest.fail "over-committed: the double release leaked capacity"

(* Random allocate/release sequences, double releases included, against a
   model that keeps only counts: every result and every free count must
   match it, and after each step the free groups and the live grants'
   groups must partition the governed set. *)
type ledger_op = Alloc of int * int * int | Release of int

let ledger_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map3 (fun n c k -> Alloc (n, c, k)) (int_bound 4) (int_bound 60) (int_bound 60));
        (2, map (fun i -> Release i) (int_bound 12));
      ])

let pp_ledger_op = function
  | Alloc (n, c, k) -> Printf.sprintf "alloc %d groups %d%% cpu %d%% net" n c k
  | Release i -> Printf.sprintf "release #%d" i

let ledger_model =
  QCheck.Test.make ~count:300 ~name:"ledger matches a counting model"
    QCheck.(make ~print:Print.(list pp_ledger_op) Gen.(list_size (int_range 1 40) ledger_op_gen))
    (fun ops ->
      let governed = List.init 8 Fun.id in
      let l = Srm.Ledger.create ~groups:governed in
      (* every grant ever made, in order, with whether the model holds it *)
      let handles = ref [||] in
      let live = Hashtbl.create 8 in
      let free = ref (List.length governed) in
      let sum f = Hashtbl.fold (fun _ g acc -> acc + f g) live 0 in
      let step op =
        (match op with
        | Alloc (n, cpu, net) ->
          let want =
            if !free < n then Error `No_memory
            else if sum (fun (_, c, _) -> c) + cpu > 100 then Error `No_cpu
            else if sum (fun (_, _, k) -> k) + net > 100 then Error `No_net
            else Ok ()
          in
          let got =
            Srm.Ledger.allocate l ~kernel_name:"k" ~group_count:n ~cpu_percent:cpu
              ~net_percent:net
          in
          (match (want, got) with
          | Ok (), Ok g ->
            if List.length g.Srm.Ledger.groups <> n then
              QCheck.Test.fail_reportf "granted %d groups, asked %d"
                (List.length g.Srm.Ledger.groups) n;
            Hashtbl.replace live (Array.length !handles) (n, cpu, net);
            handles := Array.append !handles [| g |];
            free := !free - n
          | Error w, Error g when w = g -> ()
          | _ -> QCheck.Test.fail_reportf "%s: result differs from the model" (pp_ledger_op op))
        | Release i when i < Array.length !handles ->
          Srm.Ledger.release l !handles.(i);
          (match Hashtbl.find_opt live i with
          | Some (n, _, _) ->
            Hashtbl.remove live i;
            free := !free + n
          | None -> ())
        | Release _ -> ());
        if Srm.Ledger.free_group_count l <> !free then
          QCheck.Test.fail_reportf "%s: %d free groups, model %d" (pp_ledger_op op)
            (Srm.Ledger.free_group_count l) !free;
        if List.length (Srm.Ledger.grants l) <> Hashtbl.length live then
          QCheck.Test.fail_reportf "%s: %d live grants, model %d" (pp_ledger_op op)
            (List.length (Srm.Ledger.grants l)) (Hashtbl.length live);
        (* granted groups are distinct governed groups, and with the free
           count they cover the governed set exactly *)
        let granted = List.concat_map (fun g -> g.Srm.Ledger.groups) (Srm.Ledger.grants l) in
        if
          List.sort_uniq compare granted <> List.sort compare granted
          || not (List.for_all (fun g -> List.mem g governed) granted)
          || List.length granted + Srm.Ledger.free_group_count l <> List.length governed
        then QCheck.Test.fail_reportf "%s: free and granted groups do not partition" (pp_ledger_op op)
      in
      List.iter step ops;
      true)

(* The SRM records the application kernels the forwarding watchdog
   escalates as misbehaving (section 2's fault containment). *)
let test_misbehaving_recorded () =
  let inst, srm = make () in
  let r = Audit.run inst in
  Alcotest.(check int) "booted SRM audits clean" 0 (List.length r.Audit.violations);
  inst.Instance.on_misbehaving ~kernel:(Srm.Manager.oid srm) ~thread:Oid.none;
  Alcotest.(check bool) "escalation recorded" true (srm.Srm.Manager.misbehaving <> []);
  Alcotest.(check int) "escalation counted" 1
    (Metrics.counter inst.Instance.metrics "srm.misbehaving")

(* -- Launch: grants actually bound the launched kernel -- *)

let test_launch_grants () =
  let inst, srm = make () in
  let ak = App_kernel.prepare inst ~name:"guest" () in
  let launched =
    ok (Srm.Manager.launch srm ak ~group_count:2 ~cpu_percent:40 ())
  in
  Alcotest.(check int) "two page groups granted" (2 * Hw.Addr.pages_per_group)
    (Frame_alloc.total ak.App_kernel.frames);
  (* the guest can map granted frames but nothing else *)
  let vsp = ok (Segment_mgr.create_space ak.App_kernel.mgr) in
  let granted_pfn = List.hd (Frame_alloc.take ak.App_kernel.frames 1) in
  ok
    (Api.load_mapping inst ~caller:(App_kernel.oid ak) ~space:vsp.Segment_mgr.oid
       (Api.mapping ~va:0x40000000 ~pfn:granted_pfn ()));
  (match
     Api.load_mapping inst ~caller:(App_kernel.oid ak) ~space:vsp.Segment_mgr.oid
       (Api.mapping ~va:0x40001000 ~pfn:(Hw.Mpm.pages inst.Instance.node - 1) ())
   with
  | Error Api.No_access -> ()
  | _ -> Alcotest.fail "ungranted frame must be refused");
  Alcotest.(check bool) "kernel recorded" true
    (List.exists (fun l -> l.Srm.Manager.name = "guest") (Srm.Manager.kernels srm));
  ignore launched

(* -- Swap a kernel out and back in -- *)

let test_kernel_swap () =
  let inst, srm = make () in
  let ak = App_kernel.prepare inst ~name:"swappee" () in
  let launched = ok (Srm.Manager.launch srm ak ~group_count:2 ~cpu_percent:40 ()) in
  (* give it a running thread with observable progress *)
  let progress = ref 0 in
  let body () =
    for _ = 1 to 50 do
      Hw.Exec.compute 2000;
      incr progress;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  ignore (ok (App_kernel.spawn_internal ak ~priority:8 (Hw.Exec.unit_body body)));
  ignore (Engine.run ~until_us:5_000.0 [| inst |]);
  let before = !progress in
  Alcotest.(check bool) "made progress" true (before > 0);
  ok (Srm.Manager.swap_out_kernel srm launched);
  Alcotest.(check bool) "kernel object gone" true
    (Instance.find_kernel inst (App_kernel.oid ak) = None);
  (* while swapped out, no progress *)
  ignore (Engine.run ~until_us:10_000.0 [| inst |]);
  Alcotest.(check int) "frozen while swapped" before !progress;
  ok (Srm.Manager.swap_in_kernel srm launched);
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "thread resumed from saved state and finished" 50 !progress

(* Every load applies the grant: a kernel prepared at the default 100 %
   and launched at 40 % must read 40 % after a swap-in and after a node
   restart too, not the percentage of the spec it reloads from. *)
let test_reload_keeps_grant () =
  let inst, srm = make () in
  let ak = App_kernel.prepare inst ~name:"guest" () in
  let launched = ok (Srm.Manager.launch srm ak ~group_count:2 ~cpu_percent:40 ()) in
  let check step =
    match Instance.find_kernel inst (App_kernel.oid ak) with
    | None -> Alcotest.failf "%s: kernel not loaded" step
    | Some k ->
      Alcotest.(check (array int))
        (step ^ ": grant's percentage")
        (Array.make (Instance.n_cpus inst) 40)
        k.Kernel_obj.cpu_percent
  in
  check "launch";
  ok (Srm.Manager.swap_out_kernel srm launched);
  ok (Srm.Manager.swap_in_kernel srm launched);
  check "swap-in";
  Instance.crash inst;
  ok (Srm.Manager.restart_node srm);
  check "restart"

(* -- I/O policing -- *)

let test_io_policing () =
  let _, srm = make () in
  let count = ref 0 in
  let connected = ref true in
  let _tap =
    Srm.Manager.register_tap srm ~name:"hog" ~quota_per_epoch:10
      ~counter:(fun () -> !count)
      ~disconnect:(fun () -> connected := false)
      ~reconnect:(fun () -> connected := true)
  in
  count := 5;
  Srm.Manager.police_io srm;
  Alcotest.(check bool) "under quota: stays connected" true !connected;
  count := 50;
  Srm.Manager.police_io srm;
  Alcotest.(check bool) "over quota: disconnected" false !connected;
  count := 52;
  Srm.Manager.police_io srm;
  Alcotest.(check bool) "calmed down: reconnected" true !connected

(* -- Distributed coordination -- *)

let test_distrib_cosched_and_containment () =
  let net = Hw.Interconnect.create () in
  let make_node id =
    let inst =
      Instance.create (Hw.Mpm.create ~node_id:id ~cpus:2 ~mem_size:(32 * 1024 * 1024) ())
    in
    let srm = ok (Srm.Manager.boot inst ()) in
    let d = Srm.Distrib.start srm ~net in
    let body () =
      for _ = 1 to 100_000 do
        Hw.Exec.compute 2000;
        ignore (Hw.Exec.trap Api.Ck_yield)
      done
    in
    let tid =
      ok (App_kernel.spawn_internal srm.Srm.Manager.ak ~priority:4 (Hw.Exec.unit_body body))
    in
    let oid = Option.get (Thread_lib.oid_of srm.Srm.Manager.ak.App_kernel.threads tid) in
    Srm.Distrib.register_gang d ~gang:7 [ oid ];
    (inst, srm, d, oid)
  in
  let nodes = List.map make_node [ 0; 1; 2 ] in
  List.iter
    (fun (_, _, d, _) ->
      List.iter (fun (i, _, _, _) -> Srm.Distrib.add_peer d (Instance.node_id i)) nodes)
    nodes;
  let insts = Array.of_list (List.map (fun (i, _, _, _) -> i) nodes) in
  (* load reports propagate *)
  let _, _, d0, _ = List.hd nodes in
  List.iter (fun (_, _, d, _) -> Srm.Distrib.report_load d) nodes;
  ignore (Engine.run ~until_us:2_000.0 insts);
  Alcotest.(check int) "three load reports at node 0" 3
    (List.length (Srm.Distrib.load_reports d0));
  (* co-scheduling raises every node's gang member *)
  Srm.Distrib.coschedule d0 ~gang:7 ~priority:20;
  ignore (Engine.run ~until_us:4_000.0 insts);
  List.iter
    (fun (inst, _, _, oid) ->
      match Instance.find_thread inst oid with
      | Some th -> Alcotest.(check int) "gang member raised" 20 th.Thread_obj.priority
      | None -> () (* finished already: fine *))
    nodes;
  (* the raise times are close together across nodes (one fiber hop) *)
  let times =
    List.concat_map (fun (_, _, d, _) -> List.map snd (Srm.Distrib.cosched_applied d)) nodes
  in
  let tmin = List.fold_left min (List.hd times) times in
  let tmax = List.fold_left max (List.hd times) times in
  Alcotest.(check bool) "co-schedule skew < 500us" true (tmax -. tmin < 500.0);
  (* fault containment: halting node 1 leaves others progressing *)
  let i1, _, _, _ = List.nth nodes 1 in
  i1.Instance.halted <- true;
  Hw.Interconnect.fail_node net 1;
  let i0, _, _, _ = List.hd nodes in
  let t_before = Hw.Mpm.now i0.Instance.node in
  ignore (Engine.run ~until_us:12_000.0 insts);
  Alcotest.(check bool) "node 0 progressed after node 1 failure" true
    (Hw.Mpm.now i0.Instance.node > t_before)

(* Co-scheduling must hold up under fault injection: signal drops and
   stale loads perturb each node's local execution, but the coordination
   frames ride the interconnect, so every gang member still rises and the
   skew bound survives.  Seeds 1-3 exercise three distinct injection
   schedules; each run must leave every node audit-clean. *)
let test_cosched_under_chaos () =
  List.iter
    (fun seed ->
      let config =
        {
          Config.default with
          Config.chaos =
            Some
              {
                Config.chaos_default with
                Config.chaos_seed = seed;
                Config.signal_drop = 0.1;
                Config.stale_rate = 0.05;
              };
        }
      in
      let net = Hw.Interconnect.create () in
      let make_node id =
        let inst =
          Instance.create ~config
            (Hw.Mpm.create ~node_id:id ~cpus:2 ~mem_size:(32 * 1024 * 1024) ())
        in
        let srm = ok (Srm.Manager.boot inst ()) in
        let d = Srm.Distrib.start srm ~net in
        let body () =
          for _ = 1 to 100_000 do
            Hw.Exec.compute 2000;
            ignore (Hw.Exec.trap Api.Ck_yield)
          done
        in
        let tid =
          ok
            (App_kernel.spawn_internal srm.Srm.Manager.ak ~priority:4
               (Hw.Exec.unit_body body))
        in
        let oid = Option.get (Thread_lib.oid_of srm.Srm.Manager.ak.App_kernel.threads tid) in
        Srm.Distrib.register_gang d ~gang:7 [ oid ];
        (inst, srm, d, oid)
      in
      let nodes = List.map make_node [ 0; 1; 2 ] in
      List.iter
        (fun (_, _, d, _) ->
          List.iter (fun (i, _, _, _) -> Srm.Distrib.add_peer d (Instance.node_id i)) nodes)
        nodes;
      let insts = Array.of_list (List.map (fun (i, _, _, _) -> i) nodes) in
      let _, _, d0, _ = List.hd nodes in
      ignore (Engine.run ~until_us:2_000.0 insts);
      Srm.Distrib.coschedule d0 ~gang:7 ~priority:20;
      ignore (Engine.run ~until_us:4_000.0 insts);
      List.iter
        (fun (inst, _, _, oid) ->
          match Instance.find_thread inst oid with
          | Some th ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d: gang member raised" seed)
              20 th.Thread_obj.priority
          | None -> ())
        nodes;
      let times =
        List.concat_map
          (fun (_, _, d, _) -> List.map snd (Srm.Distrib.cosched_applied d))
          nodes
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: applied on every node" seed)
        3 (List.length times);
      let tmin = List.fold_left min (List.hd times) times in
      let tmax = List.fold_left max (List.hd times) times in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: skew < 500us" seed)
        true
        (tmax -. tmin < 500.0);
      List.iter
        (fun (inst, _, _, _) ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: node %d audit clean" seed (Instance.node_id inst))
            0
            (List.length (Audit.run inst).Audit.violations))
        nodes)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "srm"
    [
      ( "ledger",
        [
          Alcotest.test_case "allocate and release" `Quick test_ledger;
          Alcotest.test_case "double release is idempotent" `Quick
            test_ledger_double_release;
          QCheck_alcotest.to_alcotest ledger_model;
        ] );
      ( "launch",
        [
          Alcotest.test_case "grants bound the guest" `Quick test_launch_grants;
          Alcotest.test_case "kernel swap out and in" `Quick test_kernel_swap;
          Alcotest.test_case "a reload keeps the grant's percentage" `Quick
            test_reload_keeps_grant;
          Alcotest.test_case "misbehaving kernels are recorded" `Quick
            test_misbehaving_recorded;
        ] );
      ("policing", [ Alcotest.test_case "rate disconnect/reconnect" `Quick test_io_policing ]);
      ( "distrib",
        [
          Alcotest.test_case "co-scheduling and containment" `Quick
            test_distrib_cosched_and_containment;
          Alcotest.test_case "co-scheduling under chaos (seeds 1-3)" `Quick
            test_cosched_under_chaos;
        ] );
    ]
