(* Failure-recovery subsystem tests: heartbeat failure detection with
   quorum gating, epoch fencing, automatic failover (restart from
   writeback images), crash-atomic migration via a crash-point sweep over
   every protocol step, deterministic partition chaos with replay
   equality, stale-load-report expiry, restart observability, and ledger
   conservation across crash+failover (qcheck). *)

open Cachekernel
open Aklib
module C = Workload.Cluster

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let fo_config ?(heartbeat = 200.0) ?(suspect = 600.0) ?chaos () =
  {
    Config.default with
    Config.heartbeat_interval_us = heartbeat;
    suspect_timeout_us = suspect;
    chaos;
  }

let counter (i : Instance.t) name = Metrics.counter i.Instance.metrics name

let audit_clean what (i : Instance.t) =
  Alcotest.(check int)
    (Printf.sprintf "%s: node %d audit clean" what (Instance.node_id i))
    0
    (List.length (Audit.run i).Audit.violations)

let spin_body progress () =
  let rec loop () =
    Hw.Exec.compute 2000;
    incr progress;
    ignore (Hw.Exec.trap Api.Ck_yield);
    loop ()
  in
  loop ()

(* -- detection & fencing ------------------------------------------------- *)

let test_detector_declares () =
  let c = C.create ~config:(fo_config ()) ~auto_failover:false ~n:3 () in
  Trace.enable (C.inst c 0).Instance.trace;
  C.run ~until_us:2_000.0 c;
  C.crash c 2;
  C.run ~until_us:12_000.0 c;
  Alcotest.(check bool) "node 0 suspected first" true (counter (C.inst c 0) "fd.suspects" >= 1);
  Alcotest.(check int) "node 0 declared one death" 1 (counter (C.inst c 0) "fd.deaths");
  Alcotest.(check int) "node 1 agrees" 1 (counter (C.inst c 1) "fd.deaths");
  (match Srm.Distrib.node_state (C.dist c 0) 2 with
  | Srm.Distrib.Dead -> ()
  | _ -> Alcotest.fail "node 0 should see node 2 dead");
  (* death fences the next incarnation's epoch above the boot epoch *)
  Alcotest.(check int) "fence above boot epoch" 2 (Srm.Distrib.fence_epoch (C.dist c 0) 2);
  let dead_traced =
    List.exists
      (function Trace.Node_dead { node = 2; epoch = 2 } -> true | _ -> false)
      (Trace.events (C.inst c 0).Instance.trace)
  in
  Alcotest.(check bool) "Node_dead traced with fenced epoch" true dead_traced;
  (* without a failover driver the victim stays down *)
  Alcotest.(check bool) "victim stays halted" true (C.inst c 2).Instance.halted

let test_auto_failover () =
  let c = C.create ~config:(fo_config ()) ~n:3 () in
  Trace.enable (C.inst c 2).Instance.trace;
  ignore (C.spawn_load c 2 3);
  C.run ~until_us:2_000.0 c;
  C.crash c 2;
  C.run ~until_us:30_000.0 c;
  (* the leader adopted the death and restarted the victim from images *)
  Alcotest.(check bool) "victim restarted" true (not (C.inst c 2).Instance.halted);
  Alcotest.(check int) "srm.restart counted" 1 (counter (C.inst c 2) "srm.restart");
  Alcotest.(check bool) "restart duration observed" true
    (Metrics.observations (C.inst c 2).Instance.metrics "srm.restart_us" >= 1);
  Alcotest.(check int) "victim rejoined under the fenced epoch" 2
    (Srm.Distrib.epoch (C.dist c 2));
  let restart_traced =
    List.exists
      (function Trace.Node_restart { node = 2; epoch = 2 } -> true | _ -> false)
      (Trace.events (C.inst c 2).Instance.trace)
  in
  Alcotest.(check bool) "Node_restart traced" true restart_traced;
  (match Srm.Distrib.node_state (C.dist c 0) 2 with
  | Srm.Distrib.Alive -> ()
  | _ -> Alcotest.fail "leader should see the new incarnation alive");
  Alcotest.(check bool) "leader welcomed the rejoin" true
    (counter (C.inst c 0) "fd.rejoins" >= 1);
  Alcotest.(check bool) "rejoined node reports load again" true
    (List.mem_assoc 2 (Srm.Distrib.load_reports (C.dist c 0)));
  Array.iter (audit_clean "failover") (C.insts c)

(* A crash issued from inside a run (here a timer on node 0) and the
   recovery leader's failover callback act when they are called: the
   victim is halted with its port failed before [crash] returns, and it is
   running again under the fenced epoch before the callback returns. *)
let test_call_time_crash_and_failover () =
  let c = C.create ~config:(fo_config ()) ~n:3 () in
  ignore (C.spawn_load c 2 3);
  let down_at_once = ref false in
  Hw.Mpm.after (C.inst c 0).Instance.node ~delay:(Hw.Cost.cycles_of_us 2_000.0) (fun () ->
      C.crash c 2;
      down_at_once :=
        (C.inst c 2).Instance.halted && Hw.Interconnect.node_failed (C.net c) 2);
  let in_callback = ref [] in
  Srm.Distrib.set_failover (C.dist c 0)
    (Some
       (fun ~node ~epoch ->
         C.failover c ~node ~epoch;
         in_callback :=
           (node, (C.inst c node).Instance.halted, Srm.Distrib.epoch (C.dist c node))
           :: !in_callback));
  C.run ~until_us:30_000.0 c;
  Alcotest.(check bool) "crash took effect inside the call" true !down_at_once;
  Alcotest.(check (list (triple int bool int)))
    "victim restarted under the fenced epoch inside the callback" [ (2, false, 2) ]
    !in_callback;
  Alcotest.(check bool) "frames to the dead port were dropped" true
    (Hw.Interconnect.dropped (C.net c) > 0);
  Alcotest.(check bool) "port restored with the restart" false
    (Hw.Interconnect.node_failed (C.net c) 2);
  Array.iter (audit_clean "call-time failover") (C.insts c)

(* -- stale load reports (satellite) -------------------------------------- *)

let test_stale_reports_expire () =
  let config =
    { Config.default with Config.load_report_stale_us = 500.0 }
  in
  let c = C.create ~config ~n:2 () in
  (* booting the SRMs advances the clocks, so phase deadlines are relative
     to the post-boot present; node 0 carries spinning load so its clock
     (and thus the staleness judgement) keeps advancing while node 1 idles *)
  let boot_us = Hw.Cost.us_of_cycles (C.live_now c) in
  ignore (C.spawn_load c 0 2);
  Srm.Distrib.report_load (C.dist c 0);
  Srm.Distrib.report_load (C.dist c 1);
  C.run ~until_us:(boot_us +. 300.0) c;
  Alcotest.(check int) "both reports fresh" 2
    (List.length (Srm.Distrib.load_reports (C.dist c 0)));
  (* node 1 goes silent past the staleness window: its report expires and
     it can no longer be chosen as a balancing target *)
  C.run ~until_us:(boot_us +. 2_000.0) c;
  Alcotest.(check (list (pair int int))) "silent peer expired" [ (0, 0) ]
    (Srm.Distrib.load_reports (C.dist c 0));
  Alcotest.(check bool) "expiry counted" true
    (counter (C.inst c 0) "balance.stale_dropped" >= 1);
  (* a fresh report re-admits the node *)
  Srm.Distrib.report_load (C.dist c 1);
  C.run ~until_us:(boot_us +. 2_300.0) c;
  Alcotest.(check int) "fresh report re-admitted" 2
    (List.length (Srm.Distrib.load_reports (C.dist c 0)))

(* -- partitions: quorum safety, self-fence, heal ------------------------- *)

let test_partition_quorum_and_selffence () =
  let c = C.create ~config:(fo_config ()) ~n:4 () in
  C.run ~until_us:2_000.0 c;
  Hw.Interconnect.partition (C.net c) ~minority:[ 3 ];
  C.run ~until_us:6_000.0 c;
  (* majority (0,1,2) has quorum: it declares 3 dead.  The minority side
     suspects everyone but can never confirm. *)
  Alcotest.(check int) "majority declared the cut node" 1 (counter (C.inst c 0) "fd.deaths");
  Alcotest.(check bool) "minority suspects" true (counter (C.inst c 3) "fd.suspects" >= 3);
  Alcotest.(check int) "minority never declares" 0 (counter (C.inst c 3) "fd.deaths");
  Alcotest.(check bool) "cut node still running" true (not (C.inst c 3).Instance.halted);
  Hw.Interconnect.heal (C.net c);
  C.run ~until_us:12_000.0 c;
  (* on heal the fenced node learns its fate from a heartbeat's
     [your_epoch] and rejoins through restart semantics *)
  Alcotest.(check int) "cut node self-fenced" 1 (counter (C.inst c 3) "fd.self_fenced");
  Alcotest.(check int) "self-fence restarted the node" 1 (counter (C.inst c 3) "srm.restart");
  Alcotest.(check int) "rejoined under the fenced epoch" 2 (Srm.Distrib.epoch (C.dist c 3));
  (match Srm.Distrib.node_state (C.dist c 0) 3 with
  | Srm.Distrib.Alive -> ()
  | _ -> Alcotest.fail "majority should see node 3 alive again");
  Array.iter (audit_clean "partition") (C.insts c)

(* -- chaos-driven partition with deterministic replay --------------------

   The replay compares the full observable surface ({!C.fingerprint}):
   every node's clock, metrics and trace must be byte-identical. *)

let partition_chaos_run seed =
  let chaos =
    {
      Config.chaos_default with
      Config.chaos_seed = seed;
      partition_at_us = Some 3_000.0;
      partition_for_us = 4_000.0;
      partition_minority = 1;
    }
  in
  let c = C.create ~config:(fo_config ~chaos ()) ~n:4 () in
  Array.iter (fun (i : Instance.t) -> Trace.enable i.Instance.trace) (C.insts c);
  C.run ~until_us:40_000.0 c;
  let per_node name = Array.to_list (Array.map (fun i -> counter i name) (C.insts c)) in
  let self_fenced = List.fold_left ( + ) 0 (per_node "fd.self_fenced") in
  let restarts = List.fold_left ( + ) 0 (per_node "srm.restart") in
  let all_up = Array.for_all (fun (i : Instance.t) -> not i.Instance.halted) (C.insts c) in
  let all_alive_at_0 =
    List.for_all
      (fun n -> Srm.Distrib.node_state (C.dist c 0) n = Srm.Distrib.Alive)
      [ 1; 2; 3 ]
  in
  ( C.fingerprint (C.insts c),
    self_fenced,
    restarts,
    counter (C.inst c 0) "fd.deaths",
    all_up,
    all_alive_at_0 )

let test_partition_chaos_replay () =
  List.iter
    (fun seed ->
      let s1, self_fenced, restarts, deaths0, all_up, all_alive = partition_chaos_run seed in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one node was cut and self-fenced" seed)
        1 self_fenced;
      Alcotest.(check int) (Printf.sprintf "seed %d: one restart" seed) 1 restarts;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: majority leader declared the death" seed)
        true (deaths0 >= 1);
      Alcotest.(check bool) (Printf.sprintf "seed %d: every node ends up" seed) true all_up;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cluster reconverged at node 0" seed)
        true all_alive;
      let s2, _, _, _, _, _ = partition_chaos_run seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d replays identically" seed)
        s1 s2)
    [ 1; 2; 3 ]

(* A loaded cluster with the balancer moving threads, chunk loss and a
   partition — the traffic mix of [ckos cluster] — replays byte for byte
   from its seed. *)
let loaded_cluster_run seed =
  let chaos =
    {
      Config.chaos_default with
      Config.chaos_seed = seed;
      migrate_drop = 0.1;
      partition_at_us = Some 4_000.0;
      partition_for_us = 3_000.0;
      partition_minority = 1;
    }
  in
  let config = { (fo_config ~chaos ()) with Config.balance_interval_us = 500.0 } in
  let c = C.create ~config ~n:4 () in
  Array.iter (fun (i : Instance.t) -> Trace.enable i.Instance.trace) (C.insts c);
  ignore (C.spawn_load c 0 ~iterations:2_000 8);
  ignore (C.spawn_load c 1 ~iterations:2_000 2);
  C.run ~until_us:30_000.0 c;
  let moves = Array.fold_left (fun a i -> a + counter i "balance.moves") 0 (C.insts c) in
  let all_up = Array.for_all (fun (i : Instance.t) -> not i.Instance.halted) (C.insts c) in
  (C.fingerprint (C.insts c), moves, all_up)

let test_loaded_cluster_replay () =
  List.iter
    (fun seed ->
      let fp1, moves, all_up = loaded_cluster_run seed in
      Alcotest.(check bool) (Printf.sprintf "seed %d: balancer moved threads" seed) true
        (moves > 0);
      Alcotest.(check bool) (Printf.sprintf "seed %d: every node ends up" seed) true all_up;
      let fp2, _, _ = loaded_cluster_run seed in
      Alcotest.(check string) (Printf.sprintf "seed %d replays identically" seed) fp1 fp2)
    [ 1; 2 ]

(* -- crash-point sweep: crash-atomic migration --------------------------- *)

let ws_name = "fows"

(* A 3-node cluster (0 witness/leader, 1 source, 2 destination) with a
   4-page space and one spinning thread on the source, ready to migrate.
   Returns the thread's progress counter too. *)
let migration_setup ?(config = fo_config ()) () =
  let c = C.create ~config ~n:3 () in
  let ak1 = (C.srm c 1).Srm.Manager.ak in
  let mgr = ak1.App_kernel.mgr in
  let ws = 4 in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:ws_name ~pages:ws in
  Segment_mgr.write_segment_now mgr seg ~offset:0
    (Bytes.init (ws * Hw.Addr.page_size) (fun i -> Char.chr (1 + (i mod 251))));
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages:ws ~segment:seg ~seg_offset:0 ());
  let progress = ref 0 in
  ignore
    (ok
       (Thread_lib.spawn ak1.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body (spin_body progress))));
  (c, vsp.Segment_mgr.tag, progress)

(* The workspace travels under a fresh local space tag at each residence,
   so the authoritative copy is identified by its segment's name: a node
   "holds" it when some space has a region backed by a segment named
   [ws_name], and the copy is "live" when a non-exited thread is bound to
   that space. *)
let ws_space (ak : App_kernel.t) =
  List.find_opt
    (fun (vsp : Segment_mgr.vspace) ->
      List.exists
        (fun (r : Region.t) -> r.Region.segment.Segment.name = ws_name)
        vsp.Segment_mgr.regions)
    (Segment_mgr.list_spaces ak.App_kernel.mgr)

let live_copy_census c =
  let holders = ref 0 and live_threads = ref 0 in
  Array.iter
    (fun i ->
      let ak = (C.srm c i).Srm.Manager.ak in
      match ws_space ak with
      | None -> ()
      | Some vsp ->
        incr holders;
        Thread_lib.iter ak.App_kernel.threads (fun e ->
            if e.Thread_lib.space_tag = vsp.Segment_mgr.tag && e.Thread_lib.run <> Thread_lib.Exited
            then incr live_threads))
    [| 0; 1; 2 |];
  (!holders, !live_threads)

(* Run one clean migration and record the protocol steps actually hit, in
   order — the sweep then crashes at each of them, so new steps are swept
   automatically and a renamed step fails loudly. *)
let discover_steps () =
  let c, tag, _ = migration_setup () in
  let seen = ref [] in
  let hook name = if not (List.mem name !seen) then seen := name :: !seen in
  Migrate.Plane.set_step_hook (Srm.Distrib.plane (C.dist c 1)) (Some hook);
  Migrate.Plane.set_step_hook (Srm.Distrib.plane (C.dist c 2)) (Some hook);
  C.run ~until_us:2_000.0 c;
  ignore (ok (Migrate.Plane.move_space (Srm.Distrib.plane (C.dist c 1)) ~dst:2 tag));
  C.run ~until_us:40_000.0 c;
  let holders, live = live_copy_census c in
  Alcotest.(check (pair int int)) "clean migration: one live copy at dst" (1, 1)
    (holders, live);
  List.rev !seen

let sweep_one step =
  let c, tag, _ = migration_setup () in
  let victim = if String.length step >= 4 && String.sub step 0 4 = "src." then 1 else 2 in
  C.run ~until_us:2_000.0 c;
  let fired = ref false in
  let hook name =
    if (not !fired) && name = step then begin
      fired := true;
      C.crash c victim
    end
  in
  Migrate.Plane.set_step_hook (Srm.Distrib.plane (C.dist c victim)) (Some hook);
  ignore (ok (Migrate.Plane.move_space (Srm.Distrib.plane (C.dist c 1)) ~dst:2 tag));
  C.run ~until_us:80_000.0 c;
  Alcotest.(check bool) (step ^ ": crash point exercised") true !fired;
  Alcotest.(check bool)
    (step ^ ": victim restarted")
    true
    (not (C.inst c victim).Instance.halted);
  Alcotest.(check bool)
    (step ^ ": victim rejoined under a bumped epoch")
    true
    (Srm.Distrib.epoch (C.dist c victim) >= 2);
  let holders, live = live_copy_census c in
  Alcotest.(check int) (step ^ ": exactly one node holds the workspace") 1 holders;
  Alcotest.(check int) (step ^ ": exactly one live thread") 1 live;
  Array.iter (audit_clean step) (C.insts c)

let test_crash_point_sweep_src () =
  let steps = discover_steps () in
  let src_steps = List.filter (fun s -> String.sub s 0 4 = "src.") steps in
  Alcotest.(check bool) "source-side steps discovered" true (List.length src_steps >= 3);
  Alcotest.(check bool) "per-chunk source steps discovered" true
    (List.mem "src.chunk.0" src_steps && List.mem "src.chunk.1" src_steps);
  List.iter sweep_one src_steps

let test_crash_point_sweep_dst () =
  let steps = discover_steps () in
  let dst_steps = List.filter (fun s -> String.sub s 0 4 = "dst.") steps in
  Alcotest.(check bool) "destination-side steps discovered" true (List.length dst_steps >= 3);
  Alcotest.(check bool) "per-chunk destination steps discovered" true
    (List.mem "dst.chunk.0" dst_steps && List.mem "dst.chunk.1" dst_steps);
  List.iter sweep_one dst_steps

(* -- recovery branches of the commit protocol ------------------------------

   The heartbeat detector is off (the default config), so no [peer_dead]
   notification steps in: each case reaches its branch through the
   source plane's own timers and the destination's control frames. *)

(* Move the workspace from node 1 to node 2, calling [action] once at the
   source's protocol step [step], and run until every resend schedule has
   run out (7 timers of 800 us doubling: ~102 ms). *)
let recovery_run ~step action =
  let c, tag, progress = migration_setup ~config:Config.default () in
  C.run ~until_us:2_000.0 c;
  let src = Srm.Distrib.plane (C.dist c 1) in
  let fired = ref false in
  Migrate.Plane.set_step_hook src
    (Some
       (fun name ->
         if (not !fired) && name = step then begin
           fired := true;
           action c
         end));
  ignore (ok (Migrate.Plane.move_space src ~dst:2 tag));
  C.run ~until_us:150_000.0 c;
  Alcotest.(check bool) (step ^ ": hook fired") true !fired;
  (c, progress)

(* Exactly one node holds the workspace — node [at] — with one live
   thread, and that thread keeps running; every node audits clean. *)
let one_running_copy what c progress ~at =
  Alcotest.(check (pair int int)) (what ^ ": one holder, one live thread") (1, 1)
    (live_copy_census c);
  Alcotest.(check bool)
    (Printf.sprintf "%s: node %d holds it" what at)
    true
    (ws_space (C.srm c at).Srm.Manager.ak <> None);
  let before = !progress in
  C.run ~until_us:(Hw.Cost.us_of_cycles (C.live_now c) +. 5_000.0) c;
  Alcotest.(check bool) (what ^ ": the copy runs") true (!progress > before);
  Array.iter (audit_clean what) (C.insts c)

(* The destination's port fails mid-ship: every retransmission is lost,
   the watchdog gives up and the source re-adopts its retained image. *)
let test_retransmit_exhaustion () =
  let c, progress =
    recovery_run ~step:"src.chunk.1" (fun c -> Hw.Interconnect.fail_node (C.net c) 2)
  in
  Alcotest.(check int) "abandoned" 1 (counter (C.inst c 1) "migrate.abandoned");
  Alcotest.(check int) "re-adopted at the source" 1 (counter (C.inst c 1) "migrate.readopted");
  Alcotest.(check int) "never completed" 0 (counter (C.inst c 1) "migrate.completed");
  one_running_copy "retransmit exhaustion" c progress ~at:1

(* The destination's port fails right after it acked: the parked copy is
   never committed and the commit resends run out.  The transfer stays
   pending (only the peer can say whether its copy survived); once the
   port is back, the rejoin notification re-drives the commit. *)
let test_commit_resend_exhaustion () =
  let c, progress =
    recovery_run ~step:"src.acked" (fun c -> Hw.Interconnect.fail_node (C.net c) 2)
  in
  Alcotest.(check int) "commit stalled" 1 (counter (C.inst c 1) "migrate.commit_stalled");
  Alcotest.(check int) "not completed yet" 0 (counter (C.inst c 1) "migrate.completed");
  Alcotest.(check int) "nothing re-adopted" 0 (counter (C.inst c 1) "migrate.readopted");
  Alcotest.(check int) "parked copy not scheduled" 0 (counter (C.inst c 2) "migrate.adopted");
  Hw.Interconnect.restore_node (C.net c) 2;
  Migrate.Plane.peer_rejoined (Srm.Distrib.plane (C.dist c 1)) ~node:2;
  C.run ~until_us:(Hw.Cost.us_of_cycles (C.live_now c) +. 5_000.0) c;
  Alcotest.(check int) "completed after the re-driven commit" 1
    (counter (C.inst c 1) "migrate.completed");
  one_running_copy "commit resend exhaustion" c progress ~at:2

(* The destination crashes and rejoins right after it acked: its restart
   purges the parked copy, so it answers the commit with an abort-ack and
   the source re-adopts. *)
let test_abort_ack_while_committing () =
  let c, progress =
    recovery_run ~step:"src.acked" (fun c ->
        C.crash c 2;
        ignore (ok (Srm.Distrib.rejoin (C.dist c 2) ~epoch:2)))
  in
  Alcotest.(check int) "parked copy purged" 1 (counter (C.inst c 2) "migrate.purged");
  Alcotest.(check int) "re-adopted at the source" 1 (counter (C.inst c 1) "migrate.readopted");
  Alcotest.(check int) "never completed" 0 (counter (C.inst c 1) "migrate.completed");
  one_running_copy "abort-ack while committing" c progress ~at:1

(* -- ledger conservation across crash+failover (qcheck satellite) -------- *)

let prop_ledger_conserved =
  QCheck.Test.make ~count:6 ~name:"ledger conserved across crash+failover"
    QCheck.(pair (int_range 1 2) (int_range 1_500 4_000))
    (fun (victim, crash_us) ->
      let c = C.create ~config:(fo_config ()) ~n:3 () in
      let inst = C.inst c victim in
      let srm = C.srm c victim in
      let ak, spec = App_kernel.prepare inst ~name:"guest" () in
      let _launched =
        match Srm.Manager.launch srm (ak, spec) ~group_count:2 ~cpu_percent:20 () with
        | Ok l -> l
        | Error e -> QCheck.Test.fail_reportf "launch: %a" Api.pp_error e
      in
      ignore (C.spawn_load c victim 2);
      C.run ~until_us:(float_of_int crash_us) c;
      let ledger = Srm.Manager.ledger srm in
      let free_before = Srm.Ledger.free_group_count ledger in
      C.crash c victim;
      C.run ~until_us:(float_of_int crash_us +. 30_000.0) c;
      (not inst.Instance.halted)
      && Srm.Ledger.audit ledger ~repair:false = []
      && Srm.Ledger.free_group_count ledger = free_before
      && (Audit.run inst).Audit.violations = [])

let () =
  Alcotest.run "failover"
    [
      ( "detector",
        [
          Alcotest.test_case "quorum detection declares a dead node" `Quick
            test_detector_declares;
          Alcotest.test_case "stale load reports expire" `Quick test_stale_reports_expire;
        ] );
      ( "failover",
        [
          Alcotest.test_case "automatic restart from writeback images" `Quick
            test_auto_failover;
          Alcotest.test_case "crash and failover act at call time" `Quick
            test_call_time_crash_and_failover;
        ] );
      ( "partition",
        [
          Alcotest.test_case "quorum safety and self-fence on heal" `Quick
            test_partition_quorum_and_selffence;
          Alcotest.test_case "chaos partition: deterministic replay" `Slow
            test_partition_chaos_replay;
          Alcotest.test_case "loaded cluster with balancing: deterministic replay" `Slow
            test_loaded_cluster_replay;
        ] );
      ( "crash-atomic migration",
        [
          Alcotest.test_case "crash-point sweep (source side)" `Slow
            test_crash_point_sweep_src;
          Alcotest.test_case "crash-point sweep (destination side)" `Slow
            test_crash_point_sweep_dst;
        ] );
      ( "migration recovery",
        [
          Alcotest.test_case "retransmit exhaustion re-adopts" `Quick test_retransmit_exhaustion;
          Alcotest.test_case "commit resend exhaustion waits" `Quick
            test_commit_resend_exhaustion;
          Alcotest.test_case "abort-ack while committing re-adopts" `Quick
            test_abort_ack_while_committing;
        ] );
      ( "conservation",
        [ QCheck_alcotest.to_alcotest ~long:false prop_ledger_conserved ] );
    ]
