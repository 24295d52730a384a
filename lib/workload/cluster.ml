(* Failover-capable multi-node scaffolding shared by the robustness tests
   and the `ckos bench fo` scenario.

   Builds an [n]-node cluster on one interconnect — instance, booted SRM
   and distributed layer per node, all-to-all peering — and wires the
   detector's failover callback so a quorum-confirmed death automatically
   restarts the victim from its writeback images: the recovery leader (the
   lowest-id live node, see {!Srm.Distrib}) invokes {!failover}, which
   idles the victim's CPUs forward to the cluster's present (a restarted
   machine rejoins at wall-clock now, not at the instant it crashed) and
   drives {!Srm.Distrib.rejoin} under the fenced epoch.

   A victim that is merely partitioned is left alone here — its own
   self-fence path (triggered by the next heartbeat it hears) performs the
   crash-and-rejoin, preserving the invariant that a declared-dead node
   only ever comes back through restart semantics. *)

open Cachekernel

type node = { inst : Instance.t; srm : Srm.Manager.t; dist : Srm.Distrib.t }

type t = { net : Hw.Interconnect.t; nodes : node array }

let net t = t.net
let node t i = t.nodes.(i)
let inst t i = t.nodes.(i).inst
let srm t i = t.nodes.(i).srm
let dist t i = t.nodes.(i).dist
let insts t = Array.map (fun n -> n.inst) t.nodes

(** Cluster-wide "now" over the nodes that are still running, in cycles. *)
let live_now t =
  Array.fold_left
    (fun acc n -> if n.inst.Instance.halted then acc else max acc (Hw.Mpm.now n.inst.Instance.node))
    0 t.nodes

(** Automatic failover driver (installed as every node's
    {!Srm.Distrib.set_failover} callback). *)
let failover t ~node:victim ~epoch =
  let n = t.nodes.(victim) in
  if n.inst.Instance.halted then begin
    (* the restarted incarnation's clock starts at the cluster's present:
       detection latency is part of the downtime, not erased by it *)
    let now = live_now t in
    Array.iter (fun c -> Hw.Cpu.idle_until c now) n.inst.Instance.node.Hw.Mpm.cpus;
    ignore (Srm.Distrib.rejoin n.dist ~epoch)
  end
  (* else: partitioned-but-alive — the victim self-fences on the next
     heartbeat carrying its fenced epoch *)

let create ?config ?(cpus = 2) ?(auto_failover = true) ~n () =
  let net = Hw.Interconnect.create () in
  let make id =
    let inst = Setup.instance ?config ~cpus ~node_id:id () in
    let srm = Setup.ok (Srm.Manager.boot inst ()) in
    let dist = Srm.Distrib.start srm ~net in
    { inst; srm; dist }
  in
  let nodes = Array.init n make in
  let t = { net; nodes } in
  Array.iter
    (fun a -> Array.iter (fun b -> Srm.Distrib.add_peer a.dist (Instance.node_id b.inst)) nodes)
    nodes;
  if auto_failover then
    Array.iter
      (fun a -> Srm.Distrib.set_failover a.dist (Some (fun ~node ~epoch -> failover t ~node ~epoch)))
      nodes;
  t

(** Hard-kill node [i]: halt the MPM (losing all volatile supervisor
    state) and fail its interconnect port so in-flight frames to and from
    it drop — the two always travel together in a real machine crash. *)
let crash t i =
  Instance.crash t.nodes.(i).inst;
  Hw.Interconnect.fail_node t.net (Instance.node_id t.nodes.(i).inst)

(** Run the cluster's engines until [until_us] (or quiescence). *)
let run ?until_us t = ignore (Engine.run ?until_us (insts t))

(** The full observable surface of a run, for same-seed replay checks:
    every node's clock, halted flag, metrics JSON (counters and histogram
    summaries) and trace JSON (events with simulated timestamps), in node
    order. *)
let fingerprint (insts : Instance.t array) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun (i : Instance.t) ->
            Printf.sprintf "node%d now=%d halted=%b\n%s\n%s" (Instance.node_id i)
              (Hw.Mpm.now i.Instance.node) i.Instance.halted
              (Json.to_string (Metrics.to_json i.Instance.metrics))
              (Json.to_string (Trace.to_json i.Instance.trace)))
          insts))

(** Spawn [count] self-yielding compute threads on node [i] — detectable
    load for balancing/failover experiments.  Returns the thread oids. *)
let spawn_load t i ?(priority = 4) ?(iterations = 100_000) count =
  let ak = t.nodes.(i).srm.Srm.Manager.ak in
  List.init count (fun _ ->
      let body () =
        for _ = 1 to iterations do
          Hw.Exec.compute 2000;
          ignore (Hw.Exec.trap Api.Ck_yield)
        done
      in
      let tid = Setup.ok (Aklib.App_kernel.spawn_internal ak ~priority (Hw.Exec.unit_body body)) in
      Option.get (Aklib.Thread_lib.oid_of ak.Aklib.App_kernel.threads tid))
