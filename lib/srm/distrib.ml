(* Distributed SRM coordination across MPMs (section 3).

   "The SRM communicates with other instances of itself on other MPMs
   using the RPC facility, coordinating to provide distributed scheduling."
   Each SRM owns the node's fiber-channel interface and exchanges load
   reports and co-scheduling requests; co-scheduling raises the priority of
   all of a gang's threads at (nearly) the same time across nodes, the
   pattern section 2.3 describes for large parallel applications.

   The same channel carries the migration plane's traffic: image chunks,
   acks, commit-protocol control frames and forwarded signals
   ({!Migrate.Plane}), and — when [Config.balance_interval_us] is set — a
   periodic balancing loop that moves runnable threads from the most- to
   the least-loaded node until the spread is within
   [Config.balance_hysteresis].

   Failure detection and fencing (DESIGN.md section 10): every frame is
   stamped with the sender's *epoch*, a monotonically increasing
   incarnation number.  When [Config.heartbeat_interval_us] is set each
   node broadcasts heartbeats (piggybacking its load report) and runs a
   suspicion state machine over peer silence: silent past
   [suspect_timeout_us] -> Suspect; past twice that -> Dead, *if* this
   node can see a quorum of the cluster (a minority partition may suspect
   but never declares, so an even or minority side cannot shoot the
   majority).  Declaring a peer dead fences it — its next epoch is
   recorded and frames below it are rejected — and the lowest-id live
   node drives failover through the installed callback.  A fenced node
   that is in fact alive (a healed partition) learns its fate from the
   [your_epoch] field of the next heartbeat it receives and self-fences:
   it crashes its own instance (cache invalidation, the paper's recovery
   contract) and rejoins through {!rejoin} with the bumped epoch —
   partitioned-but-alive nodes rejoin via restart semantics, never by
   resuming as if nothing happened.

   Messages travel over the fiber-channel NIC; reception is handled in the
   SRM's driver context.  (The prototype runs these exchanges over the
   object-oriented RPC library; the wire path and latency here are the
   same, only the stub layer is collapsed — recorded in DESIGN.md.) *)

open Cachekernel

type message =
  | Load_report of { node : int; runnable : int }
  | Coschedule of { gang : int; priority : int }
  | Migrate_chunk of { xfer : int; seq : int; total : int; buf : Bytes.t; off : int; len : int }
      (* the [len] bytes of [buf] at [off]: a slice of the sender's image,
         or a view into the received frame *)
  | Migrate_ack of { xfer : int; ok : bool }
  | Migrate_signal of { xfer : int; tag : int; va : int }
  | Heartbeat of { node : int; runnable : int; your_epoch : int }
      (* [your_epoch] is the sender's fence for the *destination*: a
         receiver whose own epoch is below it has been declared dead and
         must self-fence *)
  | Migrate_ctl of { xfer : int; op : int }
      (* commit-protocol control frame; [op] is a {!Migrate.Plane} op_* *)

(* Wire encoding: little-endian int32 words; word 0 the tag, word 1 the
   sender's epoch.  Fixed-size messages are 2–3 payload words;
   Migrate_chunk carries a length-prefixed byte payload after a 6-word
   header. *)

(* A frame of header words followed by [extra] bytes for the caller. *)
let words ~epoch ?(extra = 0) tag ws =
  let b = Bytes.create ((4 * (2 + List.length ws)) + extra) in
  Bytes.set_int32_le b 0 (Int32.of_int tag);
  Bytes.set_int32_le b 4 (Int32.of_int epoch);
  List.iteri (fun i w -> Bytes.set_int32_le b (4 * (i + 2)) (Int32.of_int w)) ws;
  b

let encode ?(epoch = 1) = function
  | Load_report { node; runnable } -> words ~epoch 0 [ node; runnable ]
  | Coschedule { gang; priority } -> words ~epoch 1 [ gang; priority ]
  | Migrate_chunk { xfer; seq; total; buf; off; len } ->
    let b = words ~epoch ~extra:len 2 [ xfer; seq; total; len ] in
    Bytes.blit buf off b 24 len;
    b
  | Migrate_ack { xfer; ok } -> words ~epoch 3 [ xfer; (if ok then 1 else 0) ]
  | Migrate_signal { xfer; tag; va } -> words ~epoch 4 [ xfer; tag; va ]
  | Heartbeat { node; runnable; your_epoch } -> words ~epoch 5 [ node; runnable; your_epoch ]
  | Migrate_ctl { xfer; op } -> words ~epoch 6 [ xfer; op ]

let decode b =
  let len = Bytes.length b in
  if len < 12 then None
  else
    let w i = Int32.to_int (Bytes.get_int32_le b (4 * i)) in
    let epoch = w 1 in
    if epoch < 0 then None
    else
      let msg =
        match w 0 with
        | 0 -> if len < 16 then None else Some (Load_report { node = w 2; runnable = w 3 })
        | 1 -> if len < 16 then None else Some (Coschedule { gang = w 2; priority = w 3 })
        | 2 ->
          if len < 24 then None
          else
            let plen = w 5 in
            if plen < 0 || len < 24 + plen then None
            else
              Some (Migrate_chunk { xfer = w 2; seq = w 3; total = w 4; buf = b; off = 24; len = plen })
        | 3 ->
          if len < 16 then None
          else (
            match w 3 with
            | 0 -> Some (Migrate_ack { xfer = w 2; ok = false })
            | 1 -> Some (Migrate_ack { xfer = w 2; ok = true })
            | _ -> None)
        | 4 ->
          if len < 20 then None else Some (Migrate_signal { xfer = w 2; tag = w 3; va = w 4 })
        | 5 ->
          if len < 20 then None
          else Some (Heartbeat { node = w 2; runnable = w 3; your_epoch = w 4 })
        | 6 ->
          if len < 16 then None
          else
            let op = w 3 in
            if op < 0 || op > 3 then None else Some (Migrate_ctl { xfer = w 2; op })
        | _ -> None
      in
      Option.map (fun m -> (epoch, m)) msg

(* Co-schedule applications kept for skew measurement: newest first,
   bounded — an unbounded log was the subsystem's only unbounded state. *)
let max_cosched_kept = 64

type peer_state = Alive | Suspect | Dead

type t = {
  srm : Manager.t;
  nic : Hw.Nic.Fiber.t;
  net : Hw.Interconnect.t;
  node_id : int;
  mutable peers : int list;
  gangs : (int, Oid.t list ref) Hashtbl.t; (* gang id -> local member threads *)
  load_reports : (int, int) Hashtbl.t; (* node -> last reported runnable *)
  report_stamp : (int, float) Hashtbl.t; (* node -> report time (us); staleness *)
  mutable cosched_applied : (int * float) list; (* gang -> local apply time (us) *)
  plane : Migrate.Plane.t;
  mutable balancing : bool; (* the periodic loop is armed *)
  (* failure detection & fencing *)
  epoch : int ref; (* this node's incarnation; stamped on every frame *)
  peer_epochs : (int, int) Hashtbl.t; (* highest accepted epoch / fence value *)
  last_heard : (int, float) Hashtbl.t; (* peer -> last frame time (us) *)
  states : (int, peer_state) Hashtbl.t;
  mutable hb_gen : int; (* heartbeat-loop generation; bumped on restart *)
  mutable partition_checked : bool; (* chaos partition plan armed once *)
  mutable on_failover : (node:int -> epoch:int -> unit) option;
}

let inst t = t.srm.Manager.inst
let now_us t = Hw.Cost.us_of_cycles (Hw.Mpm.now (inst t).Instance.node)
let transmit t msg ~dst = Hw.Nic.Fiber.transmit t.nic ~dst (encode ~epoch:!(t.epoch) msg)

(* All nodes boot at epoch 1, so a peer we never heard from is still
   fenced *above* 1 when declared dead. *)
let fence t node = match Hashtbl.find_opt t.peer_epochs node with Some e -> e | None -> 1

(* Apply a co-schedule request locally: raise every member thread of the
   gang to [priority] "at the same time". *)
let apply_cosched t ~gang ~priority =
  match Hashtbl.find_opt t.gangs gang with
  | None -> ()
  | Some members ->
    let inst = t.srm.Manager.inst in
    List.iter
      (fun th_oid -> ignore (Api.set_priority inst ~caller:(Manager.oid t.srm) th_oid priority))
      !members;
    t.cosched_applied <-
      ((gang, Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node)) :: t.cosched_applied
      |> List.filteri (fun i _ -> i < max_cosched_kept))

let local_runnable t = Scheduler.length t.srm.Manager.inst.Instance.sched

let record_report t ~node ~runnable =
  if Hashtbl.find_opt t.states node <> Some Dead then begin
    Hashtbl.replace t.load_reports node runnable;
    Hashtbl.replace t.report_stamp node (now_us t)
  end

(* -- restart / rejoin ---------------------------------------------------- *)

(* Bring this (crashed) node back under [epoch]: purge un-committed
   migration landings, reboot the kernels from writeback images, restore
   the interconnect port, restart the detector with a fresh grace window
   and resume in-flight transfers under the new epoch.  This is the only
   way back into the cluster — the fencing rule makes a fenced node's old
   frames undeliverable, so there is no resume-as-if-nothing-happened. *)
let rec rejoin t ~epoch =
  let i = inst t in
  if not i.Instance.halted then Error (Api.Bad_argument "node has not crashed")
  else begin
    t.epoch := max !(t.epoch) epoch;
    Migrate.Plane.purge_uncommitted t.plane;
    match Manager.restart_node ~epoch:!(t.epoch) t.srm with
    | Error e -> Error e
    | Ok () ->
      Hw.Interconnect.restore_node t.net t.node_id;
      Hashtbl.reset t.last_heard;
      Hashtbl.reset t.states;
      Hashtbl.reset t.load_reports;
      Hashtbl.reset t.report_stamp;
      t.hb_gen <- t.hb_gen + 1;
      arm_heartbeat t;
      Migrate.Plane.resume_transfers t.plane;
      report_load t;
      Ok ()
  end

(* The cluster declared us dead while we were (partitioned but) alive: the
   only safe way forward is the paper's recovery contract — discard the
   cached kernel state and rejoin as a new incarnation. *)
and self_fence t ~epoch =
  let i = inst t in
  Instance.count i "fd.self_fenced";
  Instance.crash i;
  Hw.Interconnect.fail_node t.net t.node_id;
  ignore (rejoin t ~epoch)

(* -- failure detector ---------------------------------------------------- *)

and quorum t =
  let n = 1 + List.length t.peers in
  (* a 2-node cluster has no split-brain-safe quorum; prefer availability *)
  if n >= 3 then (n / 2) + 1 else 1

and declare_dead t ~node =
  let i = inst t in
  let next = fence t node + 1 in
  Hashtbl.replace t.states node Dead;
  Hashtbl.replace t.peer_epochs node next;
  Hashtbl.remove t.load_reports node;
  Hashtbl.remove t.report_stamp node;
  Instance.count i "fd.deaths";
  Instance.trace i (Trace.Node_dead { node; epoch = next });
  (* in-flight transfers toward the dead node re-adopt here *)
  Migrate.Plane.peer_dead t.plane ~node;
  (* the lowest-id node that still sees the cluster drives the failover *)
  let live =
    List.filter (fun p -> p <> node && Hashtbl.find_opt t.states p <> Some Dead) t.peers
  in
  let leader = List.fold_left min t.node_id live in
  if t.node_id = leader then begin
    Instance.count i "fd.failovers";
    match t.on_failover with Some f -> f ~node ~epoch:next | None -> ()
  end

and detector_tick t =
  let i = inst t in
  let cfg = i.Instance.config in
  let timeout = cfg.Config.suspect_timeout_us in
  let now = now_us t in
  let heard p =
    match Hashtbl.find_opt t.last_heard p with
    | Some us -> us
    | None ->
      (* first sight: grant a full grace window before suspicion *)
      Hashtbl.replace t.last_heard p now;
      now
  in
  let silent p = now -. heard p > timeout in
  (* Confirmation threshold: the detector only samples on heartbeat ticks,
     so the tick that notices the threshold crossing lags it by up to one
     interval; and a crash happens up to [flight] after the victim's last
     frame was heard.  Discounting one interval keeps the end-to-end
     envelope (crash -> declared dead within [2 * suspect_timeout_us])
     true by construction; [max timeout] preserves the two-phase shape
     when the interval is not small against the timeout. *)
  let confirm =
    Float.max timeout ((2.0 *. timeout) -. cfg.Config.heartbeat_interval_us)
  in
  let alive =
    1
    + List.length
        (List.filter
           (fun p -> (not (silent p)) && Hashtbl.find_opt t.states p <> Some Dead)
           t.peers)
  in
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.states p with
      | Some Dead -> ()
      | Some Suspect ->
        if now -. heard p > confirm && alive >= quorum t then declare_dead t ~node:p
      | Some Alive | None ->
        if silent p then begin
          Hashtbl.replace t.states p Suspect;
          Instance.count i "fd.suspects";
          Instance.trace i (Trace.Node_suspect { node = p })
        end)
    (List.sort compare t.peers)

(* Deterministic chaos partition: the lowest-id node arms the seeded plan
   (sever at [partition_at_us], heal [partition_for_us] later) the first
   time its heartbeat loop runs — by then the cluster membership is
   known. *)
and arm_partition_plan t =
  let i = inst t in
  if not t.partition_checked then begin
    t.partition_checked <- true;
    if t.node_id = List.fold_left min t.node_id t.peers then
      match Fault_inject.take_partition_plan i.Instance.fi ~nodes:(t.node_id :: t.peers) with
      | None -> ()
      | Some (at_us, heal_us, minority) ->
        let node = i.Instance.node in
        let fi = i.Instance.fi in
        Hw.Mpm.at node ~time:(Hw.Cost.cycles_of_us at_us) (fun () ->
            Hw.Interconnect.partition t.net ~minority;
            Fault_inject.inject fi ~site:"net.partition";
            Instance.trace i (Trace.Net_partition { healed = false }));
        Hw.Mpm.at node ~time:(Hw.Cost.cycles_of_us heal_us) (fun () ->
            Hw.Interconnect.heal t.net;
            Fault_inject.inject fi ~site:"net.heal";
            Fault_inject.recover fi ~site:"net.heal";
            Fault_inject.recover fi ~site:"net.partition";
            Instance.trace i (Trace.Net_partition { healed = true }))
  end

and heartbeat_tick t =
  let i = inst t in
  if not i.Instance.halted then begin
    arm_partition_plan t;
    Instance.count i "fd.heartbeats";
    let runnable = local_runnable t in
    record_report t ~node:t.node_id ~runnable;
    List.iter
      (fun peer ->
        (* fenced/dead peers are heartbeated too: the [your_epoch] field is
           how a partitioned-but-alive peer learns it must self-fence, and
           how a restarted one is re-discovered *)
        transmit t (Heartbeat { node = t.node_id; runnable; your_epoch = fence t peer }) ~dst:peer)
      (List.sort compare t.peers);
    detector_tick t
  end

and arm_heartbeat t =
  let i = inst t in
  let interval = i.Instance.config.Config.heartbeat_interval_us in
  if interval > 0.0 then begin
    let gen = t.hb_gen in
    Hw.Mpm.after i.Instance.node ~delay:(Hw.Cost.cycles_of_us interval) (fun () ->
        if t.hb_gen = gen && not i.Instance.halted then begin
          heartbeat_tick t;
          arm_heartbeat t
        end)
  end

(** Broadcast current load to all peers. *)
and report_load t =
  let runnable = local_runnable t in
  record_report t ~node:t.node_id ~runnable;
  List.iter (fun peer -> transmit t (Load_report { node = t.node_id; runnable }) ~dst:peer) t.peers

(* A frame from [src] was accepted: record its epoch, refresh the
   detector, and welcome back a previously-dead incarnation. *)
let note_heard t ~src ~epoch =
  if src <> t.node_id then begin
    let i = inst t in
    (match Hashtbl.find_opt t.peer_epochs src with
    | Some e when e >= epoch -> ()
    | _ -> Hashtbl.replace t.peer_epochs src epoch);
    Hashtbl.replace t.last_heard src (now_us t);
    match Hashtbl.find_opt t.states src with
    | Some Dead ->
      (* a frame at/above the fence: the restarted incarnation is back *)
      Hashtbl.replace t.states src Alive;
      Instance.count i "fd.rejoins";
      Migrate.Plane.peer_rejoined t.plane ~node:src
    | Some Suspect ->
      Hashtbl.replace t.states src Alive;
      Instance.count i "fd.unsuspects";
      (* the peer may have crashed and restarted before *our* detector got
         as far as declaring it dead (another node's failover beat ours):
         re-driving owed protocol duties is idempotent and un-stalls any
         transfer whose watchdog exhausted during the silence *)
      Migrate.Plane.peer_rejoined t.plane ~node:src
    | Some Alive | None -> Hashtbl.replace t.states src Alive
  end

let handle t (pkt : Hw.Interconnect.packet) =
  match decode pkt.Hw.Interconnect.data with
  | None -> ()
  | Some (epoch, msg) ->
    let src = pkt.Hw.Interconnect.src in
    let i = inst t in
    (* self-fence check runs before anything else: the heartbeat telling us
       we were fenced necessarily carries our *old* epoch expectations *)
    let fenced_self =
      match msg with
      | Heartbeat { your_epoch; _ } when your_epoch > !(t.epoch) ->
        self_fence t ~epoch:your_epoch;
        true
      | _ -> false
    in
    if fenced_self || i.Instance.halted then ()
    else if epoch < fence t src then begin
      (* stale incarnation: fenced off, never processed *)
      Instance.count i "fence.rejected";
      Instance.trace i (Trace.Fence_reject { src; epoch })
    end
    else begin
      note_heard t ~src ~epoch;
      match msg with
      | Load_report { node; runnable } -> record_report t ~node ~runnable
      | Heartbeat { node; runnable; _ } -> record_report t ~node ~runnable
      | Coschedule { gang; priority } -> apply_cosched t ~gang ~priority
      | Migrate_chunk { xfer; seq; total; buf; off; len } ->
        Migrate.Plane.recv_chunk t.plane ~epoch ~src ~xfer ~seq ~total ~buf ~off ~len ()
      | Migrate_ack { xfer; ok } -> Migrate.Plane.recv_ack t.plane ~xfer ~ok
      | Migrate_signal { xfer; tag; va } -> Migrate.Plane.recv_signal t.plane ~xfer ~tag ~va
      | Migrate_ctl { xfer; op } -> Migrate.Plane.recv_ctl t.plane ~src ~xfer ~op
    end

(* Reports merged with the live local count, in ascending node order —
   every ranking below is deterministic.  Reports older than
   [Config.load_report_stale_us] are dropped (and forgotten), so a dead or
   silent node cannot linger as a balancing target. *)
let merged_reports t =
  let i = inst t in
  let window = i.Instance.config.Config.load_report_stale_us in
  Hashtbl.replace t.load_reports t.node_id (local_runnable t);
  Hashtbl.replace t.report_stamp t.node_id (now_us t);
  if window > 0.0 then begin
    let stale =
      Hashtbl.fold
        (fun node _ acc ->
          if node = t.node_id then acc
          else
            match Hashtbl.find_opt t.report_stamp node with
            | Some stamp when now_us t -. stamp <= window -> acc
            | _ -> node :: acc)
        t.load_reports []
    in
    List.iter
      (fun node ->
        Hashtbl.remove t.load_reports node;
        Hashtbl.remove t.report_stamp node;
        Instance.count i "balance.stale_dropped")
      stale
  end;
  Hashtbl.fold (fun node runnable acc -> (node, runnable) :: acc) t.load_reports []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** The node with the fewest runnable threads — the placement hint
    distributed scheduling uses.  Ties break to the lowest node id; the
    local node's own count is always live, never a stale report. *)
let least_loaded t =
  match merged_reports t with
  | [] -> None
  | hd :: tl ->
    Some (fst (List.fold_left (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv)) hd tl))

let most_loaded t =
  match merged_reports t with
  | [] -> None
  | hd :: tl ->
    Some (fst (List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) hd tl))

(* One balancing step: if this node is the most loaded and the spread to
   the least-loaded node exceeds the hysteresis band, migrate one movable
   thread there.  One move per tick — the next tick sees the new loads. *)
let balance_tick t =
  let inst = t.srm.Manager.inst in
  Instance.count inst "balance.ticks";
  report_load t;
  match merged_reports t with
  | [] | [ _ ] -> ()
  | hd :: tl ->
    let dst, low =
      List.fold_left (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv)) hd tl
    in
    let src, high =
      List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) hd tl
    in
    if
      src = t.node_id && dst <> t.node_id
      && high - low > inst.Instance.config.Config.balance_hysteresis
      && not (Migrate.Plane.in_flight t.plane)
    then
      match Migrate.Plane.pick_movable t.plane with
      | None -> ()
      | Some id -> (
        match Migrate.Plane.move_thread t.plane ~dst id with
        | Ok _ -> Instance.count inst "balance.moves"
        | Error _ -> ())

let rec arm_balance t =
  let inst = t.srm.Manager.inst in
  let interval = inst.Instance.config.Config.balance_interval_us in
  if interval > 0.0 && t.balancing then
    Hw.Mpm.after inst.Instance.node ~delay:(Hw.Cost.cycles_of_us interval) (fun () ->
        if t.balancing then begin
          balance_tick t;
          arm_balance t
        end)

(** Attach the SRM to the interconnect: creates the node's fiber NIC and
    starts handling coordination traffic (plus the balancing loop and the
    heartbeat failure detector, when configured). *)
let start srm ~net =
  let inst = srm.Manager.inst in
  let node = inst.Instance.node in
  let nic =
    Hw.Nic.Fiber.create ~node_id:node.Hw.Mpm.node_id ~net ~events:node.Hw.Mpm.events
      ~now:(fun () -> Hw.Mpm.now node)
  in
  let epoch = ref 1 in
  let transmit msg ~dst = Hw.Nic.Fiber.transmit nic ~dst (encode ~epoch:!epoch msg) in
  let transport =
    {
      Migrate.Plane.send_chunk =
        (fun ~dst ~xfer ~seq ~total ~buf ~off ~len ->
          transmit (Migrate_chunk { xfer; seq; total; buf; off; len }) ~dst);
      send_ack = (fun ~dst ~xfer ~ok -> transmit (Migrate_ack { xfer; ok }) ~dst);
      send_signal = (fun ~dst ~xfer ~tag ~va -> transmit (Migrate_signal { xfer; tag; va }) ~dst);
      send_ctl = (fun ~dst ~xfer ~op -> transmit (Migrate_ctl { xfer; op }) ~dst);
    }
  in
  let plane =
    Migrate.Plane.create ~ak:srm.Manager.ak ~node_id:node.Hw.Mpm.node_id ~transport
  in
  Migrate.Plane.set_epoch_source plane (fun () -> !epoch);
  let t =
    {
      srm;
      nic;
      net;
      node_id = node.Hw.Mpm.node_id;
      peers = [];
      gangs = Hashtbl.create 8;
      load_reports = Hashtbl.create 8;
      report_stamp = Hashtbl.create 8;
      cosched_applied = [];
      plane;
      balancing = inst.Instance.config.Config.balance_interval_us > 0.0;
      epoch;
      peer_epochs = Hashtbl.create 8;
      last_heard = Hashtbl.create 8;
      states = Hashtbl.create 8;
      hb_gen = 0;
      partition_checked = false;
      on_failover = None;
    }
  in
  Hw.Nic.Fiber.set_receiver nic (fun pkt -> handle t pkt);
  arm_balance t;
  arm_heartbeat t;
  t

let add_peer t node_id = if node_id <> t.node_id then t.peers <- node_id :: t.peers

(** Register local member threads of a gang. *)
let register_gang t ~gang members =
  match Hashtbl.find_opt t.gangs gang with
  | Some l -> l := members @ !l
  | None -> Hashtbl.replace t.gangs gang (ref members)

(** Co-schedule a gang across all nodes: apply locally and tell peers. *)
let coschedule t ~gang ~priority =
  apply_cosched t ~gang ~priority;
  List.iter (fun peer -> transmit t (Coschedule { gang; priority }) ~dst:peer) t.peers

let plane t = t.plane

let stop_balancing t = t.balancing <- false

let load_reports t = merged_reports t

let cosched_applied t = t.cosched_applied

(* -- failover introspection / wiring ------------------------------------ *)

let epoch t = !(t.epoch)
let fence_epoch t node = fence t node

let node_state t node =
  match Hashtbl.find_opt t.states node with
  | Some Dead -> Dead
  | Some Suspect -> Suspect
  | Some Alive | None -> Alive

let set_failover t f = t.on_failover <- f
