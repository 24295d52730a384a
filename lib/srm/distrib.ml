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
   [balance_hysteresis] runnable threads.

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
  | Heartbeat of { node : int; runnable : int; your_epoch : int }
      (* [your_epoch] is the sender's fence for the *destination*: a
         receiver whose own epoch is below it has been declared dead and
         must self-fence *)
  | Migrate of { xfer : int; msg : Migrate.Plane.msg }
      (* a migration-plane message; a chunk's bytes are a slice of the
         sender's image, or a view into the received frame *)

(* Wire encoding: little-endian int32 words; word 0 the tag, word 1 the
   sender's epoch.  Fixed-size messages are 2–3 payload words; a chunk
   carries a length-prefixed byte payload after a 6-word header.  The two
   migration acks share tag 3 and the four commit-protocol controls tag
   6, told apart by the code word after the transfer id. *)

(* The payload-free migration messages: (message, tag, code word). *)
let migrate_codes =
  Migrate.Plane.
    [
      (Refused, 3, 0); (Applied, 3, 1);
      (Commit, 6, 0); (Commit_ack, 6, 1); (Abort, 6, 2); (Abort_ack, 6, 3);
    ]

(* A frame of header words followed by [extra] bytes for the caller. *)
let words ~epoch ?(extra = 0) tag ws =
  let b = Bytes.create ((4 * (2 + List.length ws)) + extra) in
  Bytes.set_int32_le b 0 (Int32.of_int tag);
  Bytes.set_int32_le b 4 (Int32.of_int epoch);
  List.iteri (fun i w -> Bytes.set_int32_le b (4 * (i + 2)) (Int32.of_int w)) ws;
  b

(* The frame of [Migrate { xfer; msg }], built without the wrapper: the
   plane's [send] frames every chunk through here. *)
let encode_migrate ~epoch xfer (msg : Migrate.Plane.msg) =
  match msg with
  | Chunk { seq; total; buf; off; len } ->
    let b = words ~epoch ~extra:len 2 [ xfer; seq; total; len ] in
    Bytes.blit buf off b 24 len;
    b
  | Signal { tag; va } -> words ~epoch 4 [ xfer; tag; va ]
  | _ ->
    let _, tag, code = List.find (fun (m, _, _) -> m = msg) migrate_codes in
    words ~epoch tag [ xfer; code ]

let encode ?(epoch = 1) = function
  | Load_report { node; runnable } -> words ~epoch 0 [ node; runnable ]
  | Coschedule { gang; priority } -> words ~epoch 1 [ gang; priority ]
  | Heartbeat { node; runnable; your_epoch } -> words ~epoch 5 [ node; runnable; your_epoch ]
  | Migrate { xfer; msg } -> encode_migrate ~epoch xfer msg

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
              Some
                (Migrate
                   { xfer = w 2; msg = Chunk { seq = w 3; total = w 4; buf = b; off = 24; len = plen } })
        | 4 ->
          if len < 20 then None
          else Some (Migrate { xfer = w 2; msg = Signal { tag = w 3; va = w 4 } })
        | 5 ->
          if len < 20 then None
          else Some (Heartbeat { node = w 2; runnable = w 3; your_epoch = w 4 })
        | (3 | 6) as tag when len >= 16 ->
          List.find_map
            (fun (msg, t, c) -> if t = tag && c = w 3 then Some (Migrate { xfer = w 2; msg }) else None)
            migrate_codes
        | _ -> None
      in
      Option.map (fun m -> (epoch, m)) msg

(* Co-schedule applications kept for skew measurement: newest first,
   bounded — an unbounded log was the subsystem's only unbounded state. *)
let max_cosched_kept = 64

type peer_state = Alive | Suspect | Dead

(* What this node knows of one node (itself included, for its own load
   report).  A node never heard of reads as a fresh record. *)
type peer = {
  mutable fence : int; (* highest accepted epoch; one above it once declared dead *)
  mutable heard_us : float option; (* last frame time; [None] until first sight *)
  mutable state : peer_state;
  mutable report : (int * float) option; (* last runnable count and its time (us) *)
}

(* All nodes boot at epoch 1, so a peer we never heard from is still
   fenced *above* 1 when declared dead. *)
let fresh () = { fence = 1; heard_us = None; state = Alive; report = None }

type t = {
  srm : Manager.t;
  nic : Hw.Nic.Fiber.t;
  net : Hw.Interconnect.t;
  node_id : int;
  records : (int, peer) Hashtbl.t; (* node -> its record, made on first use *)
  mutable peers : int list;
      (* newest-added first: load reports and co-schedule requests leave
         the port in this order *)
  mutable by_id : int list;
      (* the same, descending id: a peer added above every other (the usual
         order) is consed on; {!ascending} walks it lowest id first *)
  gangs : (int, Oid.t list ref) Hashtbl.t; (* gang id -> local member threads *)
  mutable cosched_applied : (int * float) list; (* gang -> local apply time (us) *)
  plane : Migrate.Plane.t;
  epoch : int ref; (* this node's incarnation; stamped on every frame *)
  mutable hb_gen : int; (* heartbeat-loop generation; bumped on restart *)
  mutable partition_checked : bool; (* chaos partition plan armed once *)
  mutable on_failover : (node:int -> epoch:int -> unit) option;
}

let inst t = t.srm.Manager.inst
let now_us t = Hw.Cost.us_of_cycles (Hw.Mpm.now (inst t).Instance.node)
let transmit t msg ~dst = Hw.Nic.Fiber.transmit t.nic ~dst (encode ~epoch:!(t.epoch) msg)

let record t node =
  match Hashtbl.find t.records node with
  | p -> p
  | exception Not_found ->
    let p = fresh () in
    Hashtbl.replace t.records node p;
    p

(* A read that leaves the table as it is. *)
let known t node = match Hashtbl.find t.records node with p -> p | exception Not_found -> fresh ()

(* [f] on every peer, lowest id first: the order heartbeats leave the port
   in and the detector advances in. *)
let ascending t f = List.fold_right (fun p () -> f p) t.by_id ()

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
  let p = record t node in
  if p.state <> Dead then p.report <- Some (runnable, now_us t)

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
      (* a fresh grace window and no reports; the fences stay *)
      Hashtbl.iter
        (fun _ p ->
          p.heard_us <- None;
          p.state <- Alive;
          p.report <- None)
        t.records;
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
  let p = record t node in
  let next = p.fence + 1 in
  p.state <- Dead;
  p.fence <- next;
  p.report <- None;
  Instance.count i "fd.deaths";
  Instance.trace i (Trace.Node_dead { node; epoch = next });
  (* in-flight transfers toward the dead node re-adopt here *)
  Migrate.Plane.peer_dead t.plane ~node;
  (* the lowest-id node that still sees the cluster drives the failover *)
  let leader =
    List.fold_left
      (fun l q -> if q <> node && (known t q).state <> Dead then min l q else l)
      t.node_id t.peers
  in
  if t.node_id = leader then begin
    Instance.count i "fd.failovers";
    match t.on_failover with Some f -> f ~node ~epoch:next | None -> ()
  end

and detector_tick t =
  let i = inst t in
  let cfg = i.Instance.config in
  let timeout = cfg.Config.suspect_timeout_us in
  let now = now_us t in
  let heard (p : peer) =
    match p.heard_us with
    | Some us -> us
    | None ->
      (* first sight: grant a full grace window before suspicion *)
      p.heard_us <- Some now;
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
    List.fold_left
      (fun n node ->
        let p = record t node in
        if (not (silent p)) && p.state <> Dead then n + 1 else n)
      1 t.peers
  in
  ascending t (fun node ->
      let p = record t node in
      match p.state with
      | Dead -> ()
      | Suspect -> if now -. heard p > confirm && alive >= quorum t then declare_dead t ~node
      | Alive ->
        if silent p then begin
          p.state <- Suspect;
          Instance.count i "fd.suspects";
          Instance.trace i (Trace.Node_suspect { node })
        end)

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
    ascending t (fun peer ->
        (* fenced/dead peers are heartbeated too: the [your_epoch] field is
           how a partitioned-but-alive peer learns it must self-fence, and
           how a restarted one is re-discovered *)
        transmit t
          (Heartbeat { node = t.node_id; runnable; your_epoch = (record t peer).fence })
          ~dst:peer);
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
    let p = record t src in
    p.fence <- max p.fence epoch;
    p.heard_us <- Some (now_us t);
    match p.state with
    | Dead ->
      (* a frame at/above the fence: the restarted incarnation is back *)
      p.state <- Alive;
      Instance.count i "fd.rejoins";
      Migrate.Plane.peer_rejoined t.plane ~node:src
    | Suspect ->
      p.state <- Alive;
      Instance.count i "fd.unsuspects";
      (* the peer may have crashed and restarted before *our* detector got
         as far as declaring it dead (another node's failover beat ours):
         re-driving owed protocol duties is idempotent and un-stalls any
         transfer whose watchdog exhausted during the silence *)
      Migrate.Plane.peer_rejoined t.plane ~node:src
    | Alive -> ()
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
    else if epoch < (known t src).fence then begin
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
      | Migrate { xfer; msg } -> Migrate.Plane.recv t.plane ~src ~xfer msg
    end

(* Reports merged with the live local count, in ascending node order —
   every ranking below is deterministic.  Reports older than
   [Config.load_report_stale_us] are dropped (and forgotten), so a dead or
   silent node cannot linger as a balancing target. *)
let merged_reports t =
  let i = inst t in
  let window = i.Instance.config.Config.load_report_stale_us in
  let now = now_us t in
  (record t t.node_id).report <- Some (local_runnable t, now);
  Hashtbl.fold
    (fun node p acc ->
      match p.report with
      | None -> acc
      | Some (_, stamp) when window > 0.0 && node <> t.node_id && now -. stamp > window ->
        p.report <- None;
        Instance.count i "balance.stale_dropped";
        acc
      | Some (runnable, _) -> (node, runnable) :: acc)
    t.records []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The one ranking: the least- and the most-loaded node as (node,
   runnable), ties to the lowest node id. *)
let extremes t =
  match merged_reports t with
  | [] -> None
  | hd :: tl ->
    Some
      (List.fold_left
         (fun (((_, lv) as lo), ((_, hv) as hi)) ((_, v) as r) ->
           ((if v < lv then r else lo), if v > hv then r else hi))
         (hd, hd) tl)

(** The node with the fewest runnable threads — the placement hint
    distributed scheduling uses.  Ties break to the lowest node id; the
    local node's own count is always live, never a stale report. *)
let least_loaded t = Option.map (fun ((node, _), _) -> node) (extremes t)

(* runnable-thread spread tolerated before the most-loaded node migrates
   work to the least-loaded one *)
let balance_hysteresis = 2

(* One balancing step: if this node is the most loaded and the spread to
   the least-loaded node exceeds the hysteresis band, migrate one movable
   thread there.  One move per tick — the next tick sees the new loads. *)
let balance_tick t =
  let inst = t.srm.Manager.inst in
  Instance.count inst "balance.ticks";
  report_load t;
  match extremes t with
  | Some ((dst, low), (src, high))
    when src = t.node_id && dst <> t.node_id
         && high - low > balance_hysteresis
         && not (Migrate.Plane.in_flight t.plane) -> (
    match Migrate.Plane.pick_movable t.plane with
    | None -> ()
    | Some id -> (
      match Migrate.Plane.move_thread t.plane ~dst id with
      | Ok _ -> Instance.count inst "balance.moves"
      | Error _ -> ()))
  | _ -> ()

let rec arm_balance t =
  let inst = t.srm.Manager.inst in
  let interval = inst.Instance.config.Config.balance_interval_us in
  if interval > 0.0 then
    Hw.Mpm.after inst.Instance.node ~delay:(Hw.Cost.cycles_of_us interval) (fun () ->
        balance_tick t;
        arm_balance t)

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
  let send ~dst ~xfer msg = Hw.Nic.Fiber.transmit nic ~dst (encode_migrate ~epoch:!epoch xfer msg) in
  let plane = Migrate.Plane.create ~ak:srm.Manager.ak ~node_id:node.Hw.Mpm.node_id ~send in
  let t =
    {
      srm;
      nic;
      net;
      node_id = node.Hw.Mpm.node_id;
      records = Hashtbl.create 8;
      peers = [];
      by_id = [];
      gangs = Hashtbl.create 8;
      cosched_applied = [];
      plane;
      epoch;
      hb_gen = 0;
      partition_checked = false;
      on_failover = None;
    }
  in
  Hw.Nic.Fiber.set_receiver nic (fun pkt -> handle t pkt);
  arm_balance t;
  arm_heartbeat t;
  t

let add_peer t node_id =
  if node_id <> t.node_id then begin
    t.peers <- node_id :: t.peers;
    let rec insert = function
      | q :: rest when q > node_id -> q :: insert rest
      | l -> node_id :: l
    in
    t.by_id <- insert t.by_id
  end

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

let load_reports t = merged_reports t

let cosched_applied t = t.cosched_applied

(* -- failover introspection / wiring ------------------------------------ *)

let epoch t = !(t.epoch)
let fence_epoch t node = (known t node).fence
let node_state t node = (known t node).state

let set_failover t f = t.on_failover <- f
