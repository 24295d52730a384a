(* Inter-MPM interconnect: VMEbus within a chassis, fiber channel between
   chassis (Figure 4).

   Nodes register a delivery callback; [send] schedules delivery on the
   destination node's event queue after the link latency.  A node can be
   marked failed, after which it silently drops traffic — the substrate for
   the fault-containment experiments (section 3).  Sends and topology
   transitions take effect when they are called. *)

type packet = { src : int; dst : int; data : Bytes.t; tag : int }

type port = {
  node_id : int;
  deliver : packet -> unit;
  now : unit -> Cost.cycles;
  at : time:Cost.cycles -> (unit -> unit) -> unit;
  mutable failed : bool;
  mutable group : int;  (* partition group; cross-group frames are dropped *)
  mutable tx_free : Cost.cycles;  (* when this port's outbound link drains *)
}

type link_kind = Vme | Fiber

type t = {
  latency : Cost.cycles;
  serialize : int -> Cost.cycles;
  ports : (int, port) Hashtbl.t; (* node id -> port *)
  mutable sent : int;
  mutable dropped : int;
}

let create ?(kind = Fiber) () =
  let latency, serialize =
    match kind with
    | Vme -> (Cost.vme_packet, Cost.vme_serialize)
    | Fiber -> (Cost.fiber_packet, Cost.fiber_serialize)
  in
  { latency; serialize; ports = Hashtbl.create 16; sent = 0; dropped = 0 }

(** Attach a node.  [deliver] runs on the destination node's event queue. *)
let attach t ~node_id ~deliver ~now ~at =
  let port = { node_id; deliver; now; at; failed = false; group = 0; tx_free = 0 } in
  Hashtbl.replace t.ports node_id port;
  port

let port t node_id = Hashtbl.find_opt t.ports node_id

let find_port t node_id ~name =
  match port t node_id with Some p -> p | None -> invalid_arg (name ^ ": unknown node")

(** Halt a node: it stops receiving (and its kernel stops running).  Other
    nodes are unaffected — "an MPM hardware failure only halts the local
    Cache Kernel instance and applications running on top of it". *)
let fail_node t node_id = (find_port t node_id ~name:"Interconnect.fail_node").failed <- true

let node_failed t node_id =
  match port t node_id with Some p -> p.failed | None -> false

(** Restore a failed node's port (it rebooted): it receives again. *)
let restore_node t node_id =
  (find_port t node_id ~name:"Interconnect.restore_node").failed <- false

(** Sever the interconnect: ports of nodes in [minority] land in their own
    partition group; frames between groups are dropped at send time
    (frames already on the wire still deliver).  Idempotent. *)
let partition t ~minority =
  Hashtbl.iter (fun _ p -> p.group <- (if List.mem p.node_id minority then 1 else 0)) t.ports

(** Heal any partition: every port rejoins group 0.  Idempotent. *)
let heal t = Hashtbl.iter (fun _ p -> p.group <- 0) t.ports

let partitioned t ~src ~dst =
  match (port t src, port t dst) with
  | Some sp, Some dp -> sp.group <> dp.group
  | _ -> false

let sent t = t.sent
let dropped t = t.dropped

(* Every [send] lowers this to the earliest cycle at which a *reply* to
   the frame could arrive back at the sender (frame drained + one hop out
   + one hop back).  The multi-node engine resets it before stepping a
   node and stops the node there: a quiescent peer woken by the frame may
   answer, so the sender must not idle-jump past the earliest possible
   answer. *)
let reply_bound = ref max_int

(** Send [data] from node [src] to node [dst]: the frame first waits for
    the source port's outbound link to drain, occupies it for the wire
    serialization time of its length, then arrives after the hop latency —
    unless either end has failed or a partition separates them, in which
    case it is dropped.  The sender cannot see the far end, so a dropped
    frame still occupies its outbound link.  Delivery is stamped on the
    sender's clock; a receiver that is already past that instant processes
    the frame at its own current time (the event queue runs past-due
    events immediately), which models queueing at the receiver. *)
let send t ~src ~dst ?(tag = 0) data =
  match (port t src, port t dst) with
  | Some sp, Some dp ->
    let start = max (sp.now ()) sp.tx_free in
    let drained = start + t.serialize (Bytes.length data) in
    sp.tx_free <- drained;
    let deliver_at = drained + t.latency in
    if deliver_at + t.latency < !reply_bound then reply_bound := deliver_at + t.latency;
    if sp.failed || dp.failed || sp.group <> dp.group then t.dropped <- t.dropped + 1
    else begin
      t.sent <- t.sent + 1;
      let pkt = { src; dst; data; tag } in
      dp.at ~time:deliver_at (fun () -> if not dp.failed then dp.deliver pkt)
    end
  | _ -> invalid_arg "Interconnect.send: unknown node"
