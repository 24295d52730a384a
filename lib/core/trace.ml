(* Event trace of Cache Kernel activity.

   Tests use this to validate protocol sequences (e.g. the six steps of
   Figure 2's page-fault handling) and examples use it to narrate runs.
   Tracing is off by default; when enabled, events carry the simulated
   timestamp of the CPU that generated them.

   Storage is a fixed-capacity ring buffer (capacity from
   {!Config.trace_capacity} via {!Instance.create}): long tracing-enabled
   runs hold at most [capacity] entries, dropping the oldest and counting
   the drops, instead of growing without bound.  The buffer is allocated
   lazily and grows geometrically up to the cap, so the common
   tracing-disabled instance costs a few words. *)

type event =
  | Fault_trap of { thread : Oid.t; va : int; kind : string } (* Figure 2 step 1 *)
  | Forward_to_kernel of { thread : Oid.t; kernel : Oid.t } (* step 2 *)
  | Handler_running of { thread : Oid.t } (* step 3 *)
  | Mapping_loaded of { space : Oid.t; va : int; pfn : int } (* step 4 *)
  | Exception_complete of { thread : Oid.t } (* step 5 *)
  | Thread_resumed of { thread : Oid.t } (* step 6 *)
  | Object_loaded of { oid : Oid.t }
  | Object_written_back of { oid : Oid.t; to_kernel : Oid.t }
  | Mapping_written_back of { space : Oid.t; va : int; to_kernel : Oid.t }
  | Signal_delivered of { thread : Oid.t; va : int; fast_path : bool }
  | Signal_queued of { thread : Oid.t; va : int }
  | Trap_forwarded of { thread : Oid.t; kernel : Oid.t }
  | Thread_preempted of { thread : Oid.t; cpu : int }
  | Thread_dispatched of { thread : Oid.t; cpu : int }
  | Quota_exceeded of { kernel : Oid.t; cpu : int }
  | Consistency_flush of { pfn : int }
  | Injected of { site : string }
  | Recovered of { site : string }
  | Audit_violation of { check : string; subject : string }
  | Audit_repaired of { check : string; subject : string }
  | Storm of { active : bool; displacements : int }
  | Forward_timeout of { thread : Oid.t; escalated : bool }
  | Migrate_out of { oid : Oid.t; dst : int; xfer : int; bytes : int }
  | Migrate_in of { xfer : int; src : int; bytes : int }
  | Migrate_acked of { xfer : int; ok : bool }
  | Migrate_forwarded of { xfer : int; va : int }
  | Checkpointed of { restore : bool; bytes : int }
  | Tier_move of { block : int; to_fast : bool; batch : int }
  | Node_suspect of { node : int }
  | Node_dead of { node : int; epoch : int }
  | Node_restart of { node : int; epoch : int }
  | Fence_reject of { src : int; epoch : int }
  | Net_partition of { healed : bool }
  | Migrate_readopt of { xfer : int }
  | Custom of string

let pp_event ppf = function
  | Fault_trap { thread; va; kind } ->
    Fmt.pf ppf "fault-trap %a va=%a (%s)" Oid.pp thread Hw.Addr.pp_addr va kind
  | Forward_to_kernel { thread; kernel } ->
    Fmt.pf ppf "forward %a -> %a" Oid.pp thread Oid.pp kernel
  | Handler_running { thread } -> Fmt.pf ppf "handler-running %a" Oid.pp thread
  | Mapping_loaded { space; va; pfn } ->
    Fmt.pf ppf "mapping-loaded %a va=%a pfn=%d" Oid.pp space Hw.Addr.pp_addr va pfn
  | Exception_complete { thread } -> Fmt.pf ppf "exception-complete %a" Oid.pp thread
  | Thread_resumed { thread } -> Fmt.pf ppf "thread-resumed %a" Oid.pp thread
  | Object_loaded { oid } -> Fmt.pf ppf "loaded %a" Oid.pp oid
  | Object_written_back { oid; to_kernel } ->
    Fmt.pf ppf "writeback %a -> %a" Oid.pp oid Oid.pp to_kernel
  | Mapping_written_back { space; va; to_kernel } ->
    Fmt.pf ppf "mapping-writeback %a va=%a -> %a" Oid.pp space Hw.Addr.pp_addr va Oid.pp
      to_kernel
  | Signal_delivered { thread; va; fast_path } ->
    Fmt.pf ppf "signal %a va=%a%s" Oid.pp thread Hw.Addr.pp_addr va
      (if fast_path then " (rtlb)" else "")
  | Signal_queued { thread; va } ->
    Fmt.pf ppf "signal-queued %a va=%a" Oid.pp thread Hw.Addr.pp_addr va
  | Trap_forwarded { thread; kernel } ->
    Fmt.pf ppf "trap-forward %a -> %a" Oid.pp thread Oid.pp kernel
  | Thread_preempted { thread; cpu } -> Fmt.pf ppf "preempt %a cpu%d" Oid.pp thread cpu
  | Thread_dispatched { thread; cpu } -> Fmt.pf ppf "dispatch %a cpu%d" Oid.pp thread cpu
  | Quota_exceeded { kernel; cpu } ->
    Fmt.pf ppf "quota-exceeded %a cpu%d" Oid.pp kernel cpu
  | Consistency_flush { pfn } -> Fmt.pf ppf "consistency-flush pfn=%d" pfn
  | Injected { site } -> Fmt.pf ppf "inject %s" site
  | Recovered { site } -> Fmt.pf ppf "recover %s" site
  | Audit_violation { check; subject } -> Fmt.pf ppf "audit-violation %s %s" check subject
  | Audit_repaired { check; subject } -> Fmt.pf ppf "audit-repaired %s %s" check subject
  | Storm { active; displacements } ->
    Fmt.pf ppf "storm %s displacements=%d" (if active then "begin" else "end") displacements
  | Forward_timeout { thread; escalated } ->
    Fmt.pf ppf "forward-timeout %a%s" Oid.pp thread
      (if escalated then " (escalated)" else " (re-forwarded)")
  | Migrate_out { oid; dst; xfer; bytes } ->
    Fmt.pf ppf "migrate-out %a -> node%d xfer=%d (%d B)" Oid.pp oid dst xfer bytes
  | Migrate_in { xfer; src; bytes } ->
    Fmt.pf ppf "migrate-in xfer=%d <- node%d (%d B)" xfer src bytes
  | Migrate_acked { xfer; ok } ->
    Fmt.pf ppf "migrate-acked xfer=%d %s" xfer (if ok then "ok" else "failed")
  | Migrate_forwarded { xfer; va } ->
    Fmt.pf ppf "migrate-forwarded xfer=%d va=%a" xfer Hw.Addr.pp_addr va
  | Checkpointed { restore; bytes } ->
    Fmt.pf ppf "%s %d B" (if restore then "restored" else "checkpointed") bytes
  | Tier_move { block; to_fast; batch } ->
    Fmt.pf ppf "tier-move block=%d -> %s (batch %d)" block
      (if to_fast then "fast" else "slow")
      batch
  | Node_suspect { node } -> Fmt.pf ppf "node%d suspect" node
  | Node_dead { node; epoch } -> Fmt.pf ppf "node%d dead (fenced at epoch %d)" node epoch
  | Node_restart { node; epoch } -> Fmt.pf ppf "node%d restarted (epoch %d)" node epoch
  | Fence_reject { src; epoch } ->
    Fmt.pf ppf "fence-reject frame from node%d (stale epoch %d)" src epoch
  | Net_partition { healed } ->
    Fmt.pf ppf "net %s" (if healed then "healed" else "partitioned")
  | Migrate_readopt { xfer } -> Fmt.pf ppf "migrate-readopt xfer=%d" xfer
  | Custom s -> Fmt.string ppf s

let event_name = function
  | Fault_trap _ -> "fault_trap"
  | Forward_to_kernel _ -> "forward_to_kernel"
  | Handler_running _ -> "handler_running"
  | Mapping_loaded _ -> "mapping_loaded"
  | Exception_complete _ -> "exception_complete"
  | Thread_resumed _ -> "thread_resumed"
  | Object_loaded _ -> "object_loaded"
  | Object_written_back _ -> "object_written_back"
  | Mapping_written_back _ -> "mapping_written_back"
  | Signal_delivered _ -> "signal_delivered"
  | Signal_queued _ -> "signal_queued"
  | Trap_forwarded _ -> "trap_forwarded"
  | Thread_preempted _ -> "thread_preempted"
  | Thread_dispatched _ -> "thread_dispatched"
  | Quota_exceeded _ -> "quota_exceeded"
  | Consistency_flush _ -> "consistency_flush"
  | Injected _ -> "injected"
  | Recovered _ -> "recovered"
  | Audit_violation _ -> "audit_violation"
  | Audit_repaired _ -> "audit_repaired"
  | Storm _ -> "storm"
  | Forward_timeout _ -> "forward_timeout"
  | Migrate_out _ -> "migrate_out"
  | Migrate_in _ -> "migrate_in"
  | Migrate_acked _ -> "migrate_acked"
  | Migrate_forwarded _ -> "migrate_forwarded"
  | Checkpointed _ -> "checkpointed"
  | Tier_move _ -> "tier_move"
  | Node_suspect _ -> "node_suspect"
  | Node_dead _ -> "node_dead"
  | Node_restart _ -> "node_restart"
  | Fence_reject _ -> "fence_reject"
  | Net_partition _ -> "net_partition"
  | Migrate_readopt _ -> "migrate_readopt"
  | Custom _ -> "custom"

let event_fields ev =
  let oid name (o : Oid.t) = (name, Json.String (Fmt.str "%a" Oid.pp o)) in
  match ev with
  | Fault_trap { thread; va; kind } ->
    [ oid "thread" thread; ("va", Json.Int va); ("kind", Json.String kind) ]
  | Forward_to_kernel { thread; kernel } -> [ oid "thread" thread; oid "kernel" kernel ]
  | Handler_running { thread } -> [ oid "thread" thread ]
  | Mapping_loaded { space; va; pfn } ->
    [ oid "space" space; ("va", Json.Int va); ("pfn", Json.Int pfn) ]
  | Exception_complete { thread } -> [ oid "thread" thread ]
  | Thread_resumed { thread } -> [ oid "thread" thread ]
  | Object_loaded { oid = o } -> [ oid "oid" o ]
  | Object_written_back { oid = o; to_kernel } -> [ oid "oid" o; oid "to_kernel" to_kernel ]
  | Mapping_written_back { space; va; to_kernel } ->
    [ oid "space" space; ("va", Json.Int va); oid "to_kernel" to_kernel ]
  | Signal_delivered { thread; va; fast_path } ->
    [ oid "thread" thread; ("va", Json.Int va); ("fast_path", Json.Bool fast_path) ]
  | Signal_queued { thread; va } -> [ oid "thread" thread; ("va", Json.Int va) ]
  | Trap_forwarded { thread; kernel } -> [ oid "thread" thread; oid "kernel" kernel ]
  | Thread_preempted { thread; cpu } -> [ oid "thread" thread; ("cpu", Json.Int cpu) ]
  | Thread_dispatched { thread; cpu } -> [ oid "thread" thread; ("cpu", Json.Int cpu) ]
  | Quota_exceeded { kernel; cpu } -> [ oid "kernel" kernel; ("cpu", Json.Int cpu) ]
  | Consistency_flush { pfn } -> [ ("pfn", Json.Int pfn) ]
  | Injected { site } -> [ ("site", Json.String site) ]
  | Recovered { site } -> [ ("site", Json.String site) ]
  | Audit_violation { check; subject } ->
    [ ("check", Json.String check); ("subject", Json.String subject) ]
  | Audit_repaired { check; subject } ->
    [ ("check", Json.String check); ("subject", Json.String subject) ]
  | Storm { active; displacements } ->
    [ ("active", Json.Bool active); ("displacements", Json.Int displacements) ]
  | Forward_timeout { thread; escalated } ->
    [ oid "thread" thread; ("escalated", Json.Bool escalated) ]
  | Migrate_out { oid = o; dst; xfer; bytes } ->
    [ oid "oid" o; ("dst", Json.Int dst); ("xfer", Json.Int xfer); ("bytes", Json.Int bytes) ]
  | Migrate_in { xfer; src; bytes } ->
    [ ("xfer", Json.Int xfer); ("src", Json.Int src); ("bytes", Json.Int bytes) ]
  | Migrate_acked { xfer; ok } -> [ ("xfer", Json.Int xfer); ("ok", Json.Bool ok) ]
  | Migrate_forwarded { xfer; va } -> [ ("xfer", Json.Int xfer); ("va", Json.Int va) ]
  | Checkpointed { restore; bytes } ->
    [ ("restore", Json.Bool restore); ("bytes", Json.Int bytes) ]
  | Tier_move { block; to_fast; batch } ->
    [ ("block", Json.Int block); ("to_fast", Json.Bool to_fast); ("batch", Json.Int batch) ]
  | Node_suspect { node } -> [ ("node", Json.Int node) ]
  | Node_dead { node; epoch } -> [ ("node", Json.Int node); ("epoch", Json.Int epoch) ]
  | Node_restart { node; epoch } -> [ ("node", Json.Int node); ("epoch", Json.Int epoch) ]
  | Fence_reject { src; epoch } -> [ ("src", Json.Int src); ("epoch", Json.Int epoch) ]
  | Net_partition { healed } -> [ ("healed", Json.Bool healed) ]
  | Migrate_readopt { xfer } -> [ ("xfer", Json.Int xfer) ]
  | Custom s -> [ ("text", Json.String s) ]

type entry = { time : Hw.Cost.cycles; event : event }

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable buf : entry array; (* grows geometrically up to [capacity] *)
  mutable head : int; (* next write position *)
  mutable len : int; (* live entries, <= capacity *)
  mutable dropped : int; (* oldest entries overwritten after the cap *)
}

let default_capacity = 65536

let create ?(enabled = false) ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { enabled; capacity; buf = [||]; head = 0; len = 0; dropped = 0 }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let[@inline] enabled t = t.enabled
let capacity t = t.capacity
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

(* Grow the backing array towards the cap; entries are re-laid-out in
   chronological order starting at index 0 (only reached while len < cap,
   where the ring has never wrapped, so a plain blit suffices). *)
let grow t e =
  let target = min t.capacity (max 64 (2 * Array.length t.buf)) in
  let nbuf = Array.make target e in
  Array.blit t.buf 0 nbuf 0 t.len;
  t.buf <- nbuf;
  t.head <- t.len

let record t ~time event =
  if t.enabled then begin
    let e = { time; event } in
    if t.len < t.capacity then begin
      if t.len = Array.length t.buf then grow t e;
      t.buf.(t.head) <- e;
      t.head <- (t.head + 1) mod Array.length t.buf;
      t.len <- t.len + 1
    end
    else begin
      (* full: overwrite the oldest (head points at it once wrapped) *)
      t.buf.(t.head) <- e;
      t.head <- (t.head + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
    end
  end

(** Fold over entries in chronological order. *)
let fold t f acc =
  if t.len = 0 then acc
  else begin
    let n = Array.length t.buf in
    (* oldest entry: head - len, modulo the buffer size *)
    let start = ((t.head - t.len) mod n + n) mod n in
    let acc = ref acc in
    for i = 0 to t.len - 1 do
      acc := f !acc t.buf.((start + i) mod n)
    done;
    !acc
  end

let entries t = List.rev (fold t (fun acc e -> e :: acc) [])

(** Events in chronological order. *)
let events t = List.rev (fold t (fun acc e -> e.event :: acc) [])

let iter t f = fold t (fun () e -> f e) ()

let pp ppf t =
  iter t (fun { time; event } ->
      Fmt.pf ppf "[%8.2fus] %a@." (Hw.Cost.us_of_cycles time) pp_event event)

let entry_json { time; event } =
  Json.Obj
    (("t_us", Json.Float (Hw.Cost.us_of_cycles time))
    :: ("event", Json.String (event_name event))
    :: event_fields event)

let to_json t =
  Json.Obj
    [
      ("capacity", Json.Int t.capacity);
      ("length", Json.Int t.len);
      ("dropped", Json.Int t.dropped);
      ("entries", Json.List (List.rev (fold t (fun acc e -> entry_json e :: acc) [])));
    ]
