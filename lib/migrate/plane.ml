(* The live-migration plane.

   The paper's writeback images are location-independent, so migrating an
   object is just: unload it here, ship the image, reload it there through
   the normal [Api.load_*] path.  This module implements that loop on top
   of {!Codec}:

   - capture: deschedule/unload the target (an active thread's unload is
     deferred to its next kernel exit, so capture retries on a timer until
     the writeback record has landed);
   - ship: encode the image once, then send it as MTU-sized [Chunk]
     messages through the [send] function the SRM provides; chunk loss and
     duplication are recovered by a retransmit watchdog on the source and
     idempotent reassembly plus re-acks on the destination;
   - apply: rebuild spaces, segments and page payloads, adopt the threads
     into the local thread library, and load them through the usual
     stale-retry path;
   - forward: a stub left at the source re-targets signals raised against
     the old residence during (and after) the transfer window.

   Continuations are not byte-serializable (DESIGN.md section 2): a live
   in-process move carries the saved execution state through [registry],
   keyed by (transfer id, source thread tag), and only the *structural*
   record travels as bytes.  A cross-process restore (checkpoint) finds no
   residue and restarts threads fresh from their bodies — the same
   contract as SRM crash recovery. *)

open Cachekernel
open Aklib

type msg =
  | Chunk of { seq : int; total : int; buf : Bytes.t; off : int; len : int }
  | Applied (* dst -> src: image applied and parked *)
  | Refused (* dst -> src: image could not be decoded or applied *)
  | Signal of { tag : int; va : int } (* src stub -> dst: a signal for source thread [tag] *)
  | Commit (* src -> dst: image acked, schedule the parked threads *)
  | Commit_ack (* dst -> src: scheduled; the source may free the image *)
  | Abort (* src -> dst: transfer re-adopted at the source, purge it *)
  | Abort_ack (* dst -> src: purged (or never landed) *)

(* In-process residue of a migrating thread: the part of the image the
   codec cannot carry.  The destination plane consumes it when the byte
   image arrives; a restore in another process simply finds nothing. *)
type residue = {
  res_saved : Thread_obj.saved option;
  res_body : (unit -> Hw.Exec.payload) option;
}

let registry : (int * int, residue) Hashtbl.t = Hashtbl.create 32

(* A transfer the source still answers for.  [Shipping]: chunks are out,
   the ack is not in.  [Committing]: the destination acked and parked the
   image, and the source retains it until the destination confirms it
   scheduled the parked threads.  A crash of either side in either phase
   resolves by re-adoption from the retained image — it is freed only on
   [Commit_ack]. *)
type phase = Shipping | Committing

type sending = {
  s_dst : int;
  s_image : Bytes.t; (* the encoded image; its size sets the retransmit horizon *)
  s_chunk : int; (* bytes per chunk: chunk [seq] is the slice at [seq * s_chunk] *)
  s_started : float; (* us; pause-time measurement *)
  s_tags : int list; (* source thread tags (registry residue keys) *)
  mutable s_phase : phase;
  mutable s_retries : int; (* resends in the current phase *)
}

(* Record of an applied transfer: a landing at the destination, or a
   re-adoption at the source.  Threads are adopted but *parked* (not
   scheduled) until the source's commit arrives, so an un-acked or
   un-committed copy never executes — the crash-atomicity invariant is
   that at most one side ever schedules the object. *)
type landing = {
  l_threads : (int * int) list; (* (src tag, local id) *)
  l_space_tags : int list;
  mutable l_committed : bool;
}

(* A reassembly in progress.  Each admitted part is kept as the slice
   [(buf, off, len)] of the frame it arrived in, so nothing is copied
   until the whole image is assembled.  The chunk size is learned from
   the wire: every part but the last is [i_chunk] long and the last one
   [i_last]; they read 0 and -1 until such a part arrives. *)
type incoming = {
  i_total : int;
  i_parts : (int, Bytes.t * int * int) Hashtbl.t;
  mutable i_chunk : int;
  mutable i_last : int;
}

type t = {
  ak : App_kernel.t;
  node_id : int;
  send : dst:int -> xfer:int -> msg -> unit;
  sends : (int, sending) Hashtbl.t; (* xfer -> transfer not yet commit-acked *)
  incoming : (int, incoming) Hashtbl.t; (* xfer -> reassembly *)
  landings : (int, landing) Hashtbl.t; (* transfers applied here *)
  aborts : (int, int) Hashtbl.t; (* xfer -> dst: abort owed to the target *)
  forwards : (int, int * int) Hashtbl.t; (* local thread id -> (xfer, dst) *)
  pending : (int, (int * int) list) Hashtbl.t;
      (* signals that beat the commit, newest first: xfer -> (src tag, va) *)
  mutable on_step : (string -> unit) option; (* crash-point sweep hook *)
  mutable next_xfer : int;
}

let inst t = t.ak.App_kernel.inst
let now_us t = Hw.Cost.us_of_cycles (Hw.Mpm.now (inst t).Instance.node)
let halted t = (inst t).Instance.halted

(* Crash-point sweep support: the harness installs a hook that may crash
   this node at a named protocol step.  Every call site checks [halted]
   afterwards and abandons the rest of its handler, exactly as a real
   crash would cut the code path short. *)
let set_step_hook t f = t.on_step <- f
let step t name = match t.on_step with None -> () | Some f -> f name

(* [step] for the per-chunk points: the name is only built when a hook is
   installed. *)
let step_chunk t side seq =
  match t.on_step with None -> () | Some f -> f (Printf.sprintf "%s.chunk.%d" side seq)

let fresh_xfer t =
  t.next_xfer <- t.next_xfer + 1;
  (t.node_id * 1_000_000) + t.next_xfer

let in_flight t = Hashtbl.length t.sends > 0

(* -- image capture ------------------------------------------------------ *)

(* A full-page copy of frame [pfn], or [None] for a zero frame, which is
   checked in place and not copied. *)
let read_frame ak pfn =
  let mem = ak.App_kernel.inst.Instance.node.Hw.Mpm.mem in
  let page n = Bytes.make (if n = 0 then 0 else Hw.Addr.page_size) '\000' in
  let b = Hw.Phys_mem.copy_image_out mem ~pfn page in
  if Bytes.length b = 0 then None else Some b

let read_block ak block =
  let b = Backing_store.read_block_now ak.App_kernel.store ~block in
  if Hw.Phys_mem.extent b ~pos:0 ~len:(Bytes.length b) = 0 then None else Some b

(* Full content of a segment as codec pages, resolving residency.  Reading
   is passive: the segment keeps its state, so capture never perturbs the
   source if the move is later abandoned. *)
let segment_pages ak (seg : Segment.t) =
  let pages = ref [] in
  for page = seg.Segment.pages - 1 downto 0 do
    let data =
      match Segment.state seg page with
      | Segment.Zero -> None
      | Segment.In_memory r -> read_frame ak r.Segment.pfn
      | Segment.On_disk block ->
        (* through the store, not the raw disk: the authoritative copy may
           live in the fast tier *)
        read_block ak block
      | Segment.Cow_of (pseg, ppage) -> (
        (* deferred copy: the content still lives with the parent *)
        match Segment.state pseg ppage with
        | Segment.In_memory r -> read_frame ak r.Segment.pfn
        | Segment.On_disk block -> read_block ak block
        | _ -> None)
    in
    match data with
    | Some d -> pages := { Codec.index = page; data = d } :: !pages
    | None -> ()
  done;
  !pages

let space_image_of ak (vsp : Segment_mgr.vspace) =
  let regions = List.rev vsp.Segment_mgr.regions in
  let segs = Segment_mgr.segments vsp in
  let seg_index (s : Segment.t) =
    let rec idx i = function
      | [] -> raise Not_found
      | (x : Segment.t) :: tl -> if x.Segment.id = s.Segment.id then i else idx (i + 1) tl
    in
    idx 0 segs
  in
  {
    Codec.space_tag = vsp.Segment_mgr.tag;
    space_gen = vsp.Segment_mgr.oid.Oid.gen;
    segments =
      List.map
        (fun (s : Segment.t) ->
          {
            Codec.seg_name = s.Segment.name;
            seg_pages = s.Segment.pages;
            payload = segment_pages ak s;
          })
        segs;
    regions =
      List.map
        (fun (r : Region.t) ->
          {
            Codec.va_start = r.Region.va_start;
            rg_pages = r.Region.pages;
            seg = seg_index r.Region.segment;
            seg_offset = r.Region.seg_offset;
            writable = r.Region.prot = Region.Rw;
            message_mode = r.Region.message_mode;
          })
        regions;
  }

let thread_image_of ~program ~xfer ~space (e : Thread_lib.entry) =
  {
    Codec.thread_tag = e.Thread_lib.id;
    thread_gen = e.Thread_lib.oid.Oid.gen;
    program = program e;
    priority = e.Thread_lib.priority;
    affinity = e.Thread_lib.affinity;
    locked = e.Thread_lib.lock;
    space;
    xfer;
  }

(* See the interface: [spaces] but the kernel's own, with their threads,
   and the own-space threads [own]; threads in id order. *)
let image_of ak ?(program = fun (_ : Thread_lib.entry) -> "") ?(own = []) ~xfer spaces =
  let spaces = List.filter (fun v -> not (Option.equal ( == ) (Some v) ak.App_kernel.own_space)) spaces in
  let threads =
    List.map (fun e -> (e, None)) own
    @ List.concat
        (List.mapi
           (fun i (v : Segment_mgr.vspace) ->
             List.map (fun e -> (e, Some i)) (Thread_lib.of_space ak.App_kernel.threads v.Segment_mgr.tag))
           spaces)
    |> List.sort (fun ((a : Thread_lib.entry), _) (b, _) -> compare a.Thread_lib.id b.Thread_lib.id)
  in
  {
    Codec.src_node = Instance.node_id ak.App_kernel.inst;
    spaces = List.map (space_image_of ak) spaces;
    threads = List.map (fun (e, space) -> thread_image_of ~program ~xfer ~space e) threads;
    extras = [];
  }

(* -- applying an image (destination side) ------------------------------- *)

let build_space ak (s : Codec.space_image) =
  let mgr = ak.App_kernel.mgr in
  match Segment_mgr.create_space mgr with
  | Error e -> Error (Fmt.str "create_space: %a" Api.pp_error e)
  | Ok vsp ->
    let segs =
      List.map
        (fun (si : Codec.segment_image) ->
          let seg = Segment_mgr.create_segment mgr ~name:si.Codec.seg_name ~pages:si.Codec.seg_pages in
          List.iter
            (fun (p : Codec.page) ->
              Segment_mgr.write_segment_now mgr seg
                ~offset:(p.Codec.index * Hw.Addr.page_size)
                p.Codec.data)
            si.Codec.payload;
          seg)
        s.Codec.segments
    in
    List.iter
      (fun (r : Codec.region_image) ->
        let segment = List.nth segs r.Codec.seg in
        Segment_mgr.attach_region mgr vsp
          (Region.v
             ~prot:(if r.Codec.writable then Region.Rw else Region.Ro)
             ~message_mode:r.Codec.message_mode ~va_start:r.Codec.va_start ~pages:r.Codec.rg_pages
             ~segment ~seg_offset:r.Codec.seg_offset ()))
      s.Codec.regions;
    Ok vsp

(* See the interface.  The space is built before it is filled, so a
   refused space leaves nothing to undo; the spaces before it leave
   through the one release. *)
let adopt_image ak ~bind (img : Codec.image) =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
      match build_space ak s with
      | Ok v -> build (v :: acc) tl
      | Error e ->
        List.iter (Segment_mgr.release_space ak.App_kernel.mgr) acc;
        Error e)
  in
  let own =
    match ak.App_kernel.own_space with Some v -> Ok v | None -> App_kernel.bind_own_space ak
  in
  match own with
  | Error e -> Error (Fmt.str "own space: %a" Api.pp_error e)
  | Ok own -> (
    match build [] img.Codec.spaces with
    | Error e -> Error e
    | Ok vsps ->
      let adopt (th : Codec.thread_image) =
        let space = match th.Codec.space with Some idx -> List.nth vsps idx | None -> own in
        let saved, body = bind th in
        ( th.Codec.thread_tag,
          Thread_lib.adopt ak.App_kernel.threads ~space_tag:space.Segment_mgr.tag
            ~priority:th.Codec.priority ?affinity:th.Codec.affinity ~lock:th.Codec.locked ?saved
            ?body () )
      in
      Ok (vsps, List.map adopt img.Codec.threads))

let deliver_local t ~local_id ~va =
  let i = inst t in
  match Thread_lib.entry t.ak.App_kernel.threads local_id with
  | Some e when e.Thread_lib.run = Thread_lib.Loaded -> (
    match
      Api.post_signal i ~caller:(App_kernel.oid t.ak) ~thread:e.Thread_lib.oid ~va
    with
    | Ok () -> Instance.count i "migrate.signals_delivered"
    | Error _ -> Instance.count i "migrate.signals_dropped")
  | Some _ | None -> Instance.count i "migrate.signals_dropped"

(* Rebuild the image's spaces and adopt its threads *parked*: adopted into
   the thread library but not scheduled, so the copy cannot execute until
   the source's commit arrives.  The registry residue is read but not
   consumed — it belongs to the source until the transfer reaches a
   terminal state (commit-acked, or re-adopted at the source). *)
let apply t ~xfer (img : Codec.image) =
  let bind (th : Codec.thread_image) =
    match Hashtbl.find_opt registry (th.Codec.xfer, th.Codec.thread_tag) with
    | Some r -> (r.res_saved, r.res_body)
    | None -> (None, None)
  in
  match adopt_image t.ak ~bind img with
  | Error e -> Error e
  | Ok (vsps, threads) ->
    let landing =
      {
        l_threads = threads;
        l_space_tags = List.map (fun (v : Segment_mgr.vspace) -> v.Segment_mgr.tag) vsps;
        l_committed = false;
      }
    in
    Hashtbl.replace t.landings xfer landing;
    Ok landing

(* Schedule a landing's parked threads and deliver the signals that beat
   the commit here.  [counter] is bumped per thread successfully loaded. *)
let schedule_landing t ~xfer (l : landing) ~counter =
  let i = inst t in
  l.l_committed <- true;
  List.iter
    (fun (_tag, id) ->
      match Thread_lib.schedule t.ak.App_kernel.threads id with
      | Ok _ -> Instance.count i counter
      | Error _ -> Instance.count i "migrate.load_deferred")
    l.l_threads;
  match Hashtbl.find_opt t.pending xfer with
  | None -> ()
  | Some sigs ->
    Hashtbl.remove t.pending xfer;
    List.iter
      (fun (tag, va) ->
        match List.assoc_opt tag l.l_threads with
        | Some id -> deliver_local t ~local_id:id ~va
        | None -> Instance.count i "migrate.signals_dropped")
      (List.rev sigs)

(* Destroy a landing: retire its threads (descheduling live ones), release
   its spaces, and drop the signals queued for it.  Registry residue is
   *not* touched — it belongs to the source, which may still re-adopt
   from it. *)
let purge_landing t ~xfer (l : landing) =
  let i = inst t in
  List.iter
    (fun (_tag, id) ->
      (match Thread_lib.entry t.ak.App_kernel.threads id with
      | Some { Thread_lib.run = Thread_lib.Loaded; _ } ->
        ignore (Thread_lib.deschedule t.ak.App_kernel.threads id)
      | _ -> ());
      Thread_lib.retire t.ak.App_kernel.threads id)
    l.l_threads;
  List.iter
    (fun stag ->
      match Segment_mgr.space_by_tag t.ak.App_kernel.mgr stag with
      | Some vsp -> Segment_mgr.release_space t.ak.App_kernel.mgr vsp
      | None -> ())
    l.l_space_tags;
  Hashtbl.remove t.landings xfer;
  Hashtbl.remove t.pending xfer;
  Instance.count i "migrate.purged"

(* A signal for source thread [tag] of transfer [xfer].  Until the landing
   is committed its threads are parked, so the signal waits in [pending]:
   [schedule_landing] delivers it at the commit, [purge_landing] drops it
   with the landing. *)
let land_signal t ~xfer ~tag ~va =
  let committed =
    match Hashtbl.find_opt t.landings xfer with
    | Some l when l.l_committed -> List.assoc_opt tag l.l_threads
    | Some _ | None -> None
  in
  match committed with
  | Some local_id -> deliver_local t ~local_id ~va
  | None ->
    let sigs = Option.value ~default:[] (Hashtbl.find_opt t.pending xfer) in
    Hashtbl.replace t.pending xfer ((tag, va) :: sigs)

(* -- giving a transfer back (source side) ------------------------------- *)

(* Re-adopt a retained image at the source: the transfer failed terminally
   (refused, retransmits exhausted, target lost the parked copy or died),
   so the copy here is authoritative again.  The threads come back under
   fresh local ids in a committed landing of this plane; the forwarding
   stubs for their old ids stay, and {!forward_signal} delivers through
   that landing.  If the re-adoption fails the stubs come down. *)
let give_back t ~xfer ~owe_abort (s : sending) =
  let i = inst t in
  Hashtbl.remove t.sends xfer;
  if owe_abort then Hashtbl.replace t.aborts xfer s.s_dst;
  match Result.bind (Codec.decode s.s_image) (apply t ~xfer) with
  | Error msg ->
    Logs.warn (fun m -> m "migrate: re-adopt failed for xfer %d: %s" xfer msg);
    List.iter (Hashtbl.remove t.forwards) s.s_tags;
    Instance.count i "migrate.readopt_failed"
  | Ok l ->
    schedule_landing t ~xfer l ~counter:"migrate.readopt_loads";
    List.iter (fun tag -> Hashtbl.remove registry (xfer, tag)) s.s_tags;
    Instance.count i "migrate.readopted";
    Instance.trace i (Trace.Migrate_readopt { xfer })

(* -- shipping ----------------------------------------------------------- *)

let chunk_bytes t =
  let cfg = (inst t).Instance.config.Config.migrate_chunk_bytes in
  max 1 (min cfg (Hw.Nic.Fiber.mtu - 64))

(* Send every chunk of a transfer: chunk [seq] is the slice of the
   retained image at [seq * s_chunk].  Each chunk consults the
   migrate.drop fault site: an injected fault models the frame vanishing
   on the fiber — the retransmit watchdog is the recovery moment. *)
let send_chunks t ~xfer (s : sending) =
  let i = inst t in
  let size = Bytes.length s.s_image in
  let total = max 1 ((size + s.s_chunk - 1) / s.s_chunk) in
  let send seq =
    let off = seq * s.s_chunk in
    Instance.count i "migrate.chunks_out";
    t.send ~dst:s.s_dst ~xfer
      (Chunk { seq; total; buf = s.s_image; off; len = min s.s_chunk (size - off) })
  in
  let seq = ref 0 in
  while !seq < total && not (halted t) do
    (match Fault_inject.migrate_drop i.Instance.fi with
    | Fault_inject.Inject ->
      Fault_inject.inject i.Instance.fi ~site:"migrate.drop";
      Instance.count i "migrate.chunks_dropped"
    | Fault_inject.After_inject ->
      Fault_inject.recover i.Instance.fi ~site:"migrate.drop";
      send !seq
    | Fault_inject.Pass -> send !seq);
    step_chunk t "src" !seq;
    incr seq
  done

(* One watchdog per transfer, [retry_us] doubling per resend and
   [max_retries] resends per phase.  [Shipping] resends the chunks, and
   counts from the image's wire time: it cannot be acked earlier.  On
   exhaustion the transfer is abandoned and re-adopted here.
   [Committing] resends [Commit]: a lost commit (or its ack) leaves the
   target parked and the source retaining the image.  On exhaustion the
   transfer stays put — the failure detector's peer_dead/peer_rejoined
   notifications resolve it.  A timer armed in one phase does nothing once
   the transfer has left that phase. *)
let retry_us = 800.0
let max_retries = 6

let rec arm_watchdog t ~xfer =
  let i = inst t in
  match Hashtbl.find_opt t.sends xfer with
  | None -> ()
  | Some s ->
    let phase = s.s_phase in
    let backoff_us = retry_us *. float_of_int (1 lsl s.s_retries) in
    let delay_us =
      match phase with
      | Shipping ->
        (* plus a proportional allowance for the receiver working through
           the chunk arrivals *)
        let wire_us = Hw.Cost.us_of_cycles (Hw.Cost.fiber_serialize (Bytes.length s.s_image)) in
        (wire_us *. 1.1) +. backoff_us
      | Committing -> backoff_us
    in
    Hw.Mpm.after i.Instance.node ~delay:(Hw.Cost.cycles_of_us delay_us) (fun () ->
        match Hashtbl.find_opt t.sends xfer with
        | Some s when s.s_phase = phase -> (
          match phase with
          | Shipping when s.s_retries >= max_retries ->
            Instance.count i "migrate.abandoned";
            (* crash-atomicity: the unreachable target may still hold (or
               later assemble) the shipped image — the retained image
               becomes authoritative again here, and the target is owed an
               abort so a resurrected copy cannot outlive this one *)
            t.send ~dst:s.s_dst ~xfer Abort;
            give_back t ~xfer ~owe_abort:true s
          | Committing when s.s_retries >= max_retries ->
            Instance.count i "migrate.commit_stalled"
          | Shipping ->
            s.s_retries <- s.s_retries + 1;
            Instance.count i "migrate.retransmits";
            send_chunks t ~xfer s;
            arm_watchdog t ~xfer
          | Committing ->
            s.s_retries <- s.s_retries + 1;
            Instance.count i "migrate.commit_resends";
            t.send ~dst:s.s_dst ~xfer Commit;
            arm_watchdog t ~xfer)
        | Some _ | None -> ())

let ship t ~dst ~xfer ~oid img =
  let i = inst t in
  let image = Codec.encode img in
  let tags = List.map (fun (th : Codec.thread_image) -> th.Codec.thread_tag) img.Codec.threads in
  let s =
    {
      s_dst = dst;
      s_image = image;
      s_chunk = chunk_bytes t;
      s_started = now_us t;
      s_tags = tags;
      s_phase = Shipping;
      s_retries = 0;
    }
  in
  Hashtbl.replace t.sends xfer s;
  Metrics.incr ~by:(Bytes.length image) i.Instance.metrics "migrate.bytes_out";
  Instance.trace i (Trace.Migrate_out { oid; dst; xfer; bytes = Bytes.length image });
  step t "src.capture";
  if not (halted t) then begin
    send_chunks t ~xfer s;
    arm_watchdog t ~xfer
  end

(* -- capture: one path for a thread and for a space ---------------------- *)

(* Hand a captured image's threads over to transfer [xfer]: each leaves
   its residue in the registry and its entry here, and a forwarding stub
   re-targets the signals still raised against it. *)
let hand_over t ~dst ~xfer (img : Codec.image) =
  let threads = t.ak.App_kernel.threads in
  List.iter
    (fun (th : Codec.thread_image) ->
      let id = th.Codec.thread_tag in
      Option.iter
        (fun (e : Thread_lib.entry) ->
          let saved = match e.Thread_lib.run with Thread_lib.Unloaded s -> s | Thread_lib.Loaded -> None in
          Hashtbl.replace registry (xfer, id) { res_saved = saved; res_body = e.Thread_lib.body })
        (Thread_lib.entry threads id);
      Thread_lib.retire threads id;
      Hashtbl.replace t.forwards id (xfer, dst))
    img.Codec.threads

(* What one quiesce attempt left of a move's target: gone (or refused), a
   writeback still in flight, or ready — the oid the trace names, the
   own-space threads and the spaces {!image_of} captures. *)
type quiesced =
  | Gone
  | Busy
  | Ready of { oid : Oid.t; own : Thread_lib.entry list; spaces : Segment_mgr.vspace list }

let capture_retry_us = 100.0
let capture_max_attempts = 16

(* An active thread's unload is deferred to its next kernel exit
   (api.ml's unload_pending), so the writeback record may not have landed
   yet when [quiesce] returns: poll every [capture_retry_us] until it
   reports [Ready], and give the move up after [capture_max_attempts].
   Then capture, hand the threads over, release the spaces (the same
   release as process exit) and ship. *)
let rec capture t ~dst ~xfer ~quiesce attempts =
  let i = inst t in
  match quiesce () with
  | Busy when attempts < capture_max_attempts ->
    Instance.count i "migrate.capture_deferred";
    Hw.Mpm.after i.Instance.node ~delay:(Hw.Cost.cycles_of_us capture_retry_us) (fun () ->
        capture t ~dst ~xfer ~quiesce (attempts + 1))
  | Gone | Busy -> Instance.count i "migrate.aborted"
  | Ready { oid; own; spaces } ->
    let img = image_of t.ak ~own ~xfer spaces in
    hand_over t ~dst ~xfer img;
    List.iter (Segment_mgr.release_space t.ak.App_kernel.mgr) spaces;
    Instance.count i (if spaces = [] then "migrate.moves" else "migrate.space_moves");
    ship t ~dst ~xfer ~oid img

let move t ~dst quiesce =
  let xfer = fresh_xfer t in
  capture t ~dst ~xfer ~quiesce 0;
  Ok xfer

(* Move one thread of the kernel's own address space to [dst].  Returns
   the transfer id immediately; capture and shipping complete
   asynchronously (watch migrate.pause_us / the Migrate_acked trace). *)
let move_thread t ~dst id =
  let threads = t.ak.App_kernel.threads in
  let quiesce () =
    match Thread_lib.entry threads id with
    | None -> Gone
    | Some e -> (
      match Thread_lib.deschedule threads id with
      | Error _ -> Gone
      | Ok () -> (
        match e.Thread_lib.run with
        | Thread_lib.Unloaded _ -> Ready { oid = e.Thread_lib.oid; own = [ e ]; spaces = [] }
        | Thread_lib.Loaded -> Busy))
  in
  if Option.is_none (Thread_lib.entry threads id) then Error Api.Stale_reference
  else move t ~dst quiesce

(* Move a whole address space — regions, segment contents and resident
   threads — to [dst].  Asynchronous, like {!move_thread}.  Its threads
   are descheduled first (the space unload would write them back anyway,
   but descheduling through the thread library keeps its records in
   step), then the space itself is unloaded. *)
let move_space t ~dst tag =
  let i = inst t in
  let mgr = t.ak.App_kernel.mgr and threads = t.ak.App_kernel.threads in
  let quiesce () =
    match Segment_mgr.space_by_tag mgr tag with
    | None -> Gone
    | Some vsp ->
      let loaded () =
        List.filter
          (fun (e : Thread_lib.entry) -> e.Thread_lib.run = Thread_lib.Loaded)
          (Thread_lib.of_space threads tag)
      in
      List.iter
        (fun (e : Thread_lib.entry) -> ignore (Thread_lib.deschedule threads e.Thread_lib.id))
        (loaded ());
      let unloaded =
        if not vsp.Segment_mgr.loaded then Ok ()
        else Api.unload_space i ~caller:(App_kernel.oid t.ak) vsp.Segment_mgr.oid
      in
      (* any thread still Loaded has a deferred writeback in flight *)
      if Result.is_ok unloaded && loaded () = [] && not vsp.Segment_mgr.loaded then
        Ready { oid = vsp.Segment_mgr.oid; own = []; spaces = [ vsp ] }
      else Busy
  in
  match Segment_mgr.space_by_tag mgr tag with
  | None -> Error Api.Stale_reference
  | Some v when Option.equal ( == ) (Some v) t.ak.App_kernel.own_space ->
    Error (Api.Bad_argument "the kernel's own space does not move")
  | Some _ -> move t ~dst quiesce

(* -- receive side ------------------------------------------------------- *)

(* Can the [len] bytes of [buf] at [off] fill slot [seq] of [inc]?  Every
   part but the last must have one common, nonzero length (learned from
   the first to arrive), the last may not be longer, and the image those
   lengths imply must fit the codec's limit.  Anything else is forged or
   corrupt. *)
let admissible inc ~seq ~buf ~off ~len =
  let last = seq = inc.i_total - 1 in
  let chunk = if last then inc.i_chunk else len in
  let tail = if last then len else inc.i_last in
  let fits =
    (* a lower bound on the image: unseen parts are as short as allowed *)
    let per = if chunk > 0 then chunk else max 1 tail in
    ((inc.i_total - 1) * per) + max 0 tail <= Codec.max_image_bytes
  in
  off >= 0 && len >= 0 && off + len <= Bytes.length buf
  && seq >= 0 && seq < inc.i_total
  && (last || (len > 0 && (inc.i_chunk = 0 || len = inc.i_chunk)))
  && (chunk = 0 || tail <= chunk)
  && fits

(* One exact-size buffer holding every part at its slot. *)
let assemble inc =
  let image = Bytes.create (((inc.i_total - 1) * inc.i_chunk) + inc.i_last) in
  Hashtbl.iter
    (fun seq (buf, off, len) -> Bytes.blit buf off image (seq * inc.i_chunk) len)
    inc.i_parts;
  image

let land_chunk t ~src ~xfer ~seq ~total ~buf ~off ~len =
  let i = inst t in
  match Hashtbl.find_opt t.landings xfer with
  | Some _ ->
    (* a retransmission crossed our ack — possibly from a restarted source
       incarnation, whose image is byte-identical: the landing stands *)
    t.send ~dst:src ~xfer Applied
  | None ->
    let inc =
      match Hashtbl.find_opt t.incoming xfer with
      | Some inc when inc.i_total = total -> Some inc
      | Some _ -> None
      | None when total >= 1 && total <= Codec.max_image_bytes ->
        Some { i_total = total; i_parts = Hashtbl.create 8; i_chunk = 0; i_last = -1 }
      | None -> None
    in
    match inc with
    | Some inc when admissible inc ~seq ~buf ~off ~len ->
      if not (Hashtbl.mem inc.i_parts seq) then begin
        (* a transfer is only tracked once one of its parts is admitted *)
        Hashtbl.replace t.incoming xfer inc;
        if seq = inc.i_total - 1 then inc.i_last <- len else inc.i_chunk <- len;
        Hashtbl.replace inc.i_parts seq (buf, off, len);
        Instance.count i "migrate.chunks_in";
        step_chunk t "dst" seq
      end;
      if (not (halted t)) && Hashtbl.length inc.i_parts = inc.i_total then begin
        let image = assemble inc in
        Hashtbl.remove t.incoming xfer;
        Metrics.incr ~by:(Bytes.length image) i.Instance.metrics "migrate.bytes_in";
        Instance.trace i (Trace.Migrate_in { xfer; src; bytes = Bytes.length image });
        match Codec.decode image with
        | Error msg ->
          Logs.warn (fun m -> m "migrate: rejecting image for xfer %d: %s" xfer msg);
          Instance.count i "migrate.decode_errors";
          t.send ~dst:src ~xfer Refused
        | Ok img -> (
          match apply t ~xfer img with
          | Ok _landing ->
            step t "dst.applied";
            if not (halted t) then t.send ~dst:src ~xfer Applied
          | Error msg ->
            Logs.warn (fun m -> m "migrate: apply failed for xfer %d: %s" xfer msg);
            Instance.count i "migrate.apply_errors";
            t.send ~dst:src ~xfer Refused)
      end
    | Some _ | None -> Instance.count i "migrate.chunks_rejected"

let recv t ~src ~xfer msg =
  let i = inst t in
  match msg with
  | Chunk { seq; total; buf; off; len } -> land_chunk t ~src ~xfer ~seq ~total ~buf ~off ~len
  | Applied | Refused -> (
    let ok = msg = Applied in
    match Hashtbl.find_opt t.sends xfer with
    | Some ({ s_phase = Shipping; _ } as s) ->
      Instance.trace i (Trace.Migrate_acked { xfer; ok });
      if ok then begin
        (* image applied and parked at the target: retain the image and
           drive the commit handshake — only [Commit_ack] frees it *)
        s.s_phase <- Committing;
        s.s_retries <- 0;
        step t "src.acked";
        if not (halted t) then begin
          t.send ~dst:s.s_dst ~xfer Commit;
          arm_watchdog t ~xfer
        end
      end
      else begin
        (* the target could not apply: the copy here is authoritative *)
        Instance.count i "migrate.failed";
        give_back t ~xfer ~owe_abort:false s
      end
    | Some { s_phase = Committing; _ } | None -> (
      (* duplicate ack — or a late landing of a transfer already re-adopted
         here: remind the target it owes us a purge *)
      match Hashtbl.find_opt t.aborts xfer with
      | Some dst -> t.send ~dst ~xfer Abort
      | None -> ()))
  | Signal { tag; va } -> land_signal t ~xfer ~tag ~va
  | Commit -> (
    match Hashtbl.find_opt t.landings xfer with
    | Some l when not l.l_committed ->
      schedule_landing t ~xfer l ~counter:"migrate.adopted";
      Instance.count i "migrate.committed";
      step t "dst.committed";
      if not (halted t) then t.send ~dst:src ~xfer Commit_ack
    | Some _ -> t.send ~dst:src ~xfer Commit_ack
    | None ->
      (* we crashed after acking and the restart purged the parked copy:
         tell the source its retained image is authoritative *)
      t.send ~dst:src ~xfer Abort_ack)
  | Commit_ack -> (
    match Hashtbl.find_opt t.sends xfer with
    | Some ({ s_phase = Committing; _ } as s) ->
      Hashtbl.remove t.sends xfer;
      List.iter (fun tag -> Hashtbl.remove registry (xfer, tag)) s.s_tags;
      Instance.observe i "migrate.pause_us" (now_us t -. s.s_started);
      Instance.count i "migrate.completed";
      step t "src.done"
    | Some { s_phase = Shipping; _ } | None -> ())
  | Abort ->
    (match Hashtbl.find_opt t.landings xfer with
    | Some l -> purge_landing t ~xfer l
    | None ->
      Hashtbl.remove t.incoming xfer;
      Hashtbl.remove t.pending xfer);
    Instance.count i "migrate.aborts_in";
    t.send ~dst:src ~xfer Abort_ack
  | Abort_ack -> (
    Hashtbl.remove t.aborts xfer;
    match Hashtbl.find_opt t.sends xfer with
    | Some ({ s_phase = Committing; _ } as s) ->
      (* the target lost the parked copy before commit: the retained
         image is authoritative again *)
      give_back t ~xfer ~owe_abort:false s
    | Some { s_phase = Shipping; _ } | None -> ())

(* -- forwarding stub (source side) -------------------------------------- *)

(* A signal raised against the old residence of a migrated thread: forward
   it to the destination plane, which posts it against the thread's new
   identifier — or, once the transfer was given back, deliver it through
   the re-adoption's landing here.  Returns false if [id] never migrated
   from here. *)
let forward_signal t id ~va =
  match Hashtbl.find_opt t.forwards id with
  | None -> false
  | Some (xfer, dst) ->
    let i = inst t in
    Instance.count i "migrate.forwarded";
    Instance.trace i (Trace.Migrate_forwarded { xfer; va });
    if Hashtbl.mem t.landings xfer then land_signal t ~xfer ~tag:id ~va
    else t.send ~dst ~xfer (Signal { tag = id; va });
    true

let create ~ak ~node_id ~send =
  let t =
    {
      ak;
      node_id;
      send;
      sends = Hashtbl.create 8;
      incoming = Hashtbl.create 8;
      landings = Hashtbl.create 8;
      aborts = Hashtbl.create 8;
      forwards = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      on_step = None;
      next_xfer = 0;
    }
  in
  (* signals raised here against threads that migrated away re-target
     through the plane *)
  Thread_lib.set_forwarder ak.App_kernel.threads (fun id ~va -> forward_signal t id ~va);
  t

(* -- failure-detector notifications ------------------------------------- *)

let sorted_bindings tbl pred =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun x v acc -> if pred v then (x, v) :: acc else acc) tbl [])

(* Transfers toward [node] in [phase], in xfer order. *)
let sends_to t ~phase ~node =
  sorted_bindings t.sends (fun s -> s.s_phase = phase && s.s_dst = node)

(* The failure detector confirmed [node] dead.  Transfers toward it cannot
   complete: re-adopt every retained image shipped there — the paper's
   recovery-from-writeback contract applied to in-flight migration — and
   owe any future incarnation of the target an abort, so a copy
   resurrected from its restart cannot outlive the one here. *)
let peer_dead t ~node =
  let i = inst t in
  (* un-acked transfers: the destination held at most a *parked* landing
     (it never saw a commit), which its restart purges — re-adopting here
     cannot duplicate the threads *)
  List.iter
    (fun (xfer, s) ->
      Instance.count i "migrate.peer_dead_recovered";
      give_back t ~xfer ~owe_abort:true s)
    (sends_to t ~phase:Shipping ~node);
  (* committing transfers sit in the commit-uncertainty window: the
     destination may have committed (the copy survives its restart via the
     thread records) or still been parked (its restart purges it).  Only
     the restarted peer can tell us which, by answering the re-sent commit
     with commit-ack or abort-ack — so these wait for {!peer_rejoined}
     instead of re-adopting, which could create a second live copy.  In
     this model a dead node always restarts (its kernel state is a cache
     over writeback images), so the wait terminates. *)
  List.iter
    (fun _ -> Instance.count i "migrate.commit_pending_peer")
    (sends_to t ~phase:Committing ~node)

(* A confirmed-dead peer rejoined (restarted, with a bumped epoch):
   re-deliver every protocol duty owed to the new incarnation. *)
let peer_rejoined t ~node =
  List.iter
    (fun (xfer, dst) -> t.send ~dst ~xfer Abort)
    (sorted_bindings t.aborts (fun dst -> dst = node));
  List.iter
    (fun (xfer, _) -> t.send ~dst:node ~xfer Commit)
    (sends_to t ~phase:Committing ~node);
  List.iter (fun (xfer, s) -> send_chunks t ~xfer s) (sends_to t ~phase:Shipping ~node)

(* -- restart recovery (this node crashed and is coming back) ------------ *)

(* Called *before* the manager reboots the node's kernels: un-committed
   (parked) landings must not be resurrected by the reboot's
   resume-threads pass — the source still holds the authoritative image
   and will either re-commit (our purge makes the commit answer
   [Abort_ack], pushing re-adoption to the source) or has already
   re-adopted.  Partial reassemblies died with the NIC buffers. *)
let purge_uncommitted t =
  List.iter
    (fun (xfer, l) -> purge_landing t ~xfer l)
    (sorted_bindings t.landings (fun (l : landing) -> not l.l_committed));
  Hashtbl.reset t.incoming

(* Called *after* the reboot: resume the source side of every in-flight
   transfer under the node's new epoch — re-ship un-acked images, re-drive
   pending commits, re-send owed aborts. *)
let resume_transfers t =
  let i = inst t in
  let in_phase phase = sorted_bindings t.sends (fun s -> s.s_phase = phase) in
  List.iter
    (fun (xfer, s) ->
      Instance.count i "migrate.retransmits";
      send_chunks t ~xfer s;
      arm_watchdog t ~xfer)
    (in_phase Shipping);
  List.iter
    (fun (xfer, s) ->
      t.send ~dst:s.s_dst ~xfer Commit;
      arm_watchdog t ~xfer)
    (in_phase Committing);
  List.iter
    (fun (xfer, dst) -> t.send ~dst ~xfer Abort)
    (sorted_bindings t.aborts (fun _ -> true))

(* -- balancing helper --------------------------------------------------- *)

(* The cheapest profitable victim: the lowest-id loaded own-space thread
   that is not locked, pinned, or already a forwarding stub. *)
let pick_movable t =
  match t.ak.App_kernel.own_space with
  | None -> None
  | Some own ->
    List.find_map
      (fun (e : Thread_lib.entry) ->
        if
          e.Thread_lib.run = Thread_lib.Loaded
          && (not e.Thread_lib.lock)
          && e.Thread_lib.affinity = None
          && not (Hashtbl.mem t.forwards e.Thread_lib.id)
        then Some e.Thread_lib.id
        else None)
      (Thread_lib.of_space t.ak.App_kernel.threads own.Segment_mgr.tag)
