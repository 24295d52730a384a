(* The segment manager: the memory-management class library of section 3.

   "The memory management library provides the abstraction of physical
   segments mapped into virtual memory regions, managed by a segment
   manager that assigns virtual addresses to physical memory, handling the
   loading of mapping descriptors on page faults."

   This is where paging *policy* lives: frame allocation, page replacement
   (one hand, a pluggable [rank] and [keep]), backing-store I/O, zero-fill
   and copy-on-write — everything a monolithic kernel's VM system does, but
   in user mode, driving the Cache Kernel through load/unload of mappings
   and reading the referenced/modified bits out of writeback records.

   The default rank is a page's fault count, which only the application
   kernel can keep: it sees every fault on its pages and remembers a page
   after eviction, where the Cache Kernel's referenced bits last only as
   long as a mapping.

   The hand launders; it does not write.  A dirty victim is set aside and
   the hand moves on to a clean one, so a fault waits for one disk read,
   not a write and then a read; the dirty pages leave [launder_batch] at a
   time as one sequential write, whose completion frees them.

   Fault handling executes inside the faulting thread's application-kernel
   frame, so operations that wait for disk I/O block the thread on an
   address-valued signal and are woken by the completion callback. *)

open Cachekernel

type env = {
  inst : Instance.t;
  kernel : unit -> Oid.t; (* our kernel object (identifier may change) *)
  frames : Frame_alloc.t;
  store : Backing_store.t;
  threads : Thread_lib.t; (* whose threads block on paging I/O *)
}

type vspace = {
  tag : int; (* stable identifier, echoed in writeback records *)
  mutable oid : Oid.t; (* current Cache Kernel identifier; changes on reload *)
  mutable regions : Region.t list;
  mutable loaded : bool;
}

type stats = {
  mutable soft_faults : int; (* page resident, only the mapping was missing *)
  mutable zero_fills : int;
  mutable page_in_faults : int;
  mutable cow_faults : int;
  mutable protection_errors : int;
  mutable segv : int; (* no region for the address *)
  mutable evictions : int;
}

(* The hand's bookkeeping.  A residency has at most one entry across
   [buckets], [laundry] and [in_flight]: [install] queues it once, the hand
   pops it before setting it aside, and a completed batch requeues only
   the pages it does not free.  So the hand never visits a page that is
   set aside or in flight. *)
module Ranks = Map.Make (Int)

type entry = {
  seg : Segment.t;
  page : int;
  r : Segment.resident;
      (* the residency the entry names; it goes stale when the page leaves
         it *)
}

(* A bucket is a FIFO ring, so that requeueing a page the hand passes over
   allocates nothing. *)
type bucket = { mutable ring : entry array; mutable head : int; mutable len : int }

let vacant =
  { seg = Segment.create ~id:0 ~name:"" ~pages:0; page = 0; r = Segment.resident 0 }

let bucket_push b e =
  let cap = Array.length b.ring in
  if b.len = cap then begin
    let ring = Array.make (max 16 (2 * cap)) vacant in
    for i = 0 to b.len - 1 do
      ring.(i) <- b.ring.((b.head + i) mod cap)
    done;
    b.ring <- ring;
    b.head <- 0
  end;
  b.ring.((b.head + b.len) mod Array.length b.ring) <- e;
  b.len <- b.len + 1

let bucket_pop b =
  let e = b.ring.(b.head) in
  b.ring.(b.head) <- vacant;
  b.head <- (b.head + 1) mod Array.length b.ring;
  b.len <- b.len - 1;
  e

type hand = {
  mutable buckets : bucket Ranks.t;
      (* eviction candidates by rank, each bucket in the order the hand
         visits it; one bucket when the rank is constant *)
  mutable size : int; (* entries across the buckets, stale ones included *)
  mutable released : int;
      (* residencies [release_space] ended since the buckets were last
         swept: at least as many as the stale entries it left there *)
  mutable laundry : entry list;
      (* dirty victims set aside by the hand and not yet written, newest
         first; out of the buckets until their batch completes *)
  mutable in_flight : entry array list; (* batches written and not yet complete *)
  mutable waiters : (unit -> unit) list;
      (* evictors blocked until the next batch completes *)
  mutable remembering : Segment.t list; (* segments with a [history] *)
  mutable since_aging : int; (* faults served since counts last halved *)
}

type t = {
  env : env;
  spaces : (int, vspace) Hashtbl.t; (* by tag *)
  mutable next_space_tag : int;
  mutable next_segment_id : int;
  hand : hand;
  stats : stats;
  mutable on_segv : t -> Kernel_obj.fault_ctx -> unit;
      (* policy hook: no region / protection error.  Default: terminate the
         thread by unloading it. *)
  mutable keep : Segment.t -> int -> Segment.resident -> bool;
      (* policy hook: page replacement.  Whether the hand passes over this
         page once more.  Default: Clock's test. *)
  mutable rank : Segment.t -> int -> Segment.resident -> int;
      (* policy hook: page replacement.  The hand visits lower ranks first.
         Default: the page's fault count. *)
  mutable on_consistency : t -> Kernel_obj.fault_ctx -> bool;
      (* policy hook: consistency faults (remote/failed memory).  A
         distributed-shared-memory layer installs its protocol here;
         returning false falls through to [on_segv]. *)
}

let default_segv t (ctx : Kernel_obj.fault_ctx) =
  Logs.info (fun m ->
      m "segment_mgr: segv for thread %a at %a" Oid.pp ctx.Kernel_obj.thread
        Hw.Addr.pp_addr ctx.Kernel_obj.va);
  ignore
    (Api.unload_thread t.env.inst ~caller:(t.env.kernel ()) ctx.Kernel_obj.thread)

(* Clock (second chance): pass over a page referenced since the hand's last
   visit or still mapped. *)
let clock_keep _seg _page (r : Segment.resident) = r.Segment.referenced || r.Segment.mappers <> []

(* Fault frequency: the pages that fault least go first. *)
let fault_rank _seg _page (r : Segment.resident) = r.Segment.faults

let live e =
  match Hashtbl.find e.seg.Segment.table e.page with
  | Segment.In_memory r -> r == e.r
  | _ | (exception Not_found) -> false

(* Queue [e] as the newest of rank [k]. *)
let requeue t k e =
  let h = t.hand in
  let b =
    match Ranks.find_opt k h.buckets with
    | Some b -> b
    | None ->
      let b = { ring = [||]; head = 0; len = 0 } in
      h.buckets <- Ranks.add k b h.buckets;
      b
  in
  bucket_push b e;
  h.size <- h.size + 1

let enqueue t e = requeue t (t.rank e.seg e.page e.r) e

(* The hand.  It walks the buckets in ascending rank, one lap of each, and
   takes rounds of laps until a victim turns up.  A page [keep] passes
   over has its bit cleared and goes to the back of its bucket; the first
   it does not is the victim.  An entry whose page has since left that
   residency is dropped, and one whose rank rose since it was queued moves
   up without a visit.  After 2 x (entries) passes (every page kept) the
   next live entry is taken as it is.  With one bucket this is Clock. *)
let next_victim t =
  let h = t.hand in
  let budget = ref (2 * h.size) in
  let rec lap k b n =
    if n = 0 then None
    else begin
      let e = bucket_pop b in
      h.size <- h.size - 1;
      if not (live e) then lap k b (n - 1) (* stale candidate *)
      else
        let rank = t.rank e.seg e.page e.r in
        if rank > k then begin
          (* it faulted since it was queued *)
          requeue t rank e;
          lap k b (n - 1)
        end
        else if !budget > 0 && t.keep e.seg e.page e.r then begin
          e.r.Segment.referenced <- false;
          decr budget;
          if rank = k then begin
            bucket_push b e;
            h.size <- h.size + 1
          end
          else requeue t rank e;
          lap k b (n - 1)
        end
        else Some e
    end
  in
  let rec round above =
    let next =
      match above with
      | None -> Ranks.min_binding_opt h.buckets
      | Some a -> Ranks.find_first_opt (fun k -> k > a) h.buckets
    in
    match next with
    | None -> if h.size = 0 then None else round None
    | Some (k, b) -> (
      let found = lap k b b.len in
      if b.len = 0 then h.buckets <- Ranks.remove k h.buckets;
      match found with Some _ -> found | None -> round (Some k))
  in
  round None

(* Drop the stale entries from every bucket, keeping the order of the
   rest.  [release_space] sweeps once the residencies it ended reach half
   the entries, so a manager that never evicts does not keep a dead
   space's pages, and each release pays O(1) amortised. *)
let sweep t =
  let h = t.hand in
  let buckets = Ranks.bindings h.buckets in
  h.buckets <- Ranks.empty;
  h.size <- 0;
  h.released <- 0;
  List.iter
    (fun (k, b) ->
      for i = 0 to b.len - 1 do
        let e = b.ring.((b.head + i) mod Array.length b.ring) in
        if live e then requeue t k e
      done)
    buckets

(* Make [r] the page's residency and queue it for the hand; the page's
   remembered faults join its count. *)
let install t seg page (r : Segment.resident) =
  Segment.set_state seg page (Segment.In_memory r);
  (match seg.Segment.history with
  | Some hist -> (
    match Hashtbl.find_opt hist page with
    | Some n ->
      Hashtbl.remove hist page;
      r.Segment.faults <- r.Segment.faults + n
    | None -> ())
  | None -> ());
  enqueue t { seg; page; r }

(* A page lost its frame: remember its faults. *)
let remember t seg page (r : Segment.resident) =
  if r.Segment.faults > 0 then begin
    let hist =
      match seg.Segment.history with
      | Some hist -> hist
      | None ->
        let hist = Hashtbl.create 16 in
        seg.Segment.history <- Some hist;
        t.hand.remembering <- seg :: t.hand.remembering;
        hist
    in
    Hashtbl.replace hist page r.Segment.faults
  end

(* Halve every count, resident and remembered, and requeue the candidates
   by their new ranks in walk order: within a new rank, the pages of the
   lower old rank first, each oldest first. *)
let age t =
  let h = t.hand in
  let halve e = if live e then e.r.Segment.faults <- e.r.Segment.faults / 2 in
  let queued =
    List.concat_map
      (fun (_, b) -> List.init b.len (fun i -> b.ring.((b.head + i) mod Array.length b.ring)))
      (Ranks.bindings h.buckets)
  in
  List.iter halve queued;
  List.iter halve h.laundry;
  List.iter (Array.iter halve) h.in_flight;
  List.iter
    (fun (seg : Segment.t) ->
      Option.iter
        (Hashtbl.filter_map_inplace (fun _ n -> if n > 1 then Some (n / 2) else None))
        seg.Segment.history)
    h.remembering;
  h.buckets <- Ranks.empty;
  h.size <- 0;
  List.iter (enqueue t) queued

(* One fault served: counts halve after each 10 x F, F the frames the
   manager pages with (TinyLFU's sample window). *)
let tick t =
  let h = t.hand in
  h.since_aging <- h.since_aging + 1;
  if h.since_aging >= 10 * Frame_alloc.pageable t.env.frames then begin
    h.since_aging <- 0;
    age t
  end

let create env =
  let t =
    {
      env;
      spaces = Hashtbl.create 16;
      next_space_tag = 1;
      next_segment_id = 1;
      hand =
        {
          buckets = Ranks.empty;
          size = 0;
          released = 0;
          laundry = [];
          in_flight = [];
          waiters = [];
          remembering = [];
          since_aging = 0;
        };
      stats =
        {
          soft_faults = 0;
          zero_fills = 0;
          page_in_faults = 0;
          cow_faults = 0;
          protection_errors = 0;
          segv = 0;
          evictions = 0;
        };
      on_segv = default_segv;
      keep = clock_keep;
      rank = fault_rank;
      on_consistency = (fun _ _ -> false);
    }
  in
  t

let stats t = t.stats

(* -- Spaces, segments, regions -- *)

(** Create and load a new address space managed by this kernel. *)
let create_space t =
  let tag = t.next_space_tag in
  t.next_space_tag <- tag + 1;
  match Api.load_space t.env.inst ~caller:(t.env.kernel ()) ~tag () with
  | Ok oid ->
    let vsp = { tag; oid; regions = []; loaded = true } in
    Hashtbl.replace t.spaces tag vsp;
    Ok vsp
  | Error e -> Error e

let space_by_tag t tag = Hashtbl.find_opt t.spaces tag

let list_spaces t =
  Hashtbl.fold (fun _ vsp acc -> vsp :: acc) t.spaces []
  |> List.sort (fun a b -> compare a.tag b.tag)

(** Resolve a Cache Kernel space identifier to our record. *)
let space_by_oid t oid =
  Hashtbl.fold
    (fun _ vsp acc -> if Oid.equal vsp.oid oid then Some vsp else acc)
    t.spaces None

let create_segment t ~name ~pages =
  let id = t.next_segment_id in
  t.next_segment_id <- id + 1;
  Segment.create ~id ~name ~pages

(** Bind [region] into [vsp]; mappings load on demand. *)
let attach_region _t vsp region = vsp.regions <- region :: vsp.regions

let region_of vsp va = List.find_opt (fun r -> Region.contains r va) vsp.regions

(* Add the segments of [regions] not in [acc] yet, in list order. *)
let add_segments acc regions =
  List.fold_left
    (fun acc (r : Region.t) ->
      let seg = r.Region.segment in
      if List.exists (fun (s : Segment.t) -> s.Segment.id = seg.Segment.id) acc then acc
      else seg :: acc)
    acc regions

(** Unique segments of a space, in region-attach order. *)
let segments vsp = List.rev (add_segments [] (List.rev vsp.regions))

(** Reload a written-back space (a new identifier is assigned). *)
let reload_space t vsp =
  if vsp.loaded then Ok vsp.oid
  else
    match Api.load_space t.env.inst ~caller:(t.env.kernel ()) ~tag:vsp.tag () with
    | Ok oid ->
      vsp.oid <- oid;
      vsp.loaded <- true;
      Ok oid
    | Error e -> Error e

(** After an MPM crash: every space identifier this kernel held died with
    the node's descriptor caches — without any writeback record arriving.
    Mark all spaces unloaded so the next use reloads them. *)
let mark_crashed t =
  Hashtbl.iter
    (fun _ vsp ->
      vsp.loaded <- false;
      vsp.oid <- Oid.none)
    t.spaces

(* -- Page replacement -- *)

(** Unload every loaded mapping of a resident page, or only [space]'s; the
    writeback records (drained synchronously by the owning kernel's
    writeback hook) update the dirty bit and clear [mappers]. *)
let unmap_residents t ?space (r : Segment.resident) =
  List.iter
    (fun (space_tag, va) ->
      match space_by_tag t space_tag with
      | Some vsp when vsp.loaded && Option.fold ~none:true ~some:(( == ) vsp) space ->
        ignore (Api.unload_mapping t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va)
      | _ -> ())
    r.Segment.mappers

(* The residency segment page [page] shows: its own, or the one a
   copy-on-write page shares. *)
let rec shown seg page =
  match Segment.state seg page with
  | Segment.In_memory r -> Some r
  | Segment.Cow_of (pseg, ppage) -> shown pseg ppage
  | Segment.Zero | Segment.On_disk _ -> None

(* A deferred copy that never happened reverts to the parent's page; a
   block the residency took for an earlier page-out goes back. *)
let revert_cow t seg page (r : Segment.resident) (pseg, ppage) =
  Option.iter (Backing_store.free_block t.env.store) r.Segment.backing;
  Segment.set_state seg page (Segment.Cow_of (pseg, ppage))

(* -- Release: the one way a space leaves (see the interface) --

   Frames go in the segment's table order, then blocks: exit's order,
   which paging afterwards sees through the LIFO frame pool. *)

let release_space t vsp =
  let others = List.filter (fun v -> v.tag <> vsp.tag) (list_spaces t) in
  let live = List.fold_left (fun acc v -> add_segments acc (List.rev v.regions)) [] others in
  let segs = List.filter (fun s -> not (List.memq s live)) (segments vsp) in
  (* (our page, a live page naming it); a file's pages stay the file's *)
  let heirs =
    List.concat_map
      (fun (s : Segment.t) ->
        Hashtbl.fold
          (fun page st acc ->
            match st with
            | Segment.Cow_of (pseg, ppage)
              when List.memq pseg segs && not pseg.Segment.file_backed ->
              ((pseg, ppage), (s, page)) :: acc
            | _ -> acc)
          s.Segment.table [])
      live
  in
  let heirs_of seg page =
    List.filter_map (fun ((s, p), h) -> if s == seg && p = page then Some h else None) heirs
  in
  let mapped_elsewhere (r : Segment.resident) =
    List.exists (fun (tag, _) -> tag <> vsp.tag && Hashtbl.mem t.spaces tag) r.Segment.mappers
  in
  let release_segment (seg : Segment.t) =
    let pages = List.rev (Hashtbl.fold (fun page _ acc -> page :: acc) seg.Segment.table []) in
    List.iter
      (fun page ->
        Option.iter (unmap_residents t ~space:vsp) (shown seg page);
        match Segment.state seg page with
        | Segment.In_memory r when (not (mapped_elsewhere r)) && heirs_of seg page = [] ->
          Frame_alloc.free t.env.frames r.Segment.pfn;
          t.hand.released <- t.hand.released + 1;
          Segment.set_state seg page
            (match r.Segment.backing with Some b -> Segment.On_disk b | None -> Segment.Zero)
        | _ -> () (* a share, reverted by its writeback, or not ours to free *))
      pages;
    List.iter
      (fun page ->
        match (Segment.state seg page, heirs_of seg page) with
        | Segment.In_memory r, _ when mapped_elsewhere r -> () (* the hand's *)
        | st, (heir, hpage) :: rest ->
          (match st with
          | Segment.In_memory r ->
            install t heir hpage r;
            t.hand.released <- t.hand.released + 1
          | st -> Segment.set_state heir hpage st);
          List.iter (fun (s, p) -> Segment.set_state s p (Segment.Cow_of (heir, hpage))) rest;
          Segment.set_state seg page Segment.Zero
        | st, [] ->
          (match st with
          | Segment.On_disk b when not seg.Segment.file_backed -> Backing_store.free_block t.env.store b
          | _ -> ());
          Segment.set_state seg page Segment.Zero)
      pages
  in
  List.iter release_segment segs;
  (* the segments go, and their fault history with them *)
  List.iter (fun (seg : Segment.t) -> seg.Segment.history <- None) segs;
  t.hand.remembering <- List.filter (fun s -> not (List.memq s segs)) t.hand.remembering;
  if 2 * t.hand.released >= t.hand.size then sweep t;
  (* refused while a thread of the space still runs (a process in its
     exit trap): [vsp.loaded] stays true, and the owner unloads it later *)
  if vsp.loaded then ignore (Api.unload_space t.env.inst ~caller:(t.env.kernel ()) vsp.oid);
  Hashtbl.remove t.spaces vsp.tag

(* -- Laundering --

   The hand never writes.  A dirty victim is set aside in the
   laundry and the hand moves on to a clean one, which goes at once; every
   [launder_batch] dirty pages leave as one sequential disk write to a run
   of fresh blocks (WSClock, Carr & Hennessy 1981).  A page stays
   [In_memory] while it is set aside and while its write is in flight, so
   its threads can soft-fault it back in and write it.  Its frame goes
   only at completion, and only if the page is still this residency, with
   no mapping loaded and no modification reported since submission;
   otherwise it goes back to the hand, keeping the block just written. *)

(* Dirty victims per page-out write.  With 8, the fallback wait (one seek
   plus 8 transfers) is about the old write-then-read fault; larger batches
   gain nothing on the paging disk. *)
let launder_batch = 8

(* Batches on their way to disk at once.  Past this a full laundry waits
   and so does the evictor: otherwise, on a disk slower than the hand,
   the laundry swallows the frame pool, the hand's queue is left with
   mapped pages only, and faulting threads evict each other's pages
   before they can use them. *)
let launder_max_in_flight = 4

(* Release a victim's frame: the page is no longer resident, and its
   faults are remembered. *)
let release t e =
  t.stats.evictions <- t.stats.evictions + 1;
  remember t e.seg e.page e.r;
  Frame_alloc.free t.env.frames e.r.Segment.pfn

let laundry_full t = List.compare_length_with t.hand.laundry launder_batch >= 0
let can_submit t = List.compare_length_with t.hand.in_flight launder_max_in_flight < 0

(* A batch is down: free every page still eligible, requeue the others,
   send a full laundry that was waiting for room, wake the evictors. *)
let rec launder_done t batch =
  Array.iter
    (fun e ->
      if live e then begin
        let r = e.r in
        if r.Segment.mappers = [] && not r.Segment.dirty then begin
          Segment.set_state e.seg e.page (Segment.On_disk (Option.get r.Segment.backing));
          release t e
        end
        else enqueue t e
      end
      (* else the page left residency meanwhile; its frame is not ours *))
    batch;
  t.hand.in_flight <- List.filter (fun b -> b != batch) t.hand.in_flight;
  if laundry_full t then submit_laundry t;
  let waiters = t.hand.waiters in
  t.hand.waiters <- [];
  List.iter (fun k -> k ()) (List.rev waiters)

(* Write the laundry as one batch.  Each page is marked clean and moves to
   its block in a fresh run; the block it had holds a stale image and is
   freed (a file's block is not the page's to free). *)
and submit_laundry t =
  let batch = List.rev t.hand.laundry |> List.filter live |> Array.of_list in
  t.hand.laundry <- [];
  let n = Array.length batch in
  if n > 0 then begin
    let store = t.env.store in
    let first = Backing_store.alloc_run store n in
    Array.iteri
      (fun i e ->
        if not e.seg.Segment.file_backed then
          Option.iter (Backing_store.free_block store) e.r.Segment.backing;
        e.r.Segment.backing <- Some (first + i);
        e.r.Segment.dirty <- false)
      batch;
    t.hand.in_flight <- batch :: t.hand.in_flight;
    Backing_store.page_out_batch store ~block:first
      ~pfns:(Array.map (fun e -> e.r.Segment.pfn) batch)
      (fun () -> launder_done t batch)
  end

let set_aside t entry =
  t.hand.laundry <- entry :: t.hand.laundry;
  if laundry_full t && can_submit t then submit_laundry t

(* Submit the laundry if there is room and block until a batch completes;
   [false] when no batch is in flight to wait for. *)
let wait_for_laundry t ~thread =
  if can_submit t then submit_laundry t;
  t.hand.in_flight <> []
  && begin
       Thread_lib.await_token t.env.threads ~thread (fun ~done_ ->
           t.hand.waiters <- done_ :: t.hand.waiters);
       true
     end

(* One step of frame reclaim: evict a clean victim ([`Freed]).  The hand
   sets dirty victims aside on the way and passes at most [budget] of
   them.  At the next, when the laundry is full and cannot go out yet, or
   when the hand has no victim at all, the evictor submits the laundry if
   it can and blocks until a batch completes ([`Waited]).  [`Nothing]
   only when nothing is resident, set aside or in flight. *)
let rec reclaim t ~thread budget =
  let wait () = if wait_for_laundry t ~thread then `Waited else `Nothing in
  match if laundry_full t then None else next_victim t with
  | None -> wait ()
  | Some e -> (
    let r = e.r in
    unmap_residents t r;
    match r.Segment.cow_pending with
    | Some parent when not r.Segment.dirty ->
      revert_cow t e.seg e.page r parent;
      release t e;
      `Freed r.Segment.pfn
    | _ when r.Segment.dirty ->
      set_aside t e;
      if budget > 0 && not (laundry_full t) then reclaim t ~thread (budget - 1) else wait ()
    | _ ->
      Segment.set_state e.seg e.page
        (match r.Segment.backing with
        | Some block -> Segment.On_disk block
        | None -> Segment.Zero);
      release t e;
      `Freed r.Segment.pfn)

(** Evict one resident page and return its frame, laundering dirty
    victims on the way; waits for the laundry when the hand finds no clean
    victim.  [None] if there is nothing to evict. *)
let rec evict_one t ~thread =
  match reclaim t ~thread launder_batch with
  | `Freed pfn -> Some pfn
  | `Waited -> evict_one t ~thread
  | `Nothing -> None

(** Allocate a frame, evicting (and laundering) as needed. *)
let rec alloc_frame t ~thread =
  match Frame_alloc.alloc t.env.frames with
  | Some pfn -> Some pfn
  | None -> (
    match reclaim t ~thread launder_batch with
    | `Freed _ | `Waited -> alloc_frame t ~thread
    | `Nothing -> None)

(* -- Residency -- *)

let charge_zero_fill t =
  Instance.charge t.env.inst (Hw.Addr.page_size / 4 * 2) (* word stores *)

(** Bring segment page [page] into memory, blocking for disk I/O if
    necessary.  Returns the resident record. *)
let rec ensure_resident t seg page ~thread =
  match Segment.state seg page with
  | Segment.In_memory r -> Some r
  | Segment.Zero -> (
    match alloc_frame t ~thread with
    | None -> None
    | Some pfn ->
      Hw.Phys_mem.zero_page t.env.inst.Instance.node.Hw.Mpm.mem pfn;
      charge_zero_fill t;
      t.stats.zero_fills <- t.stats.zero_fills + 1;
      let r = Segment.resident pfn in
      install t seg page r;
      Some r)
  | Segment.On_disk block -> (
    match alloc_frame t ~thread with
    | None -> None
    | Some pfn ->
      t.stats.page_in_faults <- t.stats.page_in_faults + 1;
      Thread_lib.await_token t.env.threads ~thread (fun ~done_ ->
          Backing_store.page_in t.env.store ~block ~pfn (fun () -> done_ ()));
      let r = Segment.resident ~backing:block pfn in
      install t seg page r;
      Some r)
  | Segment.Cow_of (parent, ppage) ->
    (* Residency of a copy-on-write page means making the *parent* page
       resident; the copy itself is deferred until a write. *)
    ensure_resident t parent ppage ~thread

(* -- Mapping loads -- *)

let flags_of (region : Region.t) ~writable =
  {
    Hw.Page_table.writable = (region.Region.prot = Region.Rw) && writable;
    cachable = true;
    message_mode = region.Region.message_mode;
  }

(* The manager's one mapping load: [entries] are [(va, pfn, cow_dst)] in
   [region], the faulting page first, loaded through one batched call
   (with the combined resume when [resume]); a batch of one charges
   exactly what a single load does.  Entries before a failure stay loaded,
   so recovery resumes from the failed entry.  One rule: a stale space is
   reloaded once and the call retried (section 2.1's reload-and-retry,
   also what chaos injects); the first entry already mapped is replaced
   once (a read-only share promoted to a deferred copy); a later entry
   already mapped was raced in by another path and is skipped; any other
   error stops.  Returns, entry by entry, whether it loaded. *)
let load t vsp (region : Region.t) ~writable ~resume entries =
  let inst = t.env.inst in
  let flags = flags_of region ~writable in
  let signal_thread = region.Region.signal_thread () in
  let entries = Array.of_list entries in
  let specs =
    Array.map
      (fun (va, pfn, cow_dst) -> Api.mapping ~va ~pfn ~flags ?signal_thread ?cow_dst ())
      entries
  in
  let n = Array.length specs in
  let loaded = Array.make n false in
  let call = if resume then Api.load_mappings_and_resume else Api.load_mappings in
  let rec go start ~stale ~replace =
    if start < n then
      match
        call inst ~caller:(t.env.kernel ()) ~space:vsp.oid
          (Array.to_list (Array.sub specs start (n - start)))
      with
      | Ok _ -> Array.fill loaded start (n - start) true
      | Error (i, e) -> (
        let fail = start + i in
        Array.fill loaded start i true;
        match e with
        | Api.Stale_reference when stale -> (
          match reload_space t vsp with
          | Ok _ -> go fail ~stale:false ~replace
          | Error _ -> ())
        | Api.Already_mapped when fail = 0 && replace ->
          let va, _, _ = entries.(0) in
          ignore (Api.unload_mapping inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va);
          go 0 ~stale ~replace:false
        | Api.Already_mapped when fail > 0 -> go (fail + 1) ~stale ~replace
        | _ -> ())
  in
  go 0 ~stale:true ~replace:true;
  Array.to_list loaded

(* Regions (across all spaces) that view segment page [page] of [seg]. *)
let viewers t seg page =
  Hashtbl.fold
    (fun _ vsp acc ->
      if not vsp.loaded then acc
      else
        List.fold_left
          (fun acc (r : Region.t) ->
            if
              r.Region.segment == seg
              && page >= r.Region.seg_offset
              && page < r.Region.seg_offset + r.Region.pages
            then (vsp, r) :: acc
            else acc)
          acc vsp.regions)
    t.spaces []

let record_mapper (r : Segment.resident) vsp va =
  if not (List.mem (vsp.tag, va) r.Segment.mappers) then
    r.Segment.mappers <- (vsp.tag, va) :: r.Segment.mappers

(* The faulting entry's mapping loaded: the page is in use now.  Prefetched
   neighbours and message-page siblings only [record_mapper]; their
   writeback's referenced bit says whether they were used. *)
let record_demand (r : Segment.resident) vsp va =
  record_mapper r vsp va;
  r.Segment.referenced <- true

(* -- Clustered fault prefetch --

   Section 4.4's clustered page-group descriptors, applied to fault
   handling: pages of a segment are touched in runs, so when one forwarded
   fault has already paid the trap and crossing, reload the resident
   unmapped neighbors of the faulting page in the same batched [load].
   Each avoided future soft fault saves a full trap + forward + handler
   navigation; a wrong guess costs one [Hw.Cost.batch_entry] plus the
   install. *)

(* Resident, not-yet-mapped neighbors of segment page [page] inside
   [region], nearest first, up to [Config.fault_prefetch] (capped so the
   batch including the faulting entry fits [Config.mapping_batch_max]).  Only
   [In_memory] pages qualify: prefetch amortizes the crossing, it must
   never start disk I/O or zero-fill — and it never reaches outside the
   region's segment window, so it cannot map past the segment's bounds. *)
let prefetch_candidates t vsp (region : Region.t) ~page =
  let prefetch = t.env.inst.Instance.config.Config.fault_prefetch in
  if prefetch <= 0 then []
  else begin
    let depth = min prefetch (Config.mapping_batch_max - 1) in
    let lo = region.Region.seg_offset in
    let hi = region.Region.seg_offset + region.Region.pages - 1 in
    let seg = region.Region.segment in
    let acc = ref [] in
    let n = ref 0 in
    let consider p =
      if !n < depth && p >= lo && p <= hi then
        match Segment.state seg p with
        | Segment.In_memory r ->
          let va = Region.va_of_page region p in
          if not (List.mem (vsp.tag, va) r.Segment.mappers) then begin
            acc := (va, r) :: !acc;
            incr n
          end
        | _ -> ()
    in
    let d = ref 1 in
    while !n < depth && (page + !d <= hi || page - !d >= lo) do
      consider (page + !d);
      consider (page - !d);
      incr d
    done;
    List.rev !acc
  end

(* Multi-mapping consistency (section 4.2): "each application kernel is
   expected to load all the mappings for a message page when it loads any
   of the mappings" — otherwise a sender could signal on a page whose
   receivers' signal mappings are absent.  Load every other view of a
   message page, with its signal thread, when any one of them loads. *)
let load_siblings t seg page (r : Segment.resident) ~skip =
  List.iter
    (fun (vsp', (region' : Region.t)) ->
      let va' = Region.va_of_page region' page in
      if (vsp'.tag, va') <> skip && not (List.mem (vsp'.tag, va') r.Segment.mappers) then
        if load t vsp' region' ~writable:true ~resume:false [ (va', r.Segment.pfn, None) ] = [ true ]
        then record_mapper r vsp' va')
    (viewers t seg page)

(* Serve a fault against [region] at [va].  The fault counts against the
   residency it maps: the page's own, or the parent page a copy-on-write
   read shares. *)
let serve t vsp (region : Region.t) ~va ~(access : Hw.Mmu.access) ~thread =
  tick t;
  let page = Region.page_index region va in
  let seg = region.Region.segment in
  let count (r : Segment.resident) = r.Segment.faults <- r.Segment.faults + 1 in
  (* the page is resident as [r]: its mapping (combined resume) and any
     clustered prefetch in one [load], then a message page's siblings *)
  let demand (r : Segment.resident) =
    count r;
    let cands = prefetch_candidates t vsp region ~page in
    let entries =
      (va, r.Segment.pfn, None)
      :: List.map (fun (va', (r' : Segment.resident)) -> (va', r'.Segment.pfn, None)) cands
    in
    match load t vsp region ~writable:true ~resume:true entries with
    | true :: prefetched ->
      record_demand r vsp va;
      List.iter2
        (fun ok (va', r') ->
          if ok then begin
            record_mapper r' vsp va';
            Instance.count t.env.inst "prefetch.issued"
          end)
        prefetched cands;
      if region.Region.message_mode then load_siblings t seg page r ~skip:(vsp.tag, va)
    | _ -> ()
  in
  match Segment.state seg page with
  | Segment.Cow_of (parent, ppage) when access = Hw.Mmu.Write -> (
    (* Write to a copy-on-write page: preallocate the destination frame and
       let the Cache Kernel's deferred copy do the rest on retry.  Any
       read-only share loaded earlier is unloaded first (its writeback must
       be digested while the page is still recorded as Cow_of). *)
    t.stats.cow_faults <- t.stats.cow_faults + 1;
    ignore (Api.unload_mapping t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va);
    match ensure_resident t parent ppage ~thread with
    | None -> ()
    | Some pres -> (
      match alloc_frame t ~thread with
      | None -> ()
      | Some dst ->
        let r =
          {
            Segment.pfn = dst;
            dirty = true;
            backing = None;
            mappers = [ (vsp.tag, va) ];
            referenced = true;
            cow_pending = Some (parent, ppage);
            faults = 1;
          }
        in
        install t seg page r;
        ignore
          (load t vsp region ~writable:true ~resume:true [ (va, pres.Segment.pfn, Some dst) ])))
  | Segment.Cow_of (parent, ppage) -> (
    (* Read of a copy-on-write page: share the parent's frame read-only. *)
    t.stats.soft_faults <- t.stats.soft_faults + 1;
    match ensure_resident t parent ppage ~thread with
    | None -> ()
    | Some pres ->
      count pres;
      if load t vsp region ~writable:false ~resume:true [ (va, pres.Segment.pfn, None) ] = [ true ]
      then record_demand pres vsp va)
  | Segment.In_memory r ->
    t.stats.soft_faults <- t.stats.soft_faults + 1;
    demand r
  | Segment.Zero | Segment.On_disk _ -> Option.iter demand (ensure_resident t seg page ~thread)

(** The application kernel's page-fault handler (Figure 2 step 3): resolve
    the faulting address to a region and serve the page. *)
(* Application-kernel-level cost of navigating its virtual memory data
   structures on a fault (Figure 2 step 3). *)
let c_fault_navigate = 300

let rec handle_fault t (ctx : Kernel_obj.fault_ctx) =
  Instance.charge t.env.inst c_fault_navigate;
  if
    ctx.Kernel_obj.kind = Hw.Mmu.Consistency_fault
    && t.on_consistency t ctx
  then () (* the DSM protocol took it *)
  else handle_vm_fault t ctx

and handle_vm_fault t (ctx : Kernel_obj.fault_ctx) =
  let va = Hw.Addr.page_base ctx.Kernel_obj.va in
  let vsp =
    match Instance.find_thread t.env.inst ctx.Kernel_obj.thread with
    | Some th -> space_by_oid t th.Thread_obj.space
    | None -> None
  in
  match vsp with
  | None -> () (* thread or space vanished; nothing to serve *)
  | Some vsp -> (
    match region_of vsp va with
    | None ->
      t.stats.segv <- t.stats.segv + 1;
      t.on_segv t ctx
    | Some region ->
      if
        ctx.Kernel_obj.access = Hw.Mmu.Write
        && region.Region.prot = Region.Ro
        && ctx.Kernel_obj.kind = Hw.Mmu.Protection_violation
      then begin
        t.stats.protection_errors <- t.stats.protection_errors + 1;
        t.on_segv t ctx
      end
      else serve t vsp region ~va ~access:ctx.Kernel_obj.access ~thread:ctx.Kernel_obj.thread)

(* -- Writeback processing -- *)

(** Digest a mapping writeback: fold the referenced/modified bits into our
    records and clear the mapper entry.  This is how the application kernel
    learns whether a page must reach backing store before frame reuse, and
    whether the hand should pass over it. *)
let handle_mapping_writeback t ~space_tag (state : Wb.mapping_state) =
  match space_by_tag t space_tag with
  | None -> ()
  | Some vsp -> (
    match region_of vsp state.Wb.va with
    | None -> ()
    | Some region -> (
      let page = Region.page_index region state.Wb.va in
      let seg = region.Region.segment in
      (* the unloaded mapping's page: drop the mapper, keep any reference *)
      let note_unload (r : Segment.resident) =
        r.Segment.mappers <-
          List.filter (fun m -> m <> (vsp.tag, state.Wb.va)) r.Segment.mappers;
        if state.Wb.referenced then r.Segment.referenced <- true
      in
      match Segment.state seg page with
      | Segment.In_memory r when r.Segment.pfn = state.Wb.pfn ->
        (* any on-disk copy is now stale; the next page-out writes the
           page to a fresh block *)
        if state.Wb.modified then r.Segment.dirty <- true;
        r.Segment.cow_pending <- None;
        note_unload r
      | Segment.In_memory r -> (
        (* The written-back mapping still pointed at a deferred-copy source
           frame.  If unmodified, the copy never happened: revert. *)
        note_unload r;
        match r.Segment.cow_pending with
        | Some ((pseg, ppage) as parent) when not state.Wb.modified ->
          Frame_alloc.free t.env.frames r.Segment.pfn;
          revert_cow t seg page r parent;
          (match Segment.state pseg ppage with
          | Segment.In_memory pr -> note_unload pr
          | _ -> ())
        | _ -> if state.Wb.modified then r.Segment.dirty <- true)
      | Segment.Cow_of (pseg, ppage) -> (
        (* Read-shared parent frame unmapped from this space. *)
        match Segment.state pseg ppage with
        | Segment.In_memory pr -> note_unload pr
        | _ -> ())
      | Segment.Zero | Segment.On_disk _ -> ()))

(** Digest an address-space writeback: mark the space unloaded; it must be
    reloaded before any of its threads run again. *)
let handle_space_writeback t ~tag =
  match space_by_tag t tag with
  | None -> ()
  | Some vsp ->
    vsp.loaded <- false;
    vsp.oid <- Oid.none

(* -- Host-context helpers (boot-time program loading) -- *)

(** Fill segment pages with [data] starting at byte [offset], without
    blocking (frames must be available).  Used to load program images. *)
let write_segment_now t seg ~offset data =
  let len = Bytes.length data in
  let mem = t.env.inst.Instance.node.Hw.Mpm.mem in
  let rec loop off =
    if off < len then begin
      let page = (offset + off) / Hw.Addr.page_size in
      let in_page = (offset + off) mod Hw.Addr.page_size in
      let chunk = min (len - off) (Hw.Addr.page_size - in_page) in
      let r =
        match Segment.state seg page with
        | Segment.In_memory r -> r
        | Segment.Zero ->
          let pfn =
            match Frame_alloc.alloc t.env.frames with
            | Some pfn -> pfn
            | None -> failwith "write_segment_now: no free frames"
          in
          Hw.Phys_mem.zero_page mem pfn;
          let r = Segment.resident pfn in
          install t seg page r;
          r
        | Segment.On_disk _ | Segment.Cow_of _ ->
          failwith "write_segment_now: page not writable at boot"
      in
      Hw.Phys_mem.write_sub mem
        (Hw.Addr.addr_of_page r.Segment.pfn + in_page)
        data ~pos:off ~len:chunk;
      r.Segment.dirty <- true;
      loop (off + chunk)
    end
  in
  loop 0
