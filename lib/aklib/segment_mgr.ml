(* The segment manager: the memory-management class library of section 3.

   "The memory management library provides the abstraction of physical
   segments mapped into virtual memory regions, managed by a segment
   manager that assigns virtual addresses to physical memory, handling the
   loading of mapping descriptors on page faults."

   This is where paging *policy* lives: frame allocation, page replacement
   (Clock with a pluggable [keep] test), backing-store I/O, zero-fill and
   copy-on-write — everything a monolithic kernel's VM system does, but in
   user mode, driving the Cache Kernel through load/unload of mappings and
   reading the referenced/modified bits out of writeback records.

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
   [clock], [laundry] and [in_flight]: [install] queues it once, the hand
   pops it before setting it aside, and a completed batch requeues only
   the pages it does not free.  So the hand never visits a page that is
   set aside or in flight. *)
type hand = {
  clock : (Segment.t * int * Segment.resident) Queue.t;
      (* eviction candidates in the order the Clock hand visits them; an
         entry names one residency and goes stale when the page leaves it *)
  mutable laundry : (Segment.t * int * Segment.resident) list;
      (* dirty victims set aside by the hand and not yet written, newest
         first; out of [clock] until their batch completes *)
  mutable in_flight : (Segment.t * int * Segment.resident) array list;
      (* batches written and not yet complete *)
  mutable waiters : (unit -> unit) list;
      (* evictors blocked until the next batch completes *)
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

(* The hand.  A page [keep] passes over has its bit cleared and is requeued;
   the first it does not is the victim.  An entry whose page has since left
   that residency is dropped.  After 2 x queue-length passes (every page
   kept) the next live entry is taken as it is. *)
let next_victim t =
  let clock = t.hand.clock in
  let rec scan budget =
    match Queue.take_opt clock with
    | None -> None
    | Some ((seg, page, r) as entry) -> (
      match Segment.state seg page with
      | Segment.In_memory r' when r' == r ->
        if budget > 0 && t.keep seg page r then begin
          r.Segment.referenced <- false;
          Queue.push entry clock;
          scan (budget - 1)
        end
        else Some entry
      | _ -> scan budget (* stale candidate *))
  in
  scan (2 * Queue.length clock)

(* Make [r] the page's residency and queue it for the hand. *)
let install t seg page (r : Segment.resident) =
  Segment.set_state seg page (Segment.In_memory r);
  Queue.push (seg, page, r) t.hand.clock

let create env =
  let t =
    {
      env;
      spaces = Hashtbl.create 16;
      next_space_tag = 1;
      next_segment_id = 1;
      hand = { clock = Queue.create (); laundry = []; in_flight = []; waiters = [] };
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

(** Forget a space whose owner has released it. *)
let drop_space t vsp = Hashtbl.remove t.spaces vsp.tag

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

(** Unload every loaded mapping of a resident page; the writeback records
    (drained synchronously by the owning kernel's writeback hook) update
    the dirty bit and clear [mappers]. *)
let unmap_residents t (r : Segment.resident) =
  List.iter
    (fun (space_tag, va) ->
      match space_by_tag t space_tag with
      | Some vsp when vsp.loaded ->
        ignore (Api.unload_mapping t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va)
      | _ -> ())
    r.Segment.mappers

(* A deferred copy that never happened reverts to the parent's page; a
   block the residency took for an earlier page-out goes back. *)
let revert_cow t seg page (r : Segment.resident) (pseg, ppage) =
  Option.iter (Backing_store.free_block t.env.store) r.Segment.backing;
  Segment.set_state seg page (Segment.Cow_of (pseg, ppage))

(* -- Laundering --

   The Clock hand never writes.  A dirty victim is set aside in the
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

(* Release a victim's frame: the page is no longer resident. *)
let release t (r : Segment.resident) =
  t.stats.evictions <- t.stats.evictions + 1;
  Frame_alloc.free t.env.frames r.Segment.pfn

let laundry_full t = List.compare_length_with t.hand.laundry launder_batch >= 0
let can_submit t = List.compare_length_with t.hand.in_flight launder_max_in_flight < 0

(* A batch is down: free every page still eligible, requeue the others,
   send a full laundry that was waiting for room, wake the evictors. *)
let rec launder_done t batch =
  Array.iter
    (fun ((seg, page, (r : Segment.resident)) as entry) ->
      match Segment.state seg page with
      | Segment.In_memory r' when r' == r ->
        if r.Segment.mappers = [] && not r.Segment.dirty then begin
          Segment.set_state seg page (Segment.On_disk (Option.get r.Segment.backing));
          release t r
        end
        else Queue.push entry t.hand.clock
      | _ -> () (* the page left residency meanwhile; its frame is not ours *))
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
  let batch =
    List.rev t.hand.laundry
    |> List.filter (fun (seg, page, r) ->
           match Segment.state seg page with
           | Segment.In_memory r' -> r' == r
           | _ -> false)
    |> Array.of_list
  in
  t.hand.laundry <- [];
  let n = Array.length batch in
  if n > 0 then begin
    let store = t.env.store in
    let first = Backing_store.alloc_run store n in
    Array.iteri
      (fun i ((seg : Segment.t), _, (r : Segment.resident)) ->
        if not seg.Segment.file_backed then
          Option.iter (Backing_store.free_block store) r.Segment.backing;
        r.Segment.backing <- Some (first + i);
        r.Segment.dirty <- false)
      batch;
    t.hand.in_flight <- batch :: t.hand.in_flight;
    Backing_store.page_out_batch store ~block:first
      ~pfns:(Array.map (fun (_, _, (r : Segment.resident)) -> r.Segment.pfn) batch)
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
  | Some ((seg, page, r) as entry) -> (
    unmap_residents t r;
    match r.Segment.cow_pending with
    | Some parent when not r.Segment.dirty ->
      revert_cow t seg page r parent;
      release t r;
      `Freed r.Segment.pfn
    | _ when r.Segment.dirty ->
      set_aside t entry;
      if budget > 0 && not (laundry_full t) then reclaim t ~thread (budget - 1) else wait ()
    | _ ->
      (match r.Segment.backing with
      | Some block -> Segment.set_state seg page (Segment.On_disk block)
      | None -> Segment.set_state seg page Segment.Zero);
      release t r;
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

let load_map t vsp (region : Region.t) ~va ~pfn ?cow_dst ~writable ~resume () =
  let spec =
    Api.mapping ~va ~pfn
      ~flags:(flags_of region ~writable)
      ?signal_thread:(region.Region.signal_thread ())
      ?cow_dst ()
  in
  let load = if resume then Api.load_mapping_and_resume else Api.load_mapping in
  match load t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid spec with
  | Ok () -> Ok ()
  | Error Api.Already_mapped -> (
    (* Upgrade: replace the stale mapping (e.g. a read-only share being
       promoted to a deferred copy). *)
    ignore (Api.unload_mapping t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va);
    match load t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid spec with
    | Ok () -> Ok ()
    | Error e -> Error e)
  | Error Api.Stale_reference -> (
    (* The space was victimized between the fault and this load — or chaos
       injected the same outcome.  Reload it and retry once: the paper's
       reload-and-retry protocol for stale identifiers (section 2.1). *)
    match reload_space t vsp with
    | Error e -> Error e
    | Ok _ -> load t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid spec)
  | Error e -> Error e

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
   unmapped neighbors of the faulting page through the same batched call
   ({!Api.load_mappings_and_resume}).  Each avoided future soft fault saves
   a full trap + forward + handler navigation; a wrong guess costs one
   [Hw.Cost.batch_entry] plus the install. *)

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

(* Serve a soft fault with one batched crossing: the faulting mapping first,
   prefetched neighbors after it.  Returns true when the faulting entry
   loaded.  The retry loop realises the batch's partial-failure contract:
   entries before a failure index stay loaded, so recovery resumes from the
   failed suffix — reload-and-retry for a stale space identifier,
   skip-and-continue when a neighbor raced to [Already_mapped].  Any other
   neighbor failure just abandons the remaining prefetch: the fault itself
   was served. *)
let load_batch_with_prefetch t vsp (region : Region.t) ~va (r : Segment.resident)
    cands =
  let inst = t.env.inst in
  let entries = Array.of_list ((va, r) :: cands) in
  let n = Array.length entries in
  let loaded = Array.make n false in
  let spec_of (va', (r' : Segment.resident)) =
    Api.mapping ~va:va' ~pfn:r'.Segment.pfn
      ~flags:(flags_of region ~writable:true)
      ?signal_thread:(region.Region.signal_thread ())
      ()
  in
  let stale_budget = ref 1 in
  let rec go start =
    if start < n then begin
      let specs = List.map spec_of (Array.to_list (Array.sub entries start (n - start))) in
      match
        Api.load_mappings_and_resume inst ~caller:(t.env.kernel ()) ~space:vsp.oid specs
      with
      | Ok _ -> Array.fill loaded start (n - start) true
      | Error (i, e) -> (
        let fail = start + i in
        Array.fill loaded start i true;
        match e with
        | Api.Stale_reference when !stale_budget > 0 -> (
          decr stale_budget;
          match reload_space t vsp with Ok _ -> go fail | Error _ -> ())
        | Api.Already_mapped when fail > 0 ->
          (* another path (sibling load, another fault) raced this neighbor
             in; it is mapped, just not by us — skip it *)
          go (fail + 1)
        | _ -> () (* keep the loaded prefix; drop the rest *))
    end
  in
  go 0;
  if loaded.(0) then begin
    record_demand r vsp va;
    for j = 1 to n - 1 do
      if loaded.(j) then begin
        let va', r' = entries.(j) in
        record_mapper r' vsp va';
        Instance.count inst "prefetch.issued"
      end
    done;
    true
  end
  else false

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
        match
          load_map t vsp' region' ~va:va' ~pfn:r.Segment.pfn ~writable:true ~resume:false
            ()
        with
        | Ok () -> record_mapper r vsp' va'
        | Error _ -> ())
    (viewers t seg page)

(* Serve a soft fault: the faulting mapping (combined resume) plus any
   clustered prefetch, batched through one crossing; the plain single-call
   path when there is nothing to prefetch, or as the fallback when the
   batch could not serve the faulting entry itself (load_map's
   Already_mapped-upgrade and stale-retry handling then applies). *)
let load_faulting_mapping t vsp (region : Region.t) ~va ~page (r : Segment.resident) =
  let single () =
    match load_map t vsp region ~va ~pfn:r.Segment.pfn ~writable:true ~resume:true () with
    | Ok () ->
      record_demand r vsp va;
      true
    | Error _ -> false
  in
  match prefetch_candidates t vsp region ~page with
  | [] -> single ()
  | cands -> load_batch_with_prefetch t vsp region ~va r cands || single ()

(* Serve a fault against [region] at [va]. *)
let serve t vsp (region : Region.t) ~va ~(access : Hw.Mmu.access) ~thread =
  let page = Region.page_index region va in
  let seg = region.Region.segment in
  match Segment.state seg page with
  | Segment.Cow_of (parent, ppage) when access = Hw.Mmu.Write -> (
    (* Write to a copy-on-write page: preallocate the destination frame and
       let the Cache Kernel's deferred copy do the rest on retry.  Any
       read-only share loaded earlier is unloaded first (its writeback must
       be digested while the page is still recorded as Cow_of). *)
    t.stats.cow_faults <- t.stats.cow_faults + 1;
    ignore (Api.unload_mapping t.env.inst ~caller:(t.env.kernel ()) ~space:vsp.oid ~va);
    match ensure_resident t parent ppage ~thread with
    | None -> false
    | Some pres -> (
      match alloc_frame t ~thread with
      | None -> false
      | Some dst -> (
        let r =
          {
            Segment.pfn = dst;
            dirty = true;
            backing = None;
            mappers = [ (vsp.tag, va) ];
            referenced = true;
            cow_pending = Some (parent, ppage);
          }
        in
        install t seg page r;
        match
          load_map t vsp region ~va ~pfn:pres.Segment.pfn ~cow_dst:dst ~writable:true
            ~resume:true ()
        with
        | Ok () -> true
        | Error _ -> false)))
  | Segment.Cow_of (parent, ppage) -> (
    (* Read of a copy-on-write page: share the parent's frame read-only. *)
    t.stats.soft_faults <- t.stats.soft_faults + 1;
    match ensure_resident t parent ppage ~thread with
    | None -> false
    | Some pres -> (
      match
        load_map t vsp region ~va ~pfn:pres.Segment.pfn ~writable:false ~resume:true ()
      with
      | Ok () ->
        record_demand pres vsp va;
        true
      | Error _ -> false))
  | Segment.In_memory r ->
    t.stats.soft_faults <- t.stats.soft_faults + 1;
    let served = load_faulting_mapping t vsp region ~va ~page r in
    if served && region.Region.message_mode then
      load_siblings t seg page r ~skip:(vsp.tag, va);
    served
  | Segment.Zero | Segment.On_disk _ -> (
    match ensure_resident t seg page ~thread with
    | None -> false
    | Some r ->
      let served = load_faulting_mapping t vsp region ~va ~page r in
      if served && region.Region.message_mode then
        load_siblings t seg page r ~skip:(vsp.tag, va);
      served)

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
      else
        ignore
          (serve t vsp region ~va ~access:ctx.Kernel_obj.access
             ~thread:ctx.Kernel_obj.thread))

(* -- Writeback processing -- *)

(** Digest a mapping writeback: fold the referenced/modified bits into our
    records and clear the mapper entry.  This is how the application kernel
    learns whether a page must reach backing store before frame reuse, and
    whether the Clock hand should pass over it. *)
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
