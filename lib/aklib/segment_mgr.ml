(* The segment manager: the memory-management class library of section 3.

   "The memory management library provides the abstraction of physical
   segments mapped into virtual memory regions, managed by a segment
   manager that assigns virtual addresses to physical memory, handling the
   loading of mapping descriptors on page faults."

   This is where paging *policy* lives: frame allocation, page replacement
   (FIFO with a pluggable victim hook), backing-store I/O, zero-fill and
   copy-on-write — everything a monolithic kernel's VM system does, but in
   user mode, driving the Cache Kernel through load/unload of mappings and
   reading the referenced/modified bits out of writeback records.

   Fault handling executes inside the faulting thread's application-kernel
   frame, so operations that wait for disk I/O block the thread on an
   address-valued signal and are woken by the completion callback. *)

open Cachekernel

type env = {
  inst : Instance.t;
  kernel : unit -> Oid.t; (* our kernel object (identifier may change) *)
  frames : Frame_alloc.t;
  store : Backing_store.t;
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

type t = {
  env : env;
  spaces : (int, vspace) Hashtbl.t; (* by tag *)
  mutable next_space_tag : int;
  mutable next_segment_id : int;
  mutable next_wait_token : int;
  fifo : (Segment.t * int) Queue.t; (* eviction candidates, FIFO order *)
  stats : stats;
  (* clustered fault prefetch (Config.fault_prefetch), adaptive throttle *)
  mutable prefetch_depth : int;
      (* neighbors loaded per fault right now, in [1, fault_prefetch];
         halved when a throttle window shows mostly wasted prefetch, grown
         back by one when prefetch proves useful *)
  prefetched : (int * int, unit) Hashtbl.t;
      (* (space tag, va) loaded ahead of demand and not yet judged: the
         mapping's writeback tells us (via the referenced bit) whether the
         prefetch was used or wasted *)
  mutable prefetch_used : int; (* current throttle window *)
  mutable prefetch_wasted : int;
  mutable on_segv : t -> Kernel_obj.fault_ctx -> unit;
      (* policy hook: no region / protection error.  Default: terminate the
         thread by unloading it. *)
  mutable choose_victim : t -> (Segment.t * int * Segment.resident) option;
      (* policy hook: page replacement.  Default: FIFO over [fifo]. *)
  mutable on_consistency : t -> Kernel_obj.fault_ctx -> bool;
      (* policy hook: consistency faults (remote/failed memory).  A
         distributed-shared-memory layer installs its protocol here;
         returning false falls through to [on_segv]. *)
}

let wait_token_base = 0x7E000000

let default_segv t (ctx : Kernel_obj.fault_ctx) =
  Logs.info (fun m ->
      m "segment_mgr: segv for thread %a at %a" Oid.pp ctx.Kernel_obj.thread
        Hw.Addr.pp_addr ctx.Kernel_obj.va);
  ignore
    (Api.unload_thread t.env.inst ~caller:(t.env.kernel ()) ctx.Kernel_obj.thread)

let rec default_victim t =
  if Queue.is_empty t.fifo then None
  else
    let seg, page = Queue.pop t.fifo in
    match Segment.state seg page with
    | Segment.In_memory r -> Some (seg, page, r)
    | _ -> default_victim t (* stale candidate *)

let create env =
  let t =
    {
      env;
      spaces = Hashtbl.create 16;
      next_space_tag = 1;
      next_segment_id = 1;
      next_wait_token = 0;
      fifo = Queue.create ();
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
      prefetch_depth = env.inst.Instance.config.Config.fault_prefetch;
      prefetched = Hashtbl.create 64;
      prefetch_used = 0;
      prefetch_wasted = 0;
      on_segv = default_segv;
      choose_victim = default_victim;
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
  match
    Backoff.with_backoff t.env.inst (fun () ->
        Api.load_space t.env.inst ~caller:(t.env.kernel ()) ~tag ())
  with
  | Ok oid ->
    let vsp = { tag; oid; regions = []; loaded = true } in
    Hashtbl.replace t.spaces tag vsp;
    Ok vsp
  | Error e -> Error e

let space_by_tag t tag = Hashtbl.find_opt t.spaces tag

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
    match
      Backoff.with_backoff t.env.inst (fun () ->
          Api.load_space t.env.inst ~caller:(t.env.kernel ()) ~tag:vsp.tag ())
    with
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

(* -- Blocking I/O from fault-handler context -- *)

(* Wait for a completion signal carrying a unique token; other signals that
   arrive meanwhile are re-queued behind the wait. *)
let fresh_token t =
  t.next_wait_token <- t.next_wait_token + 1;
  wait_token_base + (t.next_wait_token * 4)

let block_until t ~thread token (start : done_:(unit -> unit) -> unit) =
  start ~done_:(fun () ->
      match Instance.find_thread t.env.inst thread with
      | Some th -> Signals.post_signal t.env.inst th ~va:token
      | None -> () (* thread vanished while waiting; drop *));
  let rec wait () =
    match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va when va = token -> ()
    | Api.Ck_signal other ->
      (* not ours: requeue for the real consumer and keep waiting *)
      (match Instance.find_thread t.env.inst thread with
      | Some th ->
        ignore
          (Thread_obj.queue_signal th
             ~depth_limit:t.env.inst.Instance.config.Config.signal_queue_depth other)
      | None -> ());
      wait ()
    | _ -> wait ()
  in
  wait ()

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
   block the residency took for an abandoned page-out goes back. *)
let revert_cow t seg page (r : Segment.resident) (pseg, ppage) =
  Option.iter (Backing_store.free_block t.env.store) r.Segment.backing;
  Segment.set_state seg page (Segment.Cow_of (pseg, ppage))

(* Write a dirty page to its block (allocated on its first page-out),
   blocking the evicting thread.  The page stays [In_memory] while the
   write is in flight, so its own threads can soft-fault it back in and
   write it; the page-out counts only if, at completion, the page is still
   this residency with no mapping loaded and no modification reported
   since the write was submitted.  Returns whether the frame may go. *)
let page_out_victim t ~thread seg page (r : Segment.resident) =
  let block =
    match r.Segment.backing with
    | Some b -> b
    | None ->
      let b = Backing_store.alloc_block t.env.store in
      r.Segment.backing <- Some b;
      b
  in
  r.Segment.dirty <- false;
  let token = fresh_token t in
  block_until t ~thread token (fun ~done_ ->
      Backing_store.page_out t.env.store ~block ~pfn:r.Segment.pfn (fun _ -> done_ ()));
  match Segment.state seg page with
  | Segment.In_memory r' when r' == r && r.Segment.mappers = [] && not r.Segment.dirty ->
    Segment.set_state seg page (Segment.On_disk block);
    true
  | _ -> false

(** Evict one resident page, blocking on page-out if it is dirty.  Returns
    the freed frame, or [None] if there is nothing to evict.  A dirty page
    that was mapped again while its page-out was in flight stays resident
    (requeued, its block now current up to any new modification) and
    another victim is chosen. *)
let rec evict_one t ~thread =
  match t.choose_victim t with
  | None -> None
  | Some (seg, page, r) ->
    unmap_residents t r;
    let evicted =
      match r.Segment.cow_pending with
      | Some parent when not r.Segment.dirty ->
        revert_cow t seg page r parent;
        true
      | _ when r.Segment.dirty -> page_out_victim t ~thread seg page r
      | _ ->
        (match r.Segment.backing with
        | Some block -> Segment.set_state seg page (Segment.On_disk block)
        | None -> Segment.set_state seg page Segment.Zero);
        true
    in
    if evicted then begin
      t.stats.evictions <- t.stats.evictions + 1;
      Frame_alloc.free t.env.frames r.Segment.pfn;
      Some r.Segment.pfn
    end
    else begin
      (match Segment.state seg page with
      | Segment.In_memory r' when r' == r -> Queue.push (seg, page) t.fifo
      | _ -> () (* the page left residency while we waited; its frame is not ours *));
      evict_one t ~thread
    end

(** Allocate a frame, evicting (and possibly paging out) as needed. *)
let rec alloc_frame t ~thread =
  match Frame_alloc.alloc t.env.frames with
  | Some pfn -> Some pfn
  | None -> (
    match evict_one t ~thread with
    | Some _ -> alloc_frame t ~thread
    | None -> None)

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
      let r =
        { Segment.pfn; dirty = false; backing = None; mappers = []; cow_pending = None }
      in
      Segment.set_state seg page (Segment.In_memory r);
      Queue.push (seg, page) t.fifo;
      Some r)
  | Segment.On_disk block -> (
    match alloc_frame t ~thread with
    | None -> None
    | Some pfn ->
      t.stats.page_in_faults <- t.stats.page_in_faults + 1;
      let token = fresh_token t in
      block_until t ~thread token (fun ~done_ ->
          Backing_store.page_in t.env.store ~block ~pfn (fun () -> done_ ()));
      let r =
        {
          Segment.pfn;
          dirty = false;
          backing = Some block;
          mappers = [];
          cow_pending = None;
        }
      in
      Segment.set_state seg page (Segment.In_memory r);
      Queue.push (seg, page) t.fifo;
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
  let load_raw =
    if resume then Api.load_mapping_and_resume else Api.load_mapping
  in
  (* Back off under storm backpressure at every load attempt: mapping loads
     are the high-rate path where thrashing kernels do their damage. *)
  let load inst ~caller ~space spec =
    Backoff.with_backoff t.env.inst (fun () -> load_raw inst ~caller ~space spec)
  in
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

(* -- Clustered fault prefetch --

   Section 4.4's clustered page-group descriptors, applied to fault
   handling: pages of a segment are touched in runs, so when one forwarded
   fault has already paid the trap and crossing, reload the resident
   unmapped neighbors of the faulting page through the same batched call
   ({!Api.load_mappings_and_resume}).  Each avoided future soft fault saves
   a full trap + forward + handler navigation; a wrong guess costs one
   [Hw.Cost.batch_entry] plus the install, and the adaptive throttle backs
   the depth off when writebacks show prefetched mappings going unused. *)

(* Throttle window: judge the depth every this many prefetch outcomes. *)
let prefetch_window = 32

let note_prefetch_outcome t ~used =
  let inst = t.env.inst in
  if used then begin
    t.prefetch_used <- t.prefetch_used + 1;
    Instance.count inst "prefetch.used"
  end
  else begin
    t.prefetch_wasted <- t.prefetch_wasted + 1;
    Instance.count inst "prefetch.wasted"
  end;
  if t.prefetch_used + t.prefetch_wasted >= prefetch_window then begin
    let max_depth = inst.Instance.config.Config.fault_prefetch in
    if t.prefetch_wasted > t.prefetch_used then
      (* mostly wasted: halve, but keep probing with depth 1 so a returning
         sequential phase can grow it back *)
      t.prefetch_depth <- max 1 (t.prefetch_depth / 2)
    else if t.prefetch_depth < max_depth then
      t.prefetch_depth <- t.prefetch_depth + 1;
    t.prefetch_used <- 0;
    t.prefetch_wasted <- 0
  end

(* Resident, not-yet-mapped neighbors of segment page [page] inside
   [region], nearest first, up to the adaptive depth (capped so the batch
   including the faulting entry fits [Config.mapping_batch_max]).  Only
   [In_memory] pages qualify: prefetch amortizes the crossing, it must
   never start disk I/O or zero-fill — and it never reaches outside the
   region's segment window, so it cannot map past the segment's bounds. *)
let prefetch_candidates t vsp (region : Region.t) ~page =
  let config = t.env.inst.Instance.config in
  if config.Config.fault_prefetch <= 0 then []
  else begin
    let depth = min t.prefetch_depth (config.Config.mapping_batch_max - 1) in
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
   failed suffix — reload-and-retry for a stale space identifier, bounded
   doubling backoff (mirroring {!Backoff.with_backoff}) for [Overloaded],
   skip-and-continue when a neighbor raced to [Already_mapped].  Any other
   neighbor failure just abandons the remaining prefetch: the fault itself
   was served. *)
let load_batch_with_prefetch t vsp (region : Region.t) ~va (r : Segment.resident)
    cands =
  let inst = t.env.inst in
  let config = inst.Instance.config in
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
  let overload_attempt = ref 0 in
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
        | Api.Overloaded when !overload_attempt < config.Config.overload_max_retries ->
          Instance.count inst "overload.backoff";
          let delay_us =
            config.Config.overload_backoff_us *. (2.0 ** float_of_int !overload_attempt)
          in
          Instance.charge inst (Hw.Cost.cycles_of_us delay_us);
          incr overload_attempt;
          go fail
        | Api.Already_mapped when fail > 0 ->
          (* another path (sibling load, another fault) raced this neighbor
             in; it is mapped, just not by us — skip it *)
          go (fail + 1)
        | _ -> () (* keep the loaded prefix; drop the rest *))
    end
  in
  go 0;
  if loaded.(0) then begin
    record_mapper r vsp va;
    for j = 1 to n - 1 do
      if loaded.(j) then begin
        let va', r' = entries.(j) in
        record_mapper r' vsp va';
        Hashtbl.replace t.prefetched (vsp.tag, va') ();
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
      record_mapper r vsp va;
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
            cow_pending = Some (parent, ppage);
          }
        in
        Segment.set_state seg page (Segment.In_memory r);
        Queue.push (seg, page) t.fifo;
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
        record_mapper pres vsp va;
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
    learns whether a page must reach backing store before frame reuse. *)
let handle_mapping_writeback t ~space_tag (state : Wb.mapping_state) =
  match space_by_tag t space_tag with
  | None -> ()
  | Some vsp -> (
    (* A prefetched mapping's verdict arrives here: the referenced bit in
       its writeback says whether the guess was used before displacement. *)
    if Hashtbl.mem t.prefetched (vsp.tag, state.Wb.va) then begin
      Hashtbl.remove t.prefetched (vsp.tag, state.Wb.va);
      note_prefetch_outcome t ~used:state.Wb.referenced
    end;
    match region_of vsp state.Wb.va with
    | None -> ()
    | Some region -> (
      let page = Region.page_index region state.Wb.va in
      let seg = region.Region.segment in
      let drop_mapper (r : Segment.resident) =
        r.Segment.mappers <-
          List.filter (fun m -> m <> (vsp.tag, state.Wb.va)) r.Segment.mappers
      in
      match Segment.state seg page with
      | Segment.In_memory r when r.Segment.pfn = state.Wb.pfn ->
        (* any on-disk copy is now stale; the next page-out rewrites the
           page's block in place *)
        if state.Wb.modified then r.Segment.dirty <- true;
        r.Segment.cow_pending <- None;
        drop_mapper r
      | Segment.In_memory r -> (
        (* The written-back mapping still pointed at a deferred-copy source
           frame.  If unmodified, the copy never happened: revert. *)
        drop_mapper r;
        match r.Segment.cow_pending with
        | Some ((pseg, ppage) as parent) when not state.Wb.modified ->
          Frame_alloc.free t.env.frames r.Segment.pfn;
          revert_cow t seg page r parent;
          (match Segment.state pseg ppage with
          | Segment.In_memory pr -> drop_mapper pr
          | _ -> ())
        | _ -> if state.Wb.modified then r.Segment.dirty <- true)
      | Segment.Cow_of (pseg, ppage) -> (
        (* Read-shared parent frame unmapped from this space. *)
        match Segment.state pseg ppage with
        | Segment.In_memory pr -> drop_mapper pr
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
          let r =
            {
              Segment.pfn;
              dirty = true;
              backing = None;
              mappers = [];
              cow_pending = None;
            }
          in
          Segment.set_state seg page (Segment.In_memory r);
          Queue.push (seg, page) t.fifo;
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
