(* Integration tests for the application-kernel class libraries: the
   segment manager (demand paging, eviction, page-out/page-in, deferred
   copy), the thread library (unload/reload with saved state) and channels
   over memory-based messaging. *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let make ?(mem = 16 * 1024 * 1024) ?config () =
  let node = Hw.Mpm.create ~node_id:0 ~cpus:2 ~mem_size:mem () in
  let inst = Instance.create ?config node in
  (* grant the first kernel every page group *)
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let ak =
    match App_kernel.boot_first inst ~name:"ak" ~groups () with
    | Ok ak -> ak
    | Error e -> Alcotest.failf "boot: %a" Api.pp_error e
  in
  (inst, ak)

let user_space ak =
  match Segment_mgr.create_space ak.App_kernel.mgr with
  | Ok vsp -> vsp
  | Error e -> Alcotest.failf "create_space: %a" Api.pp_error e

let spawn_user ak vsp ~priority body =
  ok
    (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority
       (Hw.Exec.unit_body body))

let test_demand_paging_with_eviction () =
  let inst, ak = make () in
  (* Constrain the pool: take all but 8 frames hostage so eviction kicks in.
     The segment covers 32 pages; the thread writes then re-reads them. *)
  let keep = 8 in
  let avail = Frame_alloc.available ak.App_kernel.frames in
  ignore (Frame_alloc.take ak.App_kernel.frames (avail - keep));
  let vsp = user_space ak in
  let seg = Segment_mgr.create_segment ak.App_kernel.mgr ~name:"data" ~pages:32 in
  let base = 0x40000000 in
  Segment_mgr.attach_region ak.App_kernel.mgr vsp
    (Region.v ~va_start:base ~pages:32 ~segment:seg ~seg_offset:0 ());
  let sum = ref 0 in
  let body () =
    for i = 0 to 31 do
      Hw.Exec.mem_write (base + (i * Hw.Addr.page_size)) (i * 3)
    done;
    for i = 0 to 31 do
      sum := !sum + Hw.Exec.mem_read (base + (i * Hw.Addr.page_size))
    done
  in
  ignore (spawn_user ak vsp ~priority:8 body);
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "data survives paging" (3 * (31 * 32 / 2)) !sum;
  let s = Segment_mgr.stats ak.App_kernel.mgr in
  Alcotest.(check bool) "evictions happened" true (s.Segment_mgr.evictions > 0);
  Alcotest.(check bool)
    "dirty pages went to disk" true
    (Backing_store.page_outs ak.App_kernel.store > 0);
  Alcotest.(check bool)
    "pages came back from disk" true
    (Backing_store.page_ins ak.App_kernel.store > 0)

(* Where the segment manager holds a page's first word now. *)
let word_of_page ak seg page =
  match Segment.state seg page with
  | Segment.In_memory r ->
    Some
      (Hw.Phys_mem.read_word ak.App_kernel.inst.Instance.node.Hw.Mpm.mem
         (Hw.Addr.addr_of_page r.Segment.pfn))
  | Segment.On_disk block ->
    let b = Backing_store.read_block_now ak.App_kernel.store ~block in
    Some (Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF)
  | Segment.Zero -> Some 0
  | Segment.Cow_of _ -> None

let hostage_all_but ak keep =
  let avail = Frame_alloc.available ak.App_kernel.frames in
  ignore (Frame_alloc.take ak.App_kernel.frames (avail - keep))

(* N pages cycle through a 4-frame pool many times: every page keeps one
   block for life, so the disk never holds more than N blocks, and the
   last write to each page reads back from wherever the page is. *)
let test_paging_keeps_one_block_per_page () =
  let inst, ak = make () in
  hostage_all_but ak 4;
  let n = 16 and rounds = 6 in
  let vsp = user_space ak in
  let seg = Segment_mgr.create_segment ak.App_kernel.mgr ~name:"cycle" ~pages:n in
  let base = 0x40000000 in
  Segment_mgr.attach_region ak.App_kernel.mgr vsp
    (Region.v ~va_start:base ~pages:n ~segment:seg ~seg_offset:0 ());
  let value round i = (round * 1000) + i in
  let body () =
    for round = 1 to rounds do
      for i = 0 to n - 1 do
        let va = base + (((i * 5) + round) mod n * Hw.Addr.page_size) in
        Hw.Exec.mem_write va (value round (((i * 5) + round) mod n))
      done
    done
  in
  ignore (spawn_user ak vsp ~priority:8 body);
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "pages were written out repeatedly" true
    (Backing_store.page_outs ak.App_kernel.store > 2 * n);
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) (Printf.sprintf "page %d last write" i)
      (Some (value rounds i)) (word_of_page ak seg i)
  done;
  let live = Hw.Disk.live_blocks ak.App_kernel.disk in
  if live > n then Alcotest.failf "%d live disk blocks for %d pages" live n

(* A page-out stores the frame's image, not the page: one word written at
   offset 0 takes at most 8 bytes of disk buffer, and reads back whole. *)
let test_page_out_stores_image () =
  let inst, ak = make () in
  let mem = inst.Instance.node.Hw.Mpm.mem and disk = ak.App_kernel.disk in
  let pfn = Option.get (Frame_alloc.alloc ak.App_kernel.frames) in
  Hw.Phys_mem.zero_page mem pfn;
  Hw.Phys_mem.write_word mem (Hw.Addr.addr_of_page pfn) 0x1234;
  let stored0 = Hw.Disk.stored_bytes disk in
  let block = Backing_store.alloc_block ak.App_kernel.store in
  Backing_store.page_out_batch ak.App_kernel.store ~block ~pfns:[| pfn |] ignore;
  ignore (Engine.run [| inst |]);
  let stored = Hw.Disk.stored_bytes disk - stored0 in
  if stored > 8 then Alcotest.failf "a one-word page stores %d bytes" stored;
  let want = Bytes.make Hw.Addr.page_size '\000' in
  Bytes.set_int32_le want 0 0x1234l;
  Alcotest.(check bool) "the page reads back whole" true
    (Bytes.equal want (Backing_store.read_block_now ak.App_kernel.store ~block))

(* Thread A evicts B's dirty page and blocks in its page-out; meanwhile B
   faults the still-resident page back in and writes it.  The eviction
   must not complete under B's live mapping: B's later write survives and
   B never sees A's data through a recycled frame. *)
let test_remap_during_page_out () =
  let inst, ak = make () in
  hostage_all_but ak 1;
  let mgr = ak.App_kernel.mgr in
  let page_space name =
    let vsp = user_space ak in
    let seg = Segment_mgr.create_segment mgr ~name ~pages:1 in
    Segment_mgr.attach_region mgr vsp
      (Region.v ~va_start:0x40000000 ~pages:1 ~segment:seg ~seg_offset:0 ());
    (vsp, seg)
  in
  let vsp_b, seg_b = page_space "b" in
  let vsp_a, seg_a = page_space "a" in
  let io = Hw.Disk.run_latency 1 in
  let seen = ref (-1) in
  ignore
    (spawn_user ak vsp_b ~priority:8 (fun () ->
         Hw.Exec.mem_write 0x40000000 1;
         Hw.Exec.compute (io / 4);
         (* A's page-out of this page is in flight now *)
         Hw.Exec.mem_write 0x40000000 2;
         Hw.Exec.compute (io * 4);
         seen := Hw.Exec.mem_read 0x40000000));
  ignore
    (spawn_user ak vsp_a ~priority:8 (fun () ->
         Hw.Exec.compute (io / 8);
         Hw.Exec.mem_write 0x40000000 7));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "B reads its own last write" 2 !seen;
  Alcotest.(check (option int)) "B's page holds its last write" (Some 2) (word_of_page ak seg_b 0);
  Alcotest.(check (option int)) "A's page holds A's write" (Some 7) (word_of_page ak seg_a 0)

(* -- Clock page replacement -- *)

let base = 0x40000000

let one_segment_space ak ~name ~pages =
  let mgr = ak.App_kernel.mgr in
  let vsp = user_space ak in
  let seg = Segment_mgr.create_segment mgr ~name ~pages in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages ~segment:seg ~seg_offset:0 ());
  (vsp, seg)

(* One thread of [vsp] reads [pages] in order, to quiescence. *)
let read_pages inst ak vsp pages =
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         List.iter (fun p -> ignore (Hw.Exec.mem_read (base + (p * Hw.Addr.page_size)))) pages));
  ignore (Engine.run [| inst |])

let resident seg page =
  match Segment.state seg page with
  | Segment.In_memory r -> r
  | _ -> Alcotest.failf "page %d is not resident" page

let is_resident seg page =
  match Segment.state seg page with Segment.In_memory _ -> true | _ -> false

(* Unload the pages' mappings: their writebacks carry the referenced bits
   back to the segment manager. *)
let unmap_pages ak seg pages =
  List.iter (fun p -> Segment_mgr.unmap_residents ak.App_kernel.mgr (resident seg p)) pages

let evict ak =
  match Segment_mgr.evict_one ak.App_kernel.mgr ~thread:Oid.none with
  | Some _ -> ()
  | None -> Alcotest.fail "evict_one found no victim"

(* Pages 0-2 are read (clean); 0 and 2 are unmapped, 1 keeps its
   mapping.  The first eviction clears every bit on its way round and
   takes page 0, leaving 1 then 2 queued.  Page 1 is used again through
   its loaded mapping, without a fault; only its writeback tells the
   segment manager, so the hand passes over it and takes page 2, where
   FIFO order would have taken page 1. *)
let test_clock_second_chance () =
  let inst, ak = make () in
  let vsp, seg = one_segment_space ak ~name:"clock" ~pages:3 in
  read_pages inst ak vsp [ 0; 1; 2 ];
  unmap_pages ak seg [ 0; 2 ];
  evict ak;
  Alcotest.(check (list bool)) "page 0 went first" [ false; true; true ]
    (List.map (is_resident seg) [ 0; 1; 2 ]);
  Alcotest.(check bool) "the hand cleared the mapped page's bit" false
    (resident seg 1).Segment.referenced;
  read_pages inst ak vsp [ 1 ];
  Alcotest.(check int) "no fault: the mapping was loaded" 0
    (Segment_mgr.stats ak.App_kernel.mgr).Segment_mgr.soft_faults;
  unmap_pages ak seg [ 1 ];
  Alcotest.(check bool) "the writeback carried the reference" true
    (resident seg 1).Segment.referenced;
  evict ak;
  Alcotest.(check (list bool)) "the re-referenced page survives" [ false; true; false ]
    (List.map (is_resident seg) [ 0; 1; 2 ]);
  Alcotest.(check bool) "its second chance is spent" false (resident seg 1).Segment.referenced

(* Every resident page keeps a loaded mapping: the hand passes over all of
   them, and the scan cap still yields a victim — the page at the head of
   the queue, unloaded on the way out. *)
let test_clock_all_mapped () =
  let inst, ak = make () in
  let vsp, seg = one_segment_space ak ~name:"mapped" ~pages:3 in
  read_pages inst ak vsp [ 0; 1; 2 ];
  Alcotest.(check bool) "every page mapped" true
    (List.for_all (fun p -> (resident seg p).Segment.mappers <> []) [ 0; 1; 2 ]);
  evict ak;
  Alcotest.(check int) "one eviction" 1
    (Segment_mgr.stats ak.App_kernel.mgr).Segment_mgr.evictions;
  Alcotest.(check (list bool)) "the queue's head went" [ false; true; true ]
    (List.map (is_resident seg) [ 0; 1; 2 ])

(* A mapping loaded ahead of demand is not a reference: with prefetch on,
   a fault on page 0 also maps its resident neighbour 1, which the thread
   never touches.  Once both mappings are written back, page 1 is the next
   victim although page 0 is ahead of it in the queue.  (Both pages are
   marked clean, so the victim is freed rather than laundered.) *)
let test_prefetch_is_not_a_reference () =
  let inst, ak = make ~config:{ Config.default with Config.fault_prefetch = 1 } () in
  let mgr = ak.App_kernel.mgr in
  let vsp, seg = one_segment_space ak ~name:"prefetch" ~pages:2 in
  Segment_mgr.write_segment_now mgr seg ~offset:0
    (Bytes.make (2 * Hw.Addr.page_size) '\001');
  read_pages inst ak vsp [ 0 ];
  let count name = Metrics.counter inst.Instance.metrics name in
  Alcotest.(check int) "the neighbour was prefetched" 1 (count "prefetch.issued");
  Alcotest.(check (pair bool bool)) "mapped but not referenced" (true, false)
    ((resident seg 1).Segment.mappers <> [], (resident seg 1).Segment.referenced);
  unmap_pages ak seg [ 0; 1 ];
  List.iter (fun p -> (resident seg p).Segment.dirty <- false) [ 0; 1 ];
  evict ak;
  Alcotest.(check (list bool)) "the untouched neighbour is the victim" [ true; false ]
    (List.map (is_resident seg) [ 0; 1 ])

(* Wrap the manager's [keep] so that every page the hand asks about is
   logged (segment name, page, residency, answer) and checked to be the
   page's current residency. *)
let record_keep mgr =
  let log = ref [] in
  let default = mgr.Segment_mgr.keep in
  mgr.Segment_mgr.keep <-
    (fun seg page r ->
      (match Segment.state seg page with
      | Segment.In_memory r' when r' == r -> ()
      | _ -> Alcotest.failf "asked about %s page %d, not its residency" seg.Segment.name page);
      let k = default seg page r in
      log := (seg.Segment.name, page, r, k) :: !log;
      k);
  log

(* A page that leaves residency without a pop leaves its queue entry
   behind.  Here a deferred copy's mapping writes back unmodified, so the
   copy never happened and the page reverts to the parent's; a later write
   makes it resident again.  The queue then holds two entries for the
   page, but only one names its current residency: the hand asks about
   that one alone and gives the page one chance, not two. *)
let test_queue_names_the_residency () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let parent = Segment_mgr.create_segment mgr ~name:"parent" ~pages:1 in
  Segment_mgr.write_segment_now mgr parent ~offset:0 (Bytes.make 4 '\007');
  let vsp, child = one_segment_space ak ~name:"child" ~pages:1 in
  (* the state a copy-on-write fault leaves behind: a queued copy frame
     whose mapping still names the parent's frame *)
  Segment_mgr.write_segment_now mgr child ~offset:0 (Bytes.make 4 '\007');
  let copy = resident child 0 in
  copy.Segment.mappers <- [ (vsp.Segment_mgr.tag, base) ];
  copy.Segment.referenced <- true;
  copy.Segment.cow_pending <- Some (parent, 0);
  Segment_mgr.handle_mapping_writeback mgr ~space_tag:vsp.Segment_mgr.tag
    {
      Wb.va = base;
      pfn = (resident parent 0).Segment.pfn;
      flags = { Hw.Page_table.writable = true; cachable = true; message_mode = false };
      referenced = false;
      modified = false;
      had_signal_thread = false;
    };
  Alcotest.(check bool) "the copy reverted" true
    (match Segment.state child 0 with Segment.Cow_of _ -> true | _ -> false);
  ignore (spawn_user ak vsp ~priority:8 (fun () -> Hw.Exec.mem_write base 9));
  ignore (Engine.run [| inst |]);
  let current = resident child 0 in
  Alcotest.(check bool) "a new residency" true (current != copy);
  (* The parent's page, queued first, and the child's are both referenced
     and unmapped: one pass clears both bits and the hand comes round to
     the parent.  Had the stale entry counted, it would have spent the
     child's chance and the live entry behind it would be the victim.
     Both are marked clean, so the victim is freed rather than laundered. *)
  unmap_pages ak child [ 0 ];
  (resident parent 0).Segment.referenced <- true;
  Alcotest.(check bool) "the write was reported" true current.Segment.referenced;
  List.iter (fun seg -> (resident seg 0).Segment.dirty <- false) [ parent; child ];
  let log = record_keep mgr in
  evict ak;
  Alcotest.(check (list (pair string bool))) "asked once each, then the parent again"
    [ ("parent", true); ("child", true); ("parent", false) ]
    (List.rev_map (fun (name, _, _, k) -> (name, k)) !log);
  Alcotest.(check bool) "about the child's live residency" true
    (List.for_all (fun (name, _, r, _) -> name <> "child" || r == current) !log);
  Alcotest.(check (pair bool bool)) "one chance each: the parent went" (false, true)
    (is_resident parent 0, is_resident child 0)

(* With a [keep] that keeps nothing the hand is FIFO: pages go in the
   order they became resident, mapped and referenced or not.  PL's paging
   pair runs this policy against Clock. *)
let test_keep_nothing_is_fifo () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let vsp, seg = one_segment_space ak ~name:"fifo" ~pages:4 in
  read_pages inst ak vsp [ 2; 0; 3; 1 ];
  unmap_pages ak seg [ 0; 3 ];
  Alcotest.(check (list bool)) "pages 1 and 2 still mapped" [ false; true; true; false ]
    (List.map (fun p -> (resident seg p).Segment.mappers <> []) [ 0; 1; 2; 3 ]);
  mgr.Segment_mgr.keep <- (fun _ _ _ -> false);
  let gone = ref [] in
  for _ = 1 to 4 do
    evict ak;
    gone :=
      List.find (fun p -> not (is_resident seg p || List.mem p !gone)) [ 0; 1; 2; 3 ] :: !gone
  done;
  Alcotest.(check (list int)) "evicted in install order" [ 2; 0; 3; 1 ] (List.rev !gone)

(* -- Fault frequency: the hand's rank -- *)

(* A reference Clock over one queue, for clean pages: a resident page is
   referenced (the manager's bit), mapped, and used through its mapping
   since it was loaded (the Cache Kernel's bit, which the mapping's
   writeback reports). *)
type model_page = { mutable referenced : bool; mutable mapped : bool; mutable used : bool }

let model_clock ~frames ops =
  let queue = Queue.create () and pages = Hashtbl.create 8 and victims = ref [] in
  let evict () =
    let rec scan budget =
      let p = Queue.pop queue in
      let m = Hashtbl.find pages p in
      if budget > 0 && (m.referenced || m.mapped) then begin
        m.referenced <- false;
        Queue.push p queue;
        scan (budget - 1)
      end
      else begin
        Hashtbl.remove pages p;
        victims := p :: !victims
      end
    in
    scan (2 * Queue.length queue)
  in
  List.iter
    (fun (read, p) ->
      match (read, Hashtbl.find_opt pages p) with
      | true, Some m when m.mapped -> m.used <- true
      | true, Some m ->
        m.mapped <- true;
        m.referenced <- true;
        m.used <- true
      | true, None ->
        if Hashtbl.length pages = frames then evict ();
        Hashtbl.replace pages p { referenced = true; mapped = true; used = true };
        Queue.push p queue
      | false, Some m when m.mapped ->
        if m.used then m.referenced <- true;
        m.mapped <- false;
        m.used <- false
      | false, _ -> ())
    ops;
  List.rev !victims

(* The same operations on the segment manager with a constant rank: one
   thread reads pages (a fault when unmapped) and unloads their mappings
   (writebacks); the victims are the pages that leave residency. *)
let manager_clock ~frames ~pages ops =
  let inst, ak = make () in
  hostage_all_but ak frames;
  ak.App_kernel.mgr.Segment_mgr.rank <- (fun _ _ _ -> 0);
  let vsp, seg = one_segment_space ak ~name:"model" ~pages in
  let victims = ref [] in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         List.iter
           (fun (read, p) ->
             let before = List.filter (is_resident seg) (List.init pages Fun.id) in
             if read then ignore (Hw.Exec.mem_read (base + (p * Hw.Addr.page_size)))
             else if is_resident seg p then unmap_pages ak seg [ p ];
             victims := List.filter (fun q -> not (is_resident seg q)) before @ !victims)
           ops));
  ignore (Engine.run [| inst |]);
  List.rev !victims

let prop_constant_rank_is_clock =
  let pages = 6 and frames = 3 in
  QCheck.Test.make ~name:"a constant rank evicts as a queue Clock does" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 60) (pair bool (int_bound (pages - 1))))
    (fun ops -> manager_clock ~frames ~pages ops = model_clock ~frames ops)

(* Fault page [p] of [vsp]'s segment once more: unload its mapping, if
   any, and read it. *)
let refault inst ak vsp seg p =
  if is_resident seg p then unmap_pages ak seg [ p ];
  read_pages inst ak vsp [ p ]

let history seg page =
  Option.bind seg.Segment.history (fun hist -> Hashtbl.find_opt hist page)

(* Page 0 faults three times and is evicted: the segment remembers 3, and
   the page's next residency starts from it.  Releasing the space drops
   the history with the segment. *)
let test_count_survives_eviction () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let vsp, seg = one_segment_space ak ~name:"history" ~pages:2 in
  Alcotest.(check bool) "no history yet" true (seg.Segment.history = None);
  for _ = 1 to 3 do
    refault inst ak vsp seg 0
  done;
  Alcotest.(check int) "three faults counted" 3 (resident seg 0).Segment.faults;
  unmap_pages ak seg [ 0 ];
  evict ak;
  Alcotest.(check (option int)) "remembered after eviction" (Some 3) (history seg 0);
  read_pages inst ak vsp [ 0 ];
  Alcotest.(check int) "the next residency goes on from it" 4 (resident seg 0).Segment.faults;
  Alcotest.(check (option int)) "and the history lets it go" None (history seg 0);
  unmap_pages ak seg [ 0 ];
  evict ak;
  Alcotest.(check (option int)) "remembered again" (Some 4) (history seg 0);
  Segment_mgr.release_space mgr vsp;
  Alcotest.(check bool) "released with the segment" true (seg.Segment.history = None)

(* With F pageable frames, every count halves at the 10 x F-th fault,
   resident and remembered alike; the fault that ages them then counts. *)
let test_counts_halve () =
  let inst, ak = make () in
  hostage_all_but ak 4;
  let f = Frame_alloc.pageable ak.App_kernel.frames in
  let vsp, seg = one_segment_space ak ~name:"aging" ~pages:2 in
  for _ = 1 to 3 do
    refault inst ak vsp seg 1
  done;
  unmap_pages ak seg [ 1 ];
  evict ak;
  for _ = 1 to (10 * f) - 4 do
    refault inst ak vsp seg 0
  done;
  Alcotest.(check int) "one fault short of the window" ((10 * f) - 4)
    (resident seg 0).Segment.faults;
  Alcotest.(check (option int)) "page 1 remembered" (Some 3) (history seg 1);
  refault inst ak vsp seg 0;
  Alcotest.(check int) "resident count halved, then counted"
    ((((10 * f) - 4) / 2) + 1)
    (resident seg 0).Segment.faults;
  Alcotest.(check (option int)) "remembered count halved" (Some 1) (history seg 1)

(* Without frame pressure nothing is evicted, so no segment keeps a
   history, not even after its space is released. *)
let test_no_eviction_no_history () =
  let inst, ak = make () in
  let vsp, seg = one_segment_space ak ~name:"roomy" ~pages:16 in
  read_pages inst ak vsp (List.init 16 Fun.id);
  refault inst ak vsp seg 3;
  Alcotest.(check int) "no evictions" 0
    (Segment_mgr.stats ak.App_kernel.mgr).Segment_mgr.evictions;
  Alcotest.(check int) "faults were counted" 2 (resident seg 3).Segment.faults;
  Segment_mgr.release_space ak.App_kernel.mgr vsp;
  Alcotest.(check bool) "no history" true (seg.Segment.history = None)

(* The hand goes to the page that faulted least, although it is younger
   and the older one is neither referenced nor mapped. *)
let test_fewest_faults_go_first () =
  let inst, ak = make () in
  let vsp, seg = one_segment_space ak ~name:"lfu" ~pages:2 in
  refault inst ak vsp seg 0;
  refault inst ak vsp seg 0;
  refault inst ak vsp seg 1;
  unmap_pages ak seg [ 0; 1 ];
  List.iter (fun p -> (resident seg p).Segment.referenced <- false) [ 0; 1 ];
  evict ak;
  Alcotest.(check (list bool)) "the once-faulted page went" [ true; false ]
    (List.map (is_resident seg) [ 0; 1 ])

(* -- Laundering: the hand sets dirty victims aside and writes them in
   batches -- *)

let page_va p = base + (p * Hw.Addr.page_size)

(* Pages 0 .. [dirty]-1 written, then pages [dirty] .. [dirty + clean]-1
   read, all unmapped: the hand meets the dirty ones first. *)
let dirty_then_clean inst ak vsp seg ~dirty ~clean =
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         for p = 0 to dirty - 1 do
           Hw.Exec.mem_write (page_va p) (100 + p)
         done;
         for p = dirty to dirty + clean - 1 do
           ignore (Hw.Exec.mem_read (page_va p))
         done));
  ignore (Engine.run [| inst |]);
  unmap_pages ak seg (List.init (dirty + clean) Fun.id)

(* A full batch of dirty pages sits ahead of a clean one.  A fault that
   needs a frame evicts the clean page at once; the dirty ones leave as
   one sequential write to consecutive blocks, which completes one seek
   plus n transfers after its submission, after the fault was served. *)
let test_launder_clean_victim_first () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr and disk = ak.App_kernel.disk in
  let node = inst.Instance.node in
  let n = Segment_mgr.launder_batch in
  hostage_all_but ak (n + 1);
  let vsp, seg = one_segment_space ak ~name:"launder" ~pages:(n + 2) in
  dirty_then_clean inst ak vsp seg ~dirty:n ~clean:1;
  let writes0 = Hw.Disk.writes disk in
  let lat = Hw.Disk.run_latency n in
  (* record whether the batch's first page is still resident at [time] *)
  let probe time seen =
    Hw.Event_queue.schedule node.Hw.Mpm.events ~time (fun () -> seen := Some (is_resident seg 0))
  in
  let t0 = ref 0 and t1 = ref 0 and served_writes = ref 0 in
  let before = ref None and after = ref None in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         t0 := Hw.Mpm.now node;
         ignore (Hw.Exec.mem_read (page_va (n + 1)));
         t1 := Hw.Mpm.now node;
         served_writes := Hw.Disk.writes disk - writes0;
         probe (!t0 + lat - 1) before;
         probe (!t1 + lat) after));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "served with the batch written" n !served_writes;
  Alcotest.(check bool) "the fault did not wait for the disk" true
    (!t1 - !t0 < Hw.Disk.run_latency 1);
  Alcotest.(check (pair (option bool) (option bool)))
    "the batch completed one seek plus n transfers after its submission"
    (Some true, Some false) (!before, !after);
  Alcotest.(check bool) "the clean page went" false (is_resident seg n);
  let blocks =
    List.init n (fun p ->
        match Segment.state seg p with
        | Segment.On_disk b -> b
        | _ -> Alcotest.failf "dirty page %d is not on disk" p)
  in
  let first = List.hd blocks in
  Alcotest.(check (list int)) "one run of consecutive blocks" (List.init n (( + ) first))
    blocks;
  Alcotest.(check (list (option int))) "every page reads back"
    (List.init n (fun p -> Some (100 + p)))
    (List.init n (word_of_page ak seg));
  Alcotest.(check int) "every victim evicted" (n + 1)
    (Segment_mgr.stats mgr).Segment_mgr.evictions

(* A laundered page is faulted back in and rewritten while its batch is in
   flight: it stays resident with the new data, dirty, and its frame is
   not freed under it — whether its new mapping is still loaded when the
   batch completes or was unloaded again, reporting the write. *)
let launder_remap_in_flight ~unmap_again () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr and disk = ak.App_kernel.disk in
  let n = Segment_mgr.launder_batch in
  hostage_all_but ak (n + 1);
  let vsp, seg = one_segment_space ak ~name:"remap" ~pages:(n + 2) in
  dirty_then_clean inst ak vsp seg ~dirty:n ~clean:1;
  let writes0 = Hw.Disk.writes disk in
  let in_flight = ref (0, false) and seen = ref 0 in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         ignore (Hw.Exec.mem_read (page_va (n + 1)));
         Hw.Exec.mem_write (page_va 0) 777;
         seen := Hw.Exec.mem_read (page_va 0);
         if unmap_again then unmap_pages ak seg [ 0 ];
         (* written, and its other pages not yet freed *)
         in_flight := (Hw.Disk.writes disk - writes0, is_resident seg 1)));
  ignore (Engine.run [| inst |]);
  Alcotest.(check (pair int bool)) "the batch was in flight" (n, true) !in_flight;
  Alcotest.(check int) "the thread reads its write" 777 !seen;
  Alcotest.(check bool) "the rewritten page stayed" true (is_resident seg 0);
  Alcotest.(check (option int)) "with its new data" (Some 777) (word_of_page ak seg 0);
  unmap_pages ak seg [ 0 ];
  Alcotest.(check bool) "and is dirty" true (resident seg 0).Segment.dirty;
  Alcotest.(check int) "the clean page and the other dirty ones went" n
    (Segment_mgr.stats mgr).Segment_mgr.evictions

(* A thread zero-fills a stream of pages, writing every other one, so the
   hand finds a clean victim after each dirty one and dirty pages pile up
   faster than batches complete.  Each page is touched once, so a page
   written to disk is on its way until it is [On_disk], and a dirty page
   without a mapping is in the laundry.  At most [launder_max_in_flight]
   batches are ever on their way, the laundry never holds more than a
   batch, and every write survives. *)
let test_launder_in_flight_bounded () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr and disk = ak.App_kernel.disk in
  let pages = 512 in
  hostage_all_but ak 64;
  let vsp, seg = one_segment_space ak ~name:"stream" ~pages in
  let writes0 = Hw.Disk.writes disk in
  let in_flight = ref 0 and laundry = ref 0 and evictions = ref (-1) in
  (* sampled once per eviction, at the hand's first question *)
  let sample () =
    let on_disk = ref 0 and set_aside = ref 0 in
    for p = 0 to pages - 1 do
      match Segment.state seg p with
      | Segment.On_disk _ -> incr on_disk
      | Segment.In_memory r when r.Segment.dirty && r.Segment.mappers = [] -> incr set_aside
      | _ -> ()
    done;
    in_flight := max !in_flight (Hw.Disk.writes disk - writes0 - !on_disk);
    laundry := max !laundry !set_aside
  in
  let default = mgr.Segment_mgr.keep in
  mgr.Segment_mgr.keep <-
    (fun seg' page r ->
      let e = (Segment_mgr.stats mgr).Segment_mgr.evictions in
      if e <> !evictions then begin
        evictions := e;
        sample ()
      end;
      default seg' page r);
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         for p = 0 to pages - 1 do
           if p land 1 = 0 then Hw.Exec.mem_write (page_va p) (p + 1)
           else ignore (Hw.Exec.mem_read (page_va p))
         done));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "the bound was reached, not passed"
    (Segment_mgr.launder_max_in_flight * Segment_mgr.launder_batch)
    !in_flight;
  Alcotest.(check bool) "the laundry holds at most a batch" true
    (!laundry <= Segment_mgr.launder_batch);
  Alcotest.(check (list (option int))) "every write reads back"
    (List.init (pages / 2) (fun i -> Some ((2 * i) + 1)))
    (List.init (pages / 2) (fun i -> word_of_page ak seg (2 * i)))

(* The hand owns the candidates: under heavy laundering (a 16-entry
   mapping cache unloads most mappings, so the hand meets many unmapped
   dirty pages) a recording [keep] is asked only about pages' current
   residencies, and never again about a residency it let go — freed, or
   set aside and then on its way to disk, since no page is touched
   twice. *)
let test_keep_sees_only_the_hand () =
  let inst, ak = make ~config:{ Config.default with Config.mapping_cache = 16 } () in
  let mgr = ak.App_kernel.mgr in
  let pages = 384 in
  hostage_all_but ak 48;
  let vsp, seg = one_segment_space ak ~name:"heavy" ~pages in
  let log = record_keep mgr in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         for p = 0 to pages - 1 do
           if p mod 3 <> 2 then Hw.Exec.mem_write (page_va p) (p + 1)
           else ignore (Hw.Exec.mem_read (page_va p))
         done));
  ignore (Engine.run [| inst |]);
  let dirty_let_go = ref 0 in
  ignore
    (List.fold_left
       (fun gone (_, page, r, k) ->
         if List.memq r gone then
           Alcotest.failf "asked again about page %d after letting it go" page;
         if k then gone
         else begin
           (* a page-out gave it a block *)
           if r.Segment.backing <> None then incr dirty_let_go;
           r :: gone
         end)
       [] (List.rev !log));
  (* more dirty pages let go than fit on their way to disk at once *)
  if !dirty_let_go <= Segment_mgr.launder_max_in_flight * Segment_mgr.launder_batch then
    Alcotest.failf "only %d dirty pages let go" !dirty_let_go;
  Alcotest.(check (list (option int))) "every write reads back"
    (List.filter_map
       (fun p -> if p mod 3 <> 2 then Some (Some (p + 1)) else None)
       (List.init pages Fun.id))
    (List.filter_map
       (fun p -> if p mod 3 <> 2 then Some (word_of_page ak seg p) else None)
       (List.init pages Fun.id))

(* Every candidate is dirty: the hand sets them all aside and finds no
   victim, so the evictor submits the laundry and waits for it, then gets
   a frame.  Reporting "nothing to evict" instead leaves the fault
   unserved until the thread is killed for making no progress. *)
let test_launder_waits_for_progress () =
  let inst, ak = make () in
  let k = 3 in
  hostage_all_but ak k;
  let vsp, seg = one_segment_space ak ~name:"wait" ~pages:(k + 1) in
  dirty_then_clean inst ak vsp seg ~dirty:k ~clean:0;
  let seen = ref (-1) in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         Hw.Exec.mem_write (page_va k) 55;
         seen := Hw.Exec.mem_read (page_va k)));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "the access completed" 55 !seen;
  Alcotest.(check int) "one batch of every dirty page" k
    (Backing_store.page_outs ak.App_kernel.store);
  Alcotest.(check (list (option int))) "the laundered pages read back"
    (List.init k (fun p -> Some (100 + p)))
    (List.init k (word_of_page ak seg))

(* -- Blocking I/O survives a thread reload -- *)

(* A thread reads a page that is on disk and blocks in the page-in; it is
   descheduled while the read is in flight and scheduled again before or
   after the disk completes.  Either way the completion must reach it. *)
let page_in_across_reload ~reschedule_before () =
  let inst, ak = make () in
  let vsp, seg = one_segment_space ak ~name:"reload" ~pages:1 in
  let store = ak.App_kernel.store in
  let block = Backing_store.alloc_block store in
  let image = Bytes.make 4 '\000' in
  Bytes.set_int32_le image 0 4242l;
  Backing_store.write_block_now store ~block image;
  Segment.set_state seg 0 (Segment.On_disk block);
  let seen = ref (-1) in
  let tid = spawn_user ak vsp ~priority:8 (fun () -> seen := Hw.Exec.mem_read base) in
  let io_us = Hw.Cost.us_of_cycles (Hw.Disk.run_latency 1) in
  ignore (Engine.run ~until_us:(io_us /. 4.0) [| inst |]);
  Alcotest.(check int) "blocked in the page-in" 1
    (Segment_mgr.stats ak.App_kernel.mgr).Segment_mgr.page_in_faults;
  ok (Thread_lib.deschedule ak.App_kernel.threads tid);
  ignore (Engine.run ~until_us:(io_us /. 2.0) [| inst |]);
  Alcotest.(check bool) "written back" false (Thread_lib.running ak.App_kernel.threads tid);
  if reschedule_before then ignore (ok (Thread_lib.schedule ak.App_kernel.threads tid));
  ignore (Engine.run ~until_us:(io_us *. 2.0) [| inst |]);
  if not reschedule_before then ignore (ok (Thread_lib.schedule ak.App_kernel.threads tid));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "the access completed" 4242 !seen

let test_channel_ping_pong () =
  let inst, ak = make () in
  let sender_sp = user_space ak in
  let receiver_sp = user_space ak in
  let shared = Channel.create_shared ak.App_kernel.mgr ~name:"ping" in
  (* the receiver thread id is not known yet: bind through a ref *)
  let recv_tid = ref None in
  let signal_thread () =
    match !recv_tid with
    | Some id -> Thread_lib.oid_of ak.App_kernel.threads id
    | None -> None
  in
  let tx =
    Channel.attach ak.App_kernel.mgr sender_sp shared ~va:0x50000000 ~role:`Sender
  in
  let rx =
    Channel.attach ak.App_kernel.mgr receiver_sp shared ~va:0x60000000
      ~role:(`Receiver signal_thread)
  in
  let got = ref [] in
  let receiver () =
    let _slot, words = Channel.recv rx in
    got := words
  in
  let sender () = Channel.send tx ~slot:3 [ 10; 20; 30 ] in
  let rid =
    ok
      (Thread_lib.spawn ak.App_kernel.threads ~space_tag:receiver_sp.Segment_mgr.tag
         ~priority:10 (Hw.Exec.unit_body receiver))
  in
  recv_tid := Some rid;
  ignore (spawn_user ak sender_sp ~priority:8 sender);
  ignore (Engine.run [| inst |]);
  Alcotest.(check (list int)) "message delivered" [ 10; 20; 30 ] !got;
  Alcotest.(check bool)
    "signals were delivered" true
    (inst.Instance.stats.Stats.signals_fast + inst.Instance.stats.Stats.signals_slow > 0)

let test_thread_unload_reload () =
  let inst, ak = make () in
  let vsp = user_space ak in
  let seg = Segment_mgr.create_segment ak.App_kernel.mgr ~name:"d" ~pages:4 in
  let base = 0x40000000 in
  Segment_mgr.attach_region ak.App_kernel.mgr vsp
    (Region.v ~va_start:base ~pages:4 ~segment:seg ~seg_offset:0 ());
  let progress = ref 0 in
  let body () =
    Hw.Exec.mem_write base 1;
    incr progress;
    (* block waiting for a signal: the kernel will unload us here *)
    (match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal _ -> incr progress
    | _ -> ());
    Hw.Exec.mem_write (base + 4) 2;
    incr progress
  in
  let tid = spawn_user ak vsp ~priority:8 body in
  (* run until the thread blocks *)
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "thread reached the wait" 1 !progress;
  (* unload it (long-term block), then reload and wake it *)
  ok (Thread_lib.deschedule ak.App_kernel.threads tid);
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "thread written back" true
    (not (Thread_lib.running ak.App_kernel.threads tid));
  ignore (ok (Thread_lib.schedule ak.App_kernel.threads tid));
  (match Thread_lib.oid_of ak.App_kernel.threads tid with
  | Some oid ->
    let th = Option.get (Instance.find_thread inst oid) in
    Signals.post_signal inst th ~va:0x1234
  | None -> Alcotest.fail "no oid after reload");
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "thread resumed from saved state and finished" 3 !progress

let test_deferred_copy_fork () =
  let inst, ak = make () in
  let parent_sp = user_space ak in
  let child_sp = user_space ak in
  let parent_seg = Segment_mgr.create_segment ak.App_kernel.mgr ~name:"p" ~pages:2 in
  let child_seg = Segment_mgr.create_segment ak.App_kernel.mgr ~name:"c" ~pages:2 in
  (* child pages are deferred copies of the parent's *)
  Segment.set_state child_seg 0 (Segment.Cow_of (parent_seg, 0));
  Segment.set_state child_seg 1 (Segment.Cow_of (parent_seg, 1));
  let base = 0x40000000 in
  Segment_mgr.attach_region ak.App_kernel.mgr parent_sp
    (Region.v ~va_start:base ~pages:2 ~segment:parent_seg ~seg_offset:0 ());
  Segment_mgr.attach_region ak.App_kernel.mgr child_sp
    (Region.v ~va_start:base ~pages:2 ~segment:child_seg ~seg_offset:0 ());
  let parent_after = ref (-1) in
  let child_read = ref (-1) in
  let phase = ref `Parent_init in
  let parent () =
    Hw.Exec.mem_write base 111;
    Hw.Exec.mem_write (base + Hw.Addr.page_size) 222;
    phase := `Child_turn;
    (* wait for the child to finish *)
    let rec wait () = if !phase <> `Done then (Hw.Exec.compute 500; wait ()) in
    wait ();
    parent_after := Hw.Exec.mem_read base
  in
  let child () =
    let rec wait () = if !phase <> `Child_turn then (Hw.Exec.compute 500; wait ()) in
    wait ();
    child_read := Hw.Exec.mem_read base;
    (* write through the deferred copy: parent must not see it *)
    Hw.Exec.mem_write base 999;
    phase := `Done
  in
  ignore (spawn_user ak parent_sp ~priority:8 parent);
  ignore (spawn_user ak child_sp ~priority:8 child);
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "child read parent's value before writing" 111 !child_read;
  Alcotest.(check int) "parent unaffected by child write" 111 !parent_after;
  Alcotest.(check bool) "the Cache Kernel performed the deferred copy" true
    (inst.Instance.stats.Stats.cow_copies >= 1)

(* A space leaves while another space's segment still inherits two of its
   pages copy-on-write, one resident and one on disk.  Both go to the
   heir, whose thread then reads them; the frame and the block nobody
   inherits come back. *)
let test_release_hands_inherited_pages () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let store = ak.App_kernel.store in
  let page = Hw.Addr.page_size in
  let image v =
    let b = Bytes.make page '\000' in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    b
  in
  let parent_sp = user_space ak in
  let child_sp = user_space ak in
  let pseg = Segment_mgr.create_segment mgr ~name:"p" ~pages:4 in
  let cseg = Segment_mgr.create_segment mgr ~name:"c" ~pages:2 in
  let base = 0x40000000 in
  Segment_mgr.attach_region mgr parent_sp
    (Region.v ~va_start:base ~pages:4 ~segment:pseg ~seg_offset:0 ());
  Segment_mgr.attach_region mgr child_sp
    (Region.v ~va_start:base ~pages:2 ~segment:cseg ~seg_offset:0 ());
  (* pages 0 and 2 resident, 1 and 3 on disk; the child inherits 0 and 1 *)
  Segment_mgr.write_segment_now mgr pseg ~offset:0 (image 111);
  Segment_mgr.write_segment_now mgr pseg ~offset:(2 * page) (image 333);
  let on_disk p v =
    let block = Backing_store.alloc_block store in
    Backing_store.write_block_now store ~block (image v);
    Segment.set_state pseg p (Segment.On_disk block)
  in
  on_disk 1 222;
  on_disk 3 444;
  Segment.set_state cseg 0 (Segment.Cow_of (pseg, 0));
  Segment.set_state cseg 1 (Segment.Cow_of (pseg, 1));
  let frames0 = Frame_alloc.available ak.App_kernel.frames in
  let blocks0 = Hw.Disk.live_blocks ak.App_kernel.disk in
  Segment_mgr.release_space mgr parent_sp;
  Alcotest.(check bool) "the space is forgotten" true
    (Segment_mgr.space_by_tag mgr parent_sp.Segment_mgr.tag = None);
  Alcotest.(check int) "the uninherited frame came back" (frames0 + 1)
    (Frame_alloc.available ak.App_kernel.frames);
  Alcotest.(check int) "the uninherited block came back" (blocks0 - 1)
    (Hw.Disk.live_blocks ak.App_kernel.disk);
  let got = ref [] in
  ignore
    (spawn_user ak child_sp ~priority:8 (fun () ->
         got := [ Hw.Exec.mem_read base; Hw.Exec.mem_read (base + page) ]));
  ignore (Engine.run [| inst |]);
  Alcotest.(check (list int)) "the heir reads what it inherited" [ 111; 222 ] !got

(* A read-only mapping of a resident page is loaded behind the manager's
   back.  The thread's write through the page's [Rw] region faults, and
   the load finds the page already mapped: the manager replaces that
   mapping once, and the write lands after one forwarded fault. *)
let test_load_replaces_a_mapped_page () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let vsp, seg = one_segment_space ak ~name:"data" ~pages:1 in
  Segment_mgr.write_segment_now mgr seg ~offset:0 (Bytes.make 8 '\000');
  ok
    (Api.load_mapping inst ~caller:(App_kernel.oid ak) ~space:vsp.Segment_mgr.oid
       (Api.mapping ~flags:Hw.Page_table.ro ~va:base ~pfn:(resident seg 0).Segment.pfn ()));
  let forwarded () = inst.Instance.stats.Stats.faults_forwarded in
  let before = forwarded () in
  let seen = ref 0 in
  ignore
    (spawn_user ak vsp ~priority:8 (fun () ->
         Hw.Exec.mem_write base 77;
         seen := Hw.Exec.mem_read base));
  ignore (Engine.run ~max_steps:100_000 [| inst |]);
  Alcotest.(check int) "the write landed" 77 !seen;
  Alcotest.(check int) "one forwarded fault" (before + 1) (forwarded ());
  Alcotest.(check (list (pair int int))) "the manager's mapping is the page's only one"
    [ (vsp.Segment_mgr.tag, base) ] (resident seg 0).Segment.mappers

let qcheck = QCheck_alcotest.to_alcotest

let test_rpc_roundtrip () =
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let client_sp = user_space ak in
  let server_sp = user_space ak in
  let req_sh, rsp_sh = Rpc.create_shared mgr ~name:"svc" in
  let client_tid = ref None and server_tid = ref None in
  let oid_of r () =
    match !r with Some id -> Thread_lib.oid_of ak.App_kernel.threads id | None -> None
  in
  let client_conn =
    Rpc.conn
      ~req:(Channel.attach mgr client_sp req_sh ~va:0x50000000 ~role:`Sender)
      ~rsp:
        (Channel.attach mgr client_sp rsp_sh ~va:0x50800000
           ~role:(`Receiver (oid_of client_tid)))
      ()
  in
  let server_conn =
    Rpc.conn
      ~req:
        (Channel.attach mgr server_sp req_sh ~va:0x60000000
           ~role:(`Receiver (oid_of server_tid)))
      ~rsp:(Channel.attach mgr server_sp rsp_sh ~va:0x60800000 ~role:`Sender)
      ()
  in
  let got = ref [] in
  let client () =
    got := Rpc.call client_conn ~slot:2 ~method_id:7 [ 3; 4 ]
  in
  let server () =
    Rpc.serve_one server_conn ~handle:(fun ~method_id args ->
        method_id :: List.map (fun x -> x * x) args)
  in
  server_tid :=
    Some
      (ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:server_sp.Segment_mgr.tag
            ~priority:12 (Hw.Exec.unit_body server)));
  client_tid :=
    Some
      (ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:client_sp.Segment_mgr.tag
            ~priority:10 (Hw.Exec.unit_body client)));
  ignore (Engine.run [| inst |]);
  Alcotest.(check (list int)) "rpc reply: method echoed, args squared" [ 7; 9; 16 ] !got

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"rpc wire: string marshalling roundtrips" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 60))
    (fun s ->
      let words = Rpc.Wire.of_string s in
      let s', rest = Rpc.Wire.to_string words in
      s' = s && rest = [])

let prop_frame_alloc =
  QCheck.Test.make ~name:"frame_alloc: alloc/free conserves the pool" ~count:100
    QCheck.(int_bound 100)
    (fun n ->
      let fa = Frame_alloc.create () in
      Frame_alloc.add_group fa 0;
      let allocated = List.filter_map (fun _ -> Frame_alloc.alloc fa) (List.init n Fun.id) in
      let uniq = List.sort_uniq compare allocated in
      let ok_distinct = List.length uniq = List.length allocated in
      List.iter (Frame_alloc.free fa) allocated;
      ok_distinct && Frame_alloc.available fa = Hw.Addr.pages_per_group)

let test_pageable () =
  let fa = Frame_alloc.create () in
  Frame_alloc.add_group fa 0;
  Frame_alloc.add_group fa 1;
  let n = 2 * Hw.Addr.pages_per_group in
  ignore (Frame_alloc.take fa 100);
  ignore (Frame_alloc.alloc fa);
  Alcotest.(check (pair int int)) "total counts the reserved frames, pageable does not"
    (n, n - 100)
    (Frame_alloc.total fa, Frame_alloc.pageable fa)

let test_segv_hook_retry () =
  (* a segv handler that maps the missing page and retries: the user-level
     recovery path of section 2.1 *)
  let inst, ak = make () in
  let mgr = ak.App_kernel.mgr in
  let vsp = user_space ak in
  let repaired = ref false in
  mgr.Segment_mgr.on_segv <-
    (fun m ctx ->
      (* attach a region lazily, then let the access retry *)
      repaired := true;
      let seg = Segment_mgr.create_segment m ~name:"late" ~pages:1 in
      Segment_mgr.attach_region m vsp
        (Region.v
           ~va_start:(Hw.Addr.page_base ctx.Cachekernel.Kernel_obj.va)
           ~pages:1 ~segment:seg ~seg_offset:0 ()));
  let value = ref 0 in
  let body () =
    Hw.Exec.mem_write 0x42000000 9;
    value := Hw.Exec.mem_read 0x42000000
  in
  ignore (spawn_user ak vsp ~priority:8 body);
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "handler ran" true !repaired;
  Alcotest.(check int) "access succeeded after repair" 9 !value

let () =
  Alcotest.run "aklib"
    [
      ( "segment_mgr",
        [
          Alcotest.test_case "demand paging with eviction" `Quick
            test_demand_paging_with_eviction;
          Alcotest.test_case "deferred-copy fork" `Quick test_deferred_copy_fork;
          Alcotest.test_case "a load replaces a mapping it finds" `Quick
            test_load_replaces_a_mapped_page;
          Alcotest.test_case "release hands inherited pages to the heir" `Quick
            test_release_hands_inherited_pages;
          Alcotest.test_case "a page-out stores the frame's image" `Quick
            test_page_out_stores_image;
          Alcotest.test_case "paging keeps one block per page" `Quick
            test_paging_keeps_one_block_per_page;
          Alcotest.test_case "remap during page-out keeps the write" `Quick
            test_remap_during_page_out;
        ] );
      ( "clock",
        [
          Alcotest.test_case "a re-referenced page gets a second chance" `Quick
            test_clock_second_chance;
          Alcotest.test_case "all pages mapped: the scan cap yields a victim" `Quick
            test_clock_all_mapped;
          Alcotest.test_case "prefetch is not a reference" `Quick
            test_prefetch_is_not_a_reference;
          Alcotest.test_case "queue entries name the residency" `Quick
            test_queue_names_the_residency;
          Alcotest.test_case "keeping nothing evicts in install order" `Quick
            test_keep_nothing_is_fifo;
        ] );
      ( "frequency",
        [
          qcheck prop_constant_rank_is_clock;
          Alcotest.test_case "the fewest faults go first" `Quick test_fewest_faults_go_first;
          Alcotest.test_case "a count survives eviction" `Quick test_count_survives_eviction;
          Alcotest.test_case "counts halve after 10 x F faults" `Quick test_counts_halve;
          Alcotest.test_case "no eviction, no history" `Quick test_no_eviction_no_history;
          Alcotest.test_case "pageable frames exclude reserved ones" `Quick test_pageable;
        ] );
      ( "laundering",
        [
          Alcotest.test_case "a clean victim goes while the dirty ones are written" `Quick
            test_launder_clean_victim_first;
          Alcotest.test_case "a page rewritten in flight stays (mapped)" `Quick
            (launder_remap_in_flight ~unmap_again:false);
          Alcotest.test_case "a page rewritten in flight stays (unmapped)" `Quick
            (launder_remap_in_flight ~unmap_again:true);
          Alcotest.test_case "keep is asked only about the hand's pages" `Quick
            test_keep_sees_only_the_hand;
          Alcotest.test_case "batches in flight are bounded" `Quick
            test_launder_in_flight_bounded;
          Alcotest.test_case "all candidates dirty: the evictor waits" `Quick
            test_launder_waits_for_progress;
        ] );
      ( "channels",
        [ Alcotest.test_case "ping-pong over messaging" `Quick test_channel_ping_pong ] );
      ( "threads",
        [
          Alcotest.test_case "unload and reload with state" `Quick test_thread_unload_reload;
          Alcotest.test_case "page-in completes after a reload" `Quick
            (page_in_across_reload ~reschedule_before:true);
          Alcotest.test_case "page-in completes into a written-back thread" `Quick
            (page_in_across_reload ~reschedule_before:false);
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call/serve over messaging" `Quick test_rpc_roundtrip;
          qcheck prop_wire_roundtrip;
        ] );
      ( "allocator",
        [
          qcheck prop_frame_alloc;
          Alcotest.test_case "segv hook repairs and retries" `Quick test_segv_hook_retry;
        ] );
    ]
