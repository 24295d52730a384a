(* Unit and property tests for the hardware substrate. *)

let qcheck = QCheck_alcotest.to_alcotest

(* -- Addr -- *)

let test_addr () =
  Alcotest.(check int) "page of" 3 (Hw.Addr.page_of (3 * 4096));
  Alcotest.(check int) "offset" 123 (Hw.Addr.offset_of ((7 * 4096) + 123));
  Alcotest.(check int) "page base" (7 * 4096) (Hw.Addr.page_base ((7 * 4096) + 123));
  Alcotest.(check int) "group of page" 1 (Hw.Addr.group_of_page 128);
  Alcotest.(check int) "first page of group" 256 (Hw.Addr.first_page_of_group 2);
  Alcotest.(check int) "round up" 4096 (Hw.Addr.round_up_page 1);
  Alcotest.(check int) "round up exact" 8192 (Hw.Addr.round_up_page 8192);
  Alcotest.(check bool) "aligned" true (Hw.Addr.word_aligned 8);
  Alcotest.(check bool) "unaligned" false (Hw.Addr.word_aligned 9)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr: page*size + offset reconstructs"
    QCheck.(pair (int_bound 100000) (int_bound 4095))
    (fun (page, off) ->
      let addr = Hw.Addr.addr_of_page page + off in
      Hw.Addr.page_of addr = page && Hw.Addr.offset_of addr = off)

(* -- Cost -- *)

let test_cost () =
  Alcotest.(check (float 0.001)) "25 cycles = 1us" 1.0 (Hw.Cost.us_of_cycles 25);
  Alcotest.(check int) "us to cycles" 25 (Hw.Cost.cycles_of_us 1.0);
  Alcotest.(check int) "roundtrip" 12345 (Hw.Cost.cycles_of_us (Hw.Cost.us_of_cycles 12345))

(* -- Phys_mem -- *)

let test_phys_mem () =
  let mem = Hw.Phys_mem.create ~size:(1024 * 1024) in
  Hw.Phys_mem.write_word mem 0x1000 0xDEADBEEF;
  Alcotest.(check int) "word roundtrip" 0xDEADBEEF (Hw.Phys_mem.read_word mem 0x1000);
  Alcotest.(check int) "lazy pages read zero" 0 (Hw.Phys_mem.read_word mem 0x8000);
  let data = Bytes.of_string "hello, cache kernel" in
  Hw.Phys_mem.write_bytes mem 0xFFA data (* crosses a page boundary *);
  Alcotest.(check string) "bytes across pages" "hello, cache kernel"
    (Bytes.to_string (Hw.Phys_mem.read_bytes mem 0xFFA (Bytes.length data)));
  Hw.Phys_mem.write_word mem 0x3000 0xDEADBEEF;
  Hw.Phys_mem.copy_page mem ~src:3 ~dst:5;
  Alcotest.(check int) "copied page" 0xDEADBEEF (Hw.Phys_mem.read_word mem 0x5000);
  Hw.Phys_mem.zero_page mem 5;
  Alcotest.(check int) "zeroed page" 0 (Hw.Phys_mem.read_word mem 0x5000)

let prop_phys_mem_roundtrip =
  QCheck.Test.make ~name:"phys_mem: word write/read roundtrip"
    QCheck.(pair (int_bound 4095) (int_bound 0xFFFFFF))
    (fun (word_idx, v) ->
      let mem = Hw.Phys_mem.create ~size:(16 * 1024 * 1024) in
      let addr = word_idx * 4 in
      Hw.Phys_mem.write_word mem addr v;
      Hw.Phys_mem.read_word mem addr = v)

(* -- Page_table -- *)

let entry pfn = Hw.Page_table.make_entry ~frame:pfn ~flags:Hw.Page_table.rw ()

let test_page_table () =
  let t = Hw.Page_table.create () in
  Alcotest.(check int) "empty count" 0 (Hw.Page_table.count t);
  Alcotest.(check int) "empty space" 512 (Hw.Page_table.space_bytes t);
  ignore (Hw.Page_table.insert t 0x40000000 (entry 7));
  Alcotest.(check int) "one mapping" 1 (Hw.Page_table.count t);
  Alcotest.(check int) "space after insert: root+mid+leaf" (512 + 512 + 256)
    (Hw.Page_table.space_bytes t);
  (match Hw.Page_table.lookup t 0x40000123 with
  | Some e, levels ->
    Alcotest.(check int) "frame" 7 e.Hw.Page_table.frame;
    Alcotest.(check int) "walk depth" 3 levels
  | None, _ -> Alcotest.fail "mapping missing");
  (* a second page in the same leaf adds no table space *)
  ignore (Hw.Page_table.insert t 0x40001000 (entry 8));
  Alcotest.(check int) "same leaf, same space" (512 + 512 + 256)
    (Hw.Page_table.space_bytes t);
  (* removal frees empty tables *)
  ignore (Hw.Page_table.remove t 0x40000000);
  ignore (Hw.Page_table.remove t 0x40001000);
  Alcotest.(check int) "tables reclaimed" 512 (Hw.Page_table.space_bytes t);
  Alcotest.(check int) "count zero again" 0 (Hw.Page_table.count t)

let prop_page_table =
  QCheck.Test.make ~name:"page_table: insert/remove keeps count and contents" ~count:100
    QCheck.(small_list (int_bound 5000))
    (fun pages ->
      let t = Hw.Page_table.create () in
      let uniq = List.sort_uniq compare pages in
      List.iter (fun p -> ignore (Hw.Page_table.insert t (p * 4096) (entry p))) uniq;
      let count_ok = Hw.Page_table.count t = List.length uniq in
      let lookup_ok =
        List.for_all
          (fun p ->
            match Hw.Page_table.lookup t (p * 4096) with
            | Some e, _ -> e.Hw.Page_table.frame = p
            | None, _ -> false)
          uniq
      in
      List.iter (fun p -> ignore (Hw.Page_table.remove t (p * 4096))) uniq;
      count_ok && lookup_ok
      && Hw.Page_table.count t = 0
      && Hw.Page_table.space_bytes t = 512)

(* -- TLB -- *)

let test_tlb () =
  let tlb = Hw.Tlb.create ~size:4 () in
  let e = entry 9 in
  Alcotest.(check bool) "miss on empty" true (Hw.Tlb.lookup tlb ~asid:1 ~vpn:5 = None);
  Hw.Tlb.insert tlb ~asid:1 ~vpn:5 ~pte:e;
  Alcotest.(check bool) "hit" true (Hw.Tlb.lookup tlb ~asid:1 ~vpn:5 <> None);
  Alcotest.(check bool) "other asid misses" true (Hw.Tlb.lookup tlb ~asid:2 ~vpn:5 = None);
  (* FIFO eviction at capacity *)
  for i = 10 to 13 do
    Hw.Tlb.insert tlb ~asid:1 ~vpn:i ~pte:e
  done;
  Alcotest.(check bool) "evicted after capacity inserts" true
    (Hw.Tlb.lookup tlb ~asid:1 ~vpn:5 = None);
  Hw.Tlb.flush_space tlb ~asid:1;
  Alcotest.(check bool) "flush space" true (Hw.Tlb.lookup tlb ~asid:1 ~vpn:12 = None);
  Alcotest.(check bool) "stats counted" true (Hw.Tlb.misses tlb > 0 && Hw.Tlb.hits tlb > 0)

let test_rtlb () =
  let r = Hw.Rtlb.create ~size:4 () in
  Hw.Rtlb.insert r ~pfn:7 ~va_base:0x4000 ~tag:99;
  (match Hw.Rtlb.lookup r ~pfn:7 with
  | Some (va, tag) ->
    Alcotest.(check int) "va" 0x4000 va;
    Alcotest.(check int) "tag" 99 tag
  | None -> Alcotest.fail "rtlb miss");
  Hw.Rtlb.flush_pfn r ~pfn:7;
  Alcotest.(check bool) "flushed" true (Hw.Rtlb.lookup r ~pfn:7 = None);
  Hw.Rtlb.insert r ~pfn:8 ~va_base:0 ~tag:1;
  Hw.Rtlb.insert r ~pfn:9 ~va_base:0 ~tag:2;
  Hw.Rtlb.flush_tag r ~pred:(fun t -> t = 1);
  Alcotest.(check bool) "tag flush selective" true
    (Hw.Rtlb.lookup r ~pfn:8 = None && Hw.Rtlb.lookup r ~pfn:9 <> None)

(* -- Cache_sim -- *)

let test_cache_sim () =
  let c = Hw.Cache_sim.create ~size_bytes:1024 ~line_size:32 () in
  Alcotest.(check bool) "first access misses" true (Hw.Cache_sim.access c 0x100 = `Miss);
  Alcotest.(check bool) "second access hits" true (Hw.Cache_sim.access c 0x104 = `Hit);
  (* conflicting line (same index, different tag: 1024 bytes = 32 lines) *)
  Alcotest.(check bool) "conflict misses" true (Hw.Cache_sim.access c (0x100 + 1024) = `Miss);
  Alcotest.(check bool) "original evicted" true (Hw.Cache_sim.access c 0x100 = `Miss)

(* A flat direct-mapped tag array over the whole geometry: the reference
   for the chunked, filled-on-demand tags. *)
module Flat_cache = struct
  type t = {
    line_size : int;
    tags : int array;
    mutable hits : int;
    mutable misses : int;
    mutable updates : int;
  }

  let create ~size_bytes ~line_size =
    { line_size; tags = Array.make (size_bytes / line_size) (-1); hits = 0; misses = 0;
      updates = 0 }

  let access t paddr =
    let line = paddr / t.line_size in
    let idx = line mod Array.length t.tags in
    if t.tags.(idx) = line then begin
      t.hits <- t.hits + 1;
      `Hit
    end
    else begin
      t.misses <- t.misses + 1;
      t.tags.(idx) <- line;
      `Miss
    end

  let message_write t paddr =
    t.updates <- t.updates + 1;
    access t paddr
end

(* Geometries: the default 8 MB cache, one whose last 4096-line chunk is
   partial, and one smaller than a chunk.  Addresses cluster around chunk
   boundaries (4096 lines of 32 bytes) and alias modulo the cache size. *)
let prop_cache_sim_model =
  let geometries = [| 8 * 1024 * 1024; ((2 * 4096) + 100) * 32; 1024 |] in
  let chunk_bytes = 4096 * 32 in
  QCheck.Test.make ~count:100 ~name:"cache_sim: chunked tags match a flat tag array"
    QCheck.(
      pair (int_bound 2)
        (list_of_size Gen.(int_range 1 400)
           (quad bool (int_bound 63) (int_range (-512) 512) (int_bound 3))))
    (fun (g, ops) ->
      let size_bytes = geometries.(g) in
      let real = Hw.Cache_sim.create ~size_bytes ~line_size:32 () in
      let model = Flat_cache.create ~size_bytes ~line_size:32 in
      List.for_all
        (fun (msg, chunk, off, alias) ->
          let paddr = max 0 ((chunk * chunk_bytes) + off + (alias * size_bytes)) in
          let r, m =
            if msg then (Hw.Cache_sim.message_write real paddr, Flat_cache.message_write model paddr)
            else (Hw.Cache_sim.access real paddr, Flat_cache.access model paddr)
          in
          r = m
          && Hw.Cache_sim.hits real = model.Flat_cache.hits
          && Hw.Cache_sim.misses real = model.Flat_cache.misses
          && Hw.Cache_sim.message_updates real = model.Flat_cache.updates)
        ops)

(* -- Event_queue -- *)

let test_event_queue () =
  let q = Hw.Event_queue.create () in
  let order = ref [] in
  Hw.Event_queue.schedule q ~time:30 (fun () -> order := 30 :: !order);
  Hw.Event_queue.schedule q ~time:10 (fun () -> order := 10 :: !order);
  Hw.Event_queue.schedule q ~time:20 (fun () -> order := 20 :: !order);
  Alcotest.(check (option int)) "peek" (Some 10) (Hw.Event_queue.next_time q);
  while not (Hw.Event_queue.is_empty q) do
    ignore (Hw.Event_queue.run_next q)
  done;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !order)

let prop_event_queue =
  QCheck.Test.make ~name:"event_queue: dequeues in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 10000))
    (fun times ->
      let q = Hw.Event_queue.create () in
      List.iter (fun t -> Hw.Event_queue.schedule q ~time:t (fun () -> ())) times;
      let out = ref [] in
      while not (Hw.Event_queue.is_empty q) do
        out := Hw.Event_queue.run_next q :: !out
      done;
      List.rev !out = List.sort compare times)

(* Regression: the struct-of-arrays heap must null a popped slot's action.
   Leaving it referenced keeps every closure (and whatever it captured)
   alive until the slot is overwritten — a space leak proportional to the
   high-water mark of the queue.  [plant] runs in its own frame so no
   stack root pins the payload once it returns. *)
let[@inline never] plant q w =
  let payload = Bytes.create 4096 in
  Weak.set w 0 (Some payload);
  Hw.Event_queue.schedule q ~time:5 (fun () -> ignore (Bytes.length payload))

let test_event_queue_popped_collectable () =
  let q = Hw.Event_queue.create () in
  let w = Weak.create 1 in
  plant q w;
  (* a second entry keeps the queue (and the popped slot's cell) alive *)
  Hw.Event_queue.schedule q ~time:99 (fun () -> ());
  ignore (Hw.Event_queue.run_next q);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped action is collectable" true (Weak.get w 0 = None);
  Alcotest.(check (option int)) "later entry unaffected" (Some 99)
    (Hw.Event_queue.next_time q)

(* Allocation probe: the schedule + run_next hot loop with a preallocated
   action must stay off the minor heap (at most 1.0 minor words per
   event; the structure-of-arrays queue measures 0.0). *)
let test_event_queue_alloc () =
  let q = Hw.Event_queue.create () in
  let sink = ref 0 in
  let f () = incr sink in
  (* warm the heap arrays so growth does not count against the loop *)
  for i = 1 to 64 do
    Hw.Event_queue.schedule q ~time:i f
  done;
  for _ = 1 to 64 do
    ignore (Hw.Event_queue.run_next q)
  done;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Hw.Event_queue.schedule q ~time:i f;
    ignore (Hw.Event_queue.run_next q)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_event > 1.0 then
    Alcotest.failf "event-queue loop allocates %.3f minor words/event (bound 1.0)"
      per_event

(* Model test: arbitrary interleavings of schedule and run_next against a
   stable sorted-list reference — same pop order (ties broken by
   insertion sequence), same peeks, same emptiness. *)
type eq_op = Sched of int | Run

let prop_event_queue_model =
  let print_ops ops =
    String.concat ";"
      (List.map (function Sched t -> Printf.sprintf "s%d" t | Run -> "r") ops)
  in
  let gen_ops =
    QCheck.Gen.(
      list_size (int_bound 300)
        (frequency [ (2, map (fun t -> Sched t) (int_bound 50)); (1, return Run) ]))
  in
  QCheck.Test.make ~name:"event_queue: interleaved schedule/run matches sorted list"
    ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let q = Hw.Event_queue.create () in
      let model = ref [] in
      (* stable insert: after every entry with time <= t *)
      let insert t i =
        let rec go = function
          | (t', i') :: rest when t' <= t -> (t', i') :: go rest
          | rest -> (t, i) :: rest
        in
        model := go !model
      in
      let popped_q = ref [] and popped_m = ref [] in
      let next_id = ref 0 in
      let run_one () =
        match (Hw.Event_queue.next_time q, !model) with
        | None, [] -> ()
        | Some tq, (tm, im) :: rest ->
          if tq <> tm then QCheck.Test.fail_reportf "peek %d, model %d" tq tm;
          let t = Hw.Event_queue.run_next q in
          if t <> tm then QCheck.Test.fail_reportf "ran %d, model %d" t tm;
          model := rest;
          popped_m := im :: !popped_m
        | Some t, [] -> QCheck.Test.fail_reportf "queue has %d, model empty" t
        | None, (t, _) :: _ -> QCheck.Test.fail_reportf "queue empty, model has %d" t
      in
      List.iter
        (function
          | Sched t ->
            let i = !next_id in
            incr next_id;
            Hw.Event_queue.schedule q ~time:t (fun () -> popped_q := i :: !popped_q);
            insert t i
          | Run -> run_one ())
        ops;
      while not (Hw.Event_queue.is_empty q) do
        run_one ()
      done;
      !model = [] && !popped_q = !popped_m)

(* -- MMU -- *)

let test_mmu () =
  let tlb = Hw.Tlb.create () in
  let table = Hw.Page_table.create () in
  let miss =
    Hw.Mmu.translate ~tlb ~table ~asid:1 ~va:0x5000 ~access:Hw.Mmu.Read
  in
  (match miss with
  | Error f -> Alcotest.(check bool) "missing mapping" true (f.Hw.Mmu.kind = Hw.Mmu.Missing_mapping)
  | Ok _ -> Alcotest.fail "expected fault");
  let e = Hw.Page_table.make_entry ~frame:9 ~flags:Hw.Page_table.ro () in
  ignore (Hw.Page_table.insert table 0x5000 e);
  (match Hw.Mmu.translate ~tlb ~table ~asid:1 ~va:0x5004 ~access:Hw.Mmu.Read with
  | Ok tr ->
    Alcotest.(check int) "paddr" ((9 * 4096) + 4) tr.Hw.Mmu.paddr;
    Alcotest.(check bool) "walk on first access" false tr.Hw.Mmu.tlb_hit;
    Alcotest.(check bool) "referenced set" true e.Hw.Page_table.referenced
  | Error _ -> Alcotest.fail "expected success");
  (match Hw.Mmu.translate ~tlb ~table ~asid:1 ~va:0x5008 ~access:Hw.Mmu.Read with
  | Ok tr -> Alcotest.(check bool) "tlb hit on second access" true tr.Hw.Mmu.tlb_hit
  | Error _ -> Alcotest.fail "expected success");
  (match Hw.Mmu.translate ~tlb ~table ~asid:1 ~va:0x5000 ~access:Hw.Mmu.Write with
  | Error f ->
    Alcotest.(check bool) "write to ro page" true (f.Hw.Mmu.kind = Hw.Mmu.Protection_violation)
  | Ok _ -> Alcotest.fail "expected protection fault");
  e.Hw.Page_table.remote <- true;
  (match Hw.Mmu.translate ~tlb ~table ~asid:1 ~va:0x5000 ~access:Hw.Mmu.Read with
  | Error f ->
    Alcotest.(check bool) "consistency fault on remote line" true
      (f.Hw.Mmu.kind = Hw.Mmu.Consistency_fault)
  | Ok _ -> Alcotest.fail "expected consistency fault")

(* -- Exec -- *)

let test_exec () =
  let status = Hw.Exec.start (fun () -> Hw.Exec.Int_payload 42) in
  (match status with
  | Hw.Exec.Done (Hw.Exec.Int_payload 42) -> ()
  | _ -> Alcotest.fail "immediate completion");
  let status =
    Hw.Exec.start (fun () ->
        Hw.Exec.compute 100;
        Hw.Exec.Unit_payload)
  in
  (match status with
  | Hw.Exec.On_compute (100, k) -> (
    match Effect.Deep.continue k () with
    | Hw.Exec.Done Hw.Exec.Unit_payload -> ()
    | _ -> Alcotest.fail "continue after compute")
  | _ -> Alcotest.fail "expected compute");
  let status = Hw.Exec.start (fun () -> failwith "boom") in
  match status with
  | Hw.Exec.Failed (Failure msg) -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "exception capture"

(* -- Disk -- *)

let disk_env_events () =
  let events = Hw.Event_queue.create () in
  let now = ref 0 in
  let disk = Hw.Disk.create ~events ~now:(fun () -> !now) in
  let mem = Hw.Phys_mem.create ~size:(4 * Hw.Addr.page_size) in
  let drain () =
    while not (Hw.Event_queue.is_empty events) do
      now := Hw.Event_queue.run_next events
    done
  in
  (disk, mem, now, drain, events)

let disk_env () =
  let disk, mem, now, drain, _ = disk_env_events () in
  (disk, mem, now, drain)

let fill_frame mem pfn c =
  Hw.Phys_mem.write_bytes mem (Hw.Addr.addr_of_page pfn) (Bytes.make Hw.Addr.page_size c)

let frame_byte mem pfn = Hw.Phys_mem.read_byte mem (Hw.Addr.addr_of_page pfn)

(* The whole page [block] holds, read without a transfer. *)
let disk_page disk ~block =
  let page = Bytes.create Hw.Addr.page_size in
  Hw.Disk.read_into_now disk ~block ~off:0 page ~pos:0 ~len:Hw.Addr.page_size;
  page

let test_disk () =
  let disk, mem, now, drain = disk_env () in
  let b = Hw.Disk.alloc_block disk in
  fill_frame mem 0 'x';
  let done_w = ref false in
  Hw.Disk.write_frames disk ~block:b mem ~pfns:[| 0 |] (fun () -> done_w := true);
  Alcotest.(check bool) "write pending until event runs" false !done_w;
  drain ();
  Alcotest.(check bool) "write completed" true !done_w;
  Alcotest.(check bool) "latency charged" true (!now >= Hw.Cost.disk_seek);
  let done_r = ref false in
  Hw.Disk.read_frame disk ~block:b mem ~pfn:1 (fun () -> done_r := true);
  Alcotest.(check char) "frame untouched until completion" '\000'
    (Char.chr (frame_byte mem 1));
  drain ();
  Alcotest.(check bool) "read completed" true !done_r;
  Alcotest.(check char) "data read back" 'x' (Char.chr (frame_byte mem 1));
  let out = Bytes.make 8 '.' in
  Hw.Disk.read_into disk ~block:b ~off:100 out ~pos:2 ~len:4 ignore;
  Hw.Disk.write_from disk ~block:b ~off:0 (Bytes.of_string "ab") ~pos:0 ~len:2 ignore;
  drain ();
  Alcotest.(check string) "byte range read" "..xxxx.." (Bytes.to_string out);
  Alcotest.(check string) "byte range written over the old page" "abxx"
    (Bytes.sub_string (disk_page disk ~block:b) 0 4);
  Alcotest.(check int) "transfers counted" 2 (Hw.Disk.reads disk);
  Alcotest.(check int) "writes counted" 2 (Hw.Disk.writes disk)

(* A read captures the block when it is submitted: a write to the same
   block that lands while the read is in flight is not seen by it. *)
let test_disk_read_snapshot () =
  let disk, mem, _, drain = disk_env () in
  let b = Hw.Disk.alloc_block disk in
  fill_frame mem 0 'a';
  Hw.Disk.write_frames disk ~block:b mem ~pfns:[| 0 |] ignore;
  drain ();
  let out = Bytes.make 1 '.' in
  Hw.Disk.read_frame disk ~block:b mem ~pfn:1 ignore;
  Hw.Disk.read_into disk ~block:b ~off:0 out ~pos:0 ~len:1 ignore;
  fill_frame mem 0 'b';
  Hw.Disk.write_frames disk ~block:b mem ~pfns:[| 0 |] ignore;
  Hw.Disk.write_now disk ~block:b ~off:0 (Bytes.of_string "c") ~pos:0 ~len:1;
  drain ();
  Alcotest.(check char) "frame read sees the block as submitted" 'a'
    (Char.chr (frame_byte mem 1));
  Alcotest.(check char) "range read sees the block as submitted" 'a' (Bytes.get out 0);
  let again = ref false in
  Hw.Disk.read_frame disk ~block:b mem ~pfn:2 (fun () -> again := true);
  drain ();
  Alcotest.(check bool) "a staging buffer is reused" true !again;
  Alcotest.(check char) "a later read sees the later write" 'c'
    (Char.chr (frame_byte mem 2))

(* The synchronous range read a buffer cache serves hits through: it
   checks its range like [read_into], zero-fills past the zero tail, and
   neither schedules an event, counts a transfer nor allocates. *)
let test_disk_read_into_now () =
  let events = Hw.Event_queue.create () in
  let disk = Hw.Disk.create ~events ~now:(fun () -> 0) in
  let b = Hw.Disk.alloc_block disk in
  Hw.Disk.write_now disk ~block:b ~off:0 (Bytes.of_string "abc") ~pos:0 ~len:3;
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let dst = Bytes.make 8 '.' in
  List.iter
    (fun (off, len) ->
      let what = Printf.sprintf "range %d+%d" off len in
      rejects ("read_into " ^ what) (fun () ->
          Hw.Disk.read_into disk ~block:b ~off dst ~pos:0 ~len ignore);
      rejects ("read_into_now " ^ what) (fun () ->
          Hw.Disk.read_into_now disk ~block:b ~off dst ~pos:0 ~len))
    [ (-1, 4); (0, -1); (Hw.Addr.page_size - 4, 8) ];
  Hw.Disk.read_into_now disk ~block:b ~off:1 dst ~pos:1 ~len:6;
  Alcotest.(check string) "bytes land at once, zeroes past the tail" ".bc\000\000\000\000."
    (Bytes.to_string dst);
  Hw.Disk.read_into_now disk ~block:(b + 1) ~off:0 dst ~pos:0 ~len:8;
  Alcotest.(check string) "an unwritten block reads zero" (String.make 8 '\000')
    (Bytes.to_string dst);
  Alcotest.(check bool) "no event scheduled" true (Hw.Event_queue.is_empty events);
  Alcotest.(check int) "no transfer counted" 0 (Hw.Disk.reads disk);
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    Hw.Disk.read_into_now disk ~block:(b + (i land 1)) ~off:0 dst ~pos:0 ~len:8
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 100.0 then Alcotest.failf "1000 reads allocated %.0f minor words" words

(* Freed blocks drop their data and come back most recent first. *)
let test_disk_alloc_free () =
  let disk, mem, _, drain = disk_env () in
  let zero = Bytes.make Hw.Addr.page_size '\000' in
  let b0 = Hw.Disk.alloc_block disk in
  let b1 = Hw.Disk.alloc_block disk in
  let b2 = Hw.Disk.alloc_block disk in
  Alcotest.(check (list int)) "fresh blocks ascend" [ 0; 1; 2 ] [ b0; b1; b2 ];
  Alcotest.(check bool) "unwritten block reads zero" true
    (Bytes.equal zero (disk_page disk ~block:b2));
  fill_frame mem 0 'q';
  List.iter (fun b -> Hw.Disk.write_frames disk ~block:b mem ~pfns:[| 0 |] ignore) [ b0; b1; b2 ];
  drain ();
  Alcotest.(check int) "three live blocks" 3 (Hw.Disk.live_blocks disk);
  Hw.Disk.free_block disk b0;
  Hw.Disk.free_block disk b2;
  Alcotest.(check int) "freed blocks hold no data" 1 (Hw.Disk.live_blocks disk);
  Alcotest.(check bool) "freed block reads zero" true
    (Bytes.equal zero (disk_page disk ~block:b2));
  fill_frame mem 3 'z';
  Hw.Disk.read_frame disk ~block:b0 mem ~pfn:3 ignore;
  drain ();
  Alcotest.(check char) "freed block pages in as zeroes" '\000'
    (Char.chr (frame_byte mem 3));
  let order = List.init 3 (fun _ -> Hw.Disk.alloc_block disk) in
  Alcotest.(check (list int)) "most recently freed first, then fresh" [ b2; b0; 3 ] order

(* -- Disk against a full-page reference model --

   [Full_disk] is the store the zero-tail one replaced: every written block
   holds a whole page.  Random op sequences run on both, draining after
   each op; every read, [live_blocks], [reads] and [writes] must agree.
   Every timed call ([write_frames], [write_images], [read_frame],
   [read_into], [write_from]) must queue exactly one event and complete
   exactly once, [Hw.Disk.run_latency n] after submission for [n]
   pages. *)

module Full_disk = struct
  type t = { pages : (int, Bytes.t) Hashtbl.t; mutable reads : int; mutable writes : int }

  let create () = { pages = Hashtbl.create 16; reads = 0; writes = 0 }

  let page t block =
    match Hashtbl.find_opt t.pages block with
    | Some p -> p
    | None ->
      let p = Bytes.make Hw.Addr.page_size '\000' in
      Hashtbl.replace t.pages block p;
      p

  let get t block =
    match Hashtbl.find_opt t.pages block with
    | Some p -> Bytes.copy p
    | None -> Bytes.make Hw.Addr.page_size '\000'

  let replace t ~block image =
    let p = Bytes.make Hw.Addr.page_size '\000' in
    Bytes.blit image 0 p 0 (Bytes.length image);
    Hashtbl.replace t.pages block p

  let free t block = Hashtbl.remove t.pages block
  let live t = Hashtbl.length t.pages
  let write_range t ~block ~off src = Bytes.blit src 0 (page t block) off (Bytes.length src)
end

(* Frame contents with sparse nonzero bytes: [kind] 0 is an untouched
   frame, 1 a single word, 2 a full page, 3 a nonzero prefix of [n]
   bytes (an extent off the word grid). *)
let sparse_page ~kind n =
  let p = Bytes.make Hw.Addr.page_size '\000' in
  (match kind with
  | 1 -> Bytes.set_int32_le p (n land lnot 3 mod Hw.Addr.page_size) (Int32.of_int (n + 1))
  | 2 -> Bytes.iteri (fun i _ -> Bytes.set p i (Char.chr (1 + ((n + i) mod 255)))) p
  | 3 -> Bytes.fill p 0 (n mod Hw.Addr.page_size) 'p'
  | _ -> ());
  p

let run_disk_model ops =
  let disk, mem, now, drain, events = disk_env_events () in
  let model = Full_disk.create () in
  let ps = Hw.Addr.page_size in
  let blocks = ref [] in
  let ever = Hashtbl.create 16 in (* every block number handed out *)
  let fresh ctx block =
    if Hashtbl.mem ever block then Alcotest.failf "%s: run block %d was used before" ctx block;
    Hashtbl.replace ever block ()
  in
  let pick a = match !blocks with [] -> None | l -> Some (List.nth l (a mod List.length l)) in
  let frame pfn = Hw.Phys_mem.read_bytes mem (Hw.Addr.addr_of_page pfn) ps in
  let timed ctx what n submit =
    let completions = ref 0 and t0 = !now in
    submit (fun () -> incr completions);
    let queued = Hw.Event_queue.length events in
    drain ();
    if queued <> 1 || !completions <> 1 || !now - t0 <> Hw.Disk.run_latency n then
      Alcotest.failf "%s: %s of %d pages queued %d events, completed %d times after %d cycles"
        ctx what n queued !completions (!now - t0)
  in
  (* pfn 3 is never written: the untouched-frame source *)
  let write_frame ctx block ~kind n =
    let page = sparse_page ~kind n in
    if kind <> 0 then Hw.Phys_mem.write_bytes mem 0 page;
    timed ctx "write_frames" 1
      (Hw.Disk.write_frames disk ~block mem ~pfns:[| (if kind = 0 then 3 else 0) |]);
    model.Full_disk.writes <- model.writes + 1;
    Full_disk.write_range model ~block ~off:0 page
  in
  let agree ctx what a b = if not (Bytes.equal a b) then Alcotest.failf "%s: %s differs" ctx what in
  List.iteri
    (fun i (op, a, b, c) ->
      let ctx = Printf.sprintf "op %d" i in
      let off = b mod ps in
      let len = c mod (ps - off + 1) in
      (match (op, pick a) with
      | 0, _ ->
        let block = Hw.Disk.alloc_block disk in
        Hashtbl.replace ever block ();
        blocks := block :: !blocks
      | 1, Some block ->
        Hw.Disk.free_block disk block;
        Full_disk.free model block;
        blocks := List.filter (( <> ) block) !blocks
      | 2, Some block -> write_frame ctx block ~kind:(b mod 4) c
      | 3, Some block ->
        (* the target frame starts dirty so zero fill shows *)
        Hw.Phys_mem.write_bytes mem (Hw.Addr.addr_of_page 1) (Bytes.make ps '\xaa');
        timed ctx "read_frame" 1 (Hw.Disk.read_frame disk ~block mem ~pfn:1);
        model.reads <- model.reads + 1;
        agree ctx "read_frame" (frame 1) (Full_disk.get model block)
      | (4 | 5), Some block ->
        let src = Bytes.make len (Char.chr (a land 0xff)) in
        if op = 4 then begin
          timed ctx "write_from" 1 (Hw.Disk.write_from disk ~block ~off src ~pos:0 ~len);
          model.writes <- model.writes + 1
        end
        else Hw.Disk.write_now disk ~block ~off src ~pos:0 ~len;
        Full_disk.write_range model ~block ~off src
      | 6, Some block ->
        let dst = Bytes.make (len + 6) '.' in
        timed ctx "read_into" 1 (Hw.Disk.read_into disk ~block ~off dst ~pos:3 ~len);
        model.reads <- model.reads + 1;
        let want = Bytes.make (len + 6) '.' in
        Bytes.blit (Full_disk.get model block) off want 3 len;
        agree ctx "read_into" dst want;
        let now = Bytes.make (len + 6) '.' in
        Hw.Disk.read_into_now disk ~block ~off now ~pos:3 ~len;
        agree ctx "read_into_now" now want
      | 7, Some block ->
        agree ctx "whole-page read_into_now" (disk_page disk ~block) (Full_disk.get model block)
      | 8, Some block ->
        (* images of any length up to a page, trailing zeros kept; a block
           named twice in one batch takes the later image *)
        let image k =
          Bytes.sub (sparse_page ~kind:((b + k) mod 4) c) 0 ((c + (k * b)) mod (ps + 1))
        in
        let bs = List.filter_map pick [ a; b; c ] @ [ block ] in
        let images = Array.of_list (List.mapi (fun k blk -> (blk, image k)) bs) in
        timed ctx "write_images" (Array.length images) (Hw.Disk.write_images disk images);
        Array.iter (fun (blk, image) -> Full_disk.replace model ~block:blk image) images;
        model.writes <- model.writes + Array.length images
      | 9, Some block ->
        (* grow, then shrink: a shorter whole-page rewrite reads zero past it *)
        write_frame ctx block ~kind:2 c;
        write_frame ctx block ~kind:1 b;
        agree ctx "shrunk block" (disk_page disk ~block) (Full_disk.get model block)
      | 10, target ->
        (* a batch to a fresh run, or a batch of one to an existing block:
           frames 0 and 2 get sparse pages, 3 stays zero, 1 holds whatever
           the last frame read left there *)
        Hw.Phys_mem.write_bytes mem 0 (sparse_page ~kind:(b mod 4) c);
        Hw.Phys_mem.write_bytes mem (Hw.Addr.addr_of_page 2) (sparse_page ~kind:(c mod 4) b);
        let n, first =
          match target with
          | Some block when a mod 3 = 0 -> (1, block)
          | _ ->
            let n = 1 + (b mod 8) in
            let first = Hw.Disk.alloc_run disk n in
            for k = 0 to n - 1 do
              fresh ctx (first + k)
            done;
            blocks := List.init n (( + ) first) @ !blocks;
            (n, first)
        in
        let pfns = Array.init n (fun k -> (a + k + c) mod 4) in
        Array.iteri
          (fun k pfn -> Full_disk.write_range model ~block:(first + k) ~off:0 (frame pfn))
          pfns;
        model.writes <- model.writes + n;
        timed ctx "write_frames" n (Hw.Disk.write_frames disk ~block:first mem ~pfns)
      | _ -> ());
      drain ();
      if Hw.Disk.live_blocks disk <> Full_disk.live model then
        Alcotest.failf "%s: live_blocks %d, model %d" ctx (Hw.Disk.live_blocks disk)
          (Full_disk.live model);
      if Hw.Disk.reads disk <> model.reads || Hw.Disk.writes disk <> model.writes then
        Alcotest.failf "%s: transfer counts differ" ctx;
      if Hw.Disk.stored_bytes disk > Hw.Disk.live_blocks disk * ps then
        Alcotest.failf "%s: more bytes stored than live pages" ctx)
    ops;
  List.iter
    (fun block ->
      agree "end" (Printf.sprintf "block %d" block) (disk_page disk ~block)
        (Full_disk.get model block))
    !blocks;
  true

let prop_disk_model =
  QCheck.Test.make ~count:300 ~name:"disk: zero-tail store matches the full-page model"
    QCheck.(
      list
        (quad (int_bound 10) (int_bound 4096) (int_bound (3 * 4096)) (int_bound 4096)))
    run_disk_model

(* Page images: a frame up to its last nonzero byte, and back. *)
let prop_page_image =
  QCheck.Test.make ~count:200 ~name:"phys_mem: image is the frame without its zero tail"
    QCheck.(pair (int_bound 3) (int_bound 4096))
    (fun (kind, n) ->
      let mem = Hw.Phys_mem.create ~size:(2 * Hw.Addr.page_size) in
      let page = sparse_page ~kind n in
      if kind <> 0 then Hw.Phys_mem.write_bytes mem 0 page;
      let img = Hw.Phys_mem.image mem ~pfn:0 in
      let len = Bytes.length img in
      let tail_zero = Bytes.for_all (( = ) '\000') (Bytes.sub page len (Hw.Addr.page_size - len)) in
      Hw.Phys_mem.write_bytes mem (Hw.Addr.addr_of_page 1) (Bytes.make Hw.Addr.page_size 'z');
      Hw.Phys_mem.copy_page_in mem ~pfn:1 img;
      tail_zero
      && (len = 0 || Bytes.get img (len - 1) <> '\000')
      && Bytes.equal img (Bytes.sub page 0 len)
      && Bytes.equal page (Hw.Phys_mem.read_bytes mem (Hw.Addr.addr_of_page 1) Hw.Addr.page_size))

(* -- Interconnect + NIC -- *)

let test_interconnect () =
  let net = Hw.Interconnect.create () in
  let eq0 = Hw.Event_queue.create () and eq1 = Hw.Event_queue.create () in
  let got = ref None in
  ignore
    (Hw.Interconnect.attach net ~node_id:0 ~deliver:(fun _ -> ()) ~now:(fun () -> 0)
       ~at:(fun ~time f -> Hw.Event_queue.schedule eq0 ~time f));
  ignore
    (Hw.Interconnect.attach net ~node_id:1
       ~deliver:(fun pkt -> got := Some pkt)
       ~now:(fun () -> 0)
       ~at:(fun ~time f -> Hw.Event_queue.schedule eq1 ~time f));
  Hw.Interconnect.send net ~src:0 ~dst:1 (Bytes.of_string "hi");
  Alcotest.(check bool) "not delivered before latency" true (!got = None);
  ignore (Hw.Event_queue.run_next eq1);
  (match !got with
  | Some pkt ->
    Alcotest.(check int) "src" 0 pkt.Hw.Interconnect.src;
    Alcotest.(check string) "payload" "hi" (Bytes.to_string pkt.Hw.Interconnect.data)
  | None -> Alcotest.fail "no delivery");
  (* failed node drops traffic *)
  Hw.Interconnect.fail_node net 1;
  Hw.Interconnect.send net ~src:0 ~dst:1 (Bytes.of_string "lost");
  Alcotest.(check int) "dropped counted" 1 (Hw.Interconnect.dropped net)

(* A dropped frame still occupies the sender's outbound link (the sender
   cannot see the far end), and topology changes apply from the next
   send.  All clocks stay at 0, so each delivery time is the link's
   accumulated serialization plus one hop. *)
let test_interconnect_drops () =
  let net = Hw.Interconnect.create () in
  let queues = Array.init 3 (fun _ -> Hw.Event_queue.create ()) in
  let got = Array.make 3 0 in
  Array.iteri
    (fun id q ->
      ignore
        (Hw.Interconnect.attach net ~node_id:id
           ~deliver:(fun _ -> got.(id) <- got.(id) + 1)
           ~now:(fun () -> 0)
           ~at:(fun ~time f -> Hw.Event_queue.schedule q ~time f)))
    queues;
  let ser = Hw.Cost.fiber_serialize and hop = Hw.Cost.fiber_packet in
  let frame n = Bytes.make n 'x' in
  (* send [n] bytes 0 -> [dst]; return the delivery time it was given *)
  let send_timed dst n =
    Hw.Interconnect.send net ~src:0 ~dst (frame n);
    let at = Hw.Event_queue.next_time_or queues.(dst) ~default:(-1) in
    ignore (Hw.Event_queue.run_next queues.(dst));
    at
  in
  Alcotest.(check int) "first frame" (ser 400 + hop) (send_timed 2 400);
  Hw.Interconnect.fail_node net 1;
  Hw.Interconnect.send net ~src:0 ~dst:1 (frame 800);
  Alcotest.(check int) "frame to a failed node dropped" 1 (Hw.Interconnect.dropped net);
  Alcotest.(check bool) "nothing queued at the failed node" true
    (Hw.Event_queue.is_empty queues.(1));
  Alcotest.(check int) "next frame waits out the dropped one's serialization"
    (ser 400 + ser 800 + ser 400 + hop)
    (send_timed 2 400);
  Hw.Interconnect.partition net ~minority:[ 2 ];
  Hw.Interconnect.send net ~src:0 ~dst:2 (frame 200);
  Alcotest.(check int) "cross-partition frame dropped" 2 (Hw.Interconnect.dropped net);
  Hw.Interconnect.restore_node net 1;
  Hw.Interconnect.heal net;
  let busy = ser 400 + ser 800 + ser 400 + ser 200 in
  Alcotest.(check int) "restored node receives from the next send"
    (busy + ser 100 + hop) (send_timed 1 100);
  Alcotest.(check int) "healed node receives from the next send"
    (busy + ser 100 + ser 100 + hop) (send_timed 2 100);
  Alcotest.(check (array int)) "deliveries" [| 0; 1; 3 |] got;
  Alcotest.(check int) "delivered frames counted" 4 (Hw.Interconnect.sent net);
  Alcotest.(check int) "no further drops" 2 (Hw.Interconnect.dropped net)

let () =
  Alcotest.run "hw"
    [
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr;
          qcheck prop_addr_roundtrip;
        ] );
      ("cost", [ Alcotest.test_case "conversions" `Quick test_cost ]);
      ( "phys_mem",
        [
          Alcotest.test_case "words, bytes, pages" `Quick test_phys_mem;
          qcheck prop_phys_mem_roundtrip;
          qcheck prop_page_image;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "insert/lookup/remove/space" `Quick test_page_table;
          qcheck prop_page_table;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "lookup/evict/flush" `Quick test_tlb;
          Alcotest.test_case "reverse tlb" `Quick test_rtlb;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "hits and conflicts" `Quick test_cache_sim;
          qcheck prop_cache_sim_model;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue;
          qcheck prop_event_queue;
          Alcotest.test_case "popped action is collectable" `Quick
            test_event_queue_popped_collectable;
          qcheck prop_event_queue_model;
          Alcotest.test_case "hot loop stays off the minor heap" `Quick
            test_event_queue_alloc;
        ] );
      ("mmu", [ Alcotest.test_case "translate and fault taxonomy" `Quick test_mmu ]);
      ("exec", [ Alcotest.test_case "effects and continuations" `Quick test_exec ]);
      ( "disk",
        [
          Alcotest.test_case "latency and contents" `Quick test_disk;
          Alcotest.test_case "reads snapshot at submission" `Quick test_disk_read_snapshot;
          Alcotest.test_case "read_into_now: checked, zero-filled, no event" `Quick
            test_disk_read_into_now;
          Alcotest.test_case "allocation order; freed blocks read zero" `Quick
            test_disk_alloc_free;
          qcheck prop_disk_model;
        ] );
      ( "interconnect",
        [
          Alcotest.test_case "delivery and failure" `Quick test_interconnect;
          Alcotest.test_case "dropped frames occupy the link; restore and heal" `Quick
            test_interconnect_drops;
        ] );
    ]
