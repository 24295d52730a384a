(* Tiered backing-store tests.

   - qcheck equivalence: with the fast tier disabled (the default
     [fast_tier_slots = 0]) the store is observably identical to the seed
     flat [Backing_store] — same returned blocks, same completion times
     (cumulative Cost charges), same page_in/page_out/retry counters and
     the same physical-memory contents after every operation of a random
     trace, with and without fault injection.  The seed implementation is
     replicated verbatim below and both are driven over identical
     hardware stacks.
   - qcheck self-consistency: with the fast tier enabled, a page-in
     always returns the bytes most recently paged out to that block
     (whichever tier holds them, across demotions, promotions and chaos),
     the fast tier settles within capacity, and every live block reads
     back its last bytes once the queue drains.
   - end to end: on a small paging workload the tiered store costs
     strictly fewer simulated us per access than the flat store.
   - unit coverage for the placement rule (page-outs land fast, slow
     refaults promote, the least recently touched image is demoted),
     demotion batching, demotion as a disk write ([Hw.Disk.writes] and
     [Hw.Disk.run_latency]), [read_block_now] and [checkpoint_flush] (one
     timed [Hw.Disk.write_images] of every fast image). *)

open Cachekernel
open Aklib

let qcheck = QCheck_alcotest.to_alcotest

(* -- standalone hardware stack: queue + clock + memory + disk -- *)

type env = {
  events : Hw.Event_queue.t;
  now : Hw.Cost.cycles ref;
  mem : Hw.Phys_mem.t;
  disk : Hw.Disk.t;
  fi : Fault_inject.t;
}

let frames = 8

let make_env ?chaos () =
  let events = Hw.Event_queue.create () in
  let now = ref 0 in
  let mem = Hw.Phys_mem.create ~size:(frames * Hw.Addr.page_size) in
  let disk = Hw.Disk.create ~events ~now:(fun () -> !now) in
  { events; now; mem; disk; fi = Fault_inject.create chaos }

let drain env =
  while not (Hw.Event_queue.is_empty env.events) do
    env.now := Hw.Event_queue.run_next env.events
  done

let fill_frame env ~pfn seed =
  Hw.Phys_mem.write_bytes env.mem
    (Hw.Addr.addr_of_page pfn)
    (Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((seed + (i * 7)) land 0xff)))

(* The whole page the raw disk holds for [block], past any fast image. *)
let disk_page env ~block =
  let page = Bytes.create Hw.Addr.page_size in
  Hw.Disk.read_into_now env.disk ~block ~off:0 page ~pos:0 ~len:Hw.Addr.page_size;
  page

let image seed = Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let mem_image env = Hw.Phys_mem.read_bytes env.mem 0 (frames * Hw.Addr.page_size)

let store_of env =
  Backing_store.create ~disk:env.disk ~mem:env.mem ~events:env.events ~now:(fun () ->
      !(env.now))

let tiered_store env ~slots =
  let store = store_of env in
  Backing_store.configure_tiers store ~slots;
  store

(* Page frame [pfn] out to [block] (a fresh one unless given) as a batch
   of one; [k block] runs on completion. *)
let page_out store ?block ~pfn k =
  let block = match block with Some b -> b | None -> Backing_store.alloc_block store in
  Backing_store.page_out_batch store ~block ~pfns:[| pfn |] (fun () -> k block)

let chaos_cfg seed =
  { Config.chaos_default with Config.chaos_seed = seed; io_fail = 0.3; io_delay = 0.2 }

let tier_chaos_cfg seed =
  {
    Config.chaos_default with
    Config.chaos_seed = seed;
    io_fail = 0.2;
    io_delay = 0.15;
    tier_fail = 0.3;
    tier_delay = 0.2;
  }

(* -- the seed flat store, replicated verbatim (modulo the [env] clock
   plumbing) as the equivalence model.  Its transfers copy through fresh
   page buffers, as the seed's did, over the disk's byte-range calls. -- *)

module Seed_store = struct
  type chaos_plane = {
    fi : Fault_inject.t;
    events : Hw.Event_queue.t;
    now : unit -> Hw.Cost.cycles;
  }

  type t = {
    disk : Hw.Disk.t;
    mem : Hw.Phys_mem.t;
    mutable free_blocks : int list;
    mutable page_ins : int;
    mutable page_outs : int;
    mutable retries : int;
    mutable chaos : chaos_plane option;
  }

  let create ~disk ~mem =
    { disk; mem; free_blocks = []; page_ins = 0; page_outs = 0; retries = 0; chaos = None }

  let set_fault_plane t ~fi ~events ~now = t.chaos <- Some { fi; events; now }

  let rec attempt t ~n go =
    match t.chaos with
    | None -> go ()
    | Some { fi; events; now } -> (
      match Fault_inject.io_fate fi Fault_inject.bstore with
      | `Ok -> go ()
      | `Ok_after_fail ->
        Fault_inject.recover fi ~site:"bstore.fail";
        go ()
      | `Fail when n <= Fault_inject.io_max_retries ->
        Fault_inject.inject fi ~site:"bstore.fail";
        t.retries <- t.retries + 1;
        let backoff =
          Fault_inject.io_retry_backoff_us *. (2.0 ** float_of_int (n - 1))
        in
        Hw.Event_queue.schedule events
          ~time:(now () + Hw.Cost.cycles_of_us backoff)
          (fun () -> attempt t ~n:(n + 1) go)
      | `Fail -> go ()
      | `Delay us ->
        Fault_inject.inject fi ~site:"bstore.delay";
        Hw.Event_queue.schedule events
          ~time:(now () + Hw.Cost.cycles_of_us us)
          (fun () ->
            Fault_inject.recover fi ~site:"bstore.delay";
            go ()))

  let alloc_block t =
    match t.free_blocks with
    | b :: rest ->
      t.free_blocks <- rest;
      b
    | [] -> Hw.Disk.alloc_block t.disk

  let free_block t b = t.free_blocks <- b :: t.free_blocks

  let page_out t ?block ~pfn k =
    t.page_outs <- t.page_outs + 1;
    let block = match block with Some b -> b | None -> alloc_block t in
    attempt t ~n:1 (fun () ->
        let data =
          Hw.Phys_mem.read_bytes t.mem (Hw.Addr.addr_of_page pfn) Hw.Addr.page_size
        in
        Hw.Disk.write_from t.disk ~block ~off:0 data ~pos:0 ~len:Hw.Addr.page_size
          (fun () -> k block))

  let page_in t ~block ~pfn k =
    t.page_ins <- t.page_ins + 1;
    attempt t ~n:1 (fun () ->
        let data = Bytes.create Hw.Addr.page_size in
        Hw.Disk.read_into t.disk ~block ~off:0 data ~pos:0 ~len:Hw.Addr.page_size (fun () ->
            Hw.Phys_mem.write_bytes t.mem (Hw.Addr.addr_of_page pfn) data;
            k ()))

  let write_block_now t ~block data =
    Hw.Disk.write_now t.disk ~block ~off:0 data ~pos:0 ~len:(Bytes.length data)
end

(* -- equivalence: flat real store vs seed replica on random traces --

   Each op runs against both stores on separate but identically-seeded
   hardware stacks and drains to completion; after every op the returned
   blocks, completion clocks, counters and full memory images must agree. *)

let run_equivalence_trace ~chaos ops =
  let e_r = make_env ?chaos:(Option.map chaos_cfg chaos) () in
  let e_m = make_env ?chaos:(Option.map chaos_cfg chaos) () in
  let real = store_of e_r in
  let model = Seed_store.create ~disk:e_m.disk ~mem:e_m.mem in
  if chaos <> None then begin
    Backing_store.set_fault_plane real e_r.fi;
    Seed_store.set_fault_plane model ~fi:e_m.fi ~events:e_m.events ~now:(fun () ->
        !(e_m.now))
  end;
  let blocks = ref [] in
  let pick a = match !blocks with [] -> None | l -> Some (List.nth l (a mod List.length l)) in
  let check ctx =
    drain e_r;
    drain e_m;
    if !(e_r.now) <> !(e_m.now) then
      Alcotest.failf "%s: clock divergence (%d vs %d cycles)" ctx !(e_r.now) !(e_m.now);
    if
      Backing_store.page_ins real <> model.Seed_store.page_ins
      || Backing_store.page_outs real <> model.Seed_store.page_outs
      || Backing_store.retries real <> model.Seed_store.retries
    then Alcotest.failf "%s: counter divergence" ctx;
    if not (Bytes.equal (mem_image e_r) (mem_image e_m)) then
      Alcotest.failf "%s: memory divergence" ctx
  in
  List.iteri
    (fun i (op, a) ->
      let ctx = Printf.sprintf "op %d" i in
      let pfn = a mod frames in
      match op mod 5 with
      | 0 ->
        (* page out a freshly-allocated block *)
        fill_frame e_r ~pfn a;
        fill_frame e_m ~pfn a;
        let b_r = ref (-1) and b_m = ref (-2) in
        page_out real ~pfn (fun b -> b_r := b);
        Seed_store.page_out model ~pfn (fun b -> b_m := b);
        check ctx;
        if !b_r <> !b_m then
          Alcotest.failf "%s: block divergence (%d vs %d)" ctx !b_r !b_m;
        blocks := !b_r :: !blocks
      | 1 -> (
        (* overwrite an existing block *)
        match pick a with
        | None -> ()
        | Some block ->
          fill_frame e_r ~pfn (a lxor 0x55);
          fill_frame e_m ~pfn (a lxor 0x55);
          page_out real ~block ~pfn (fun _ -> ());
          Seed_store.page_out model ~block ~pfn (fun _ -> ());
          check ctx)
      | 2 -> (
        match pick a with
        | None -> ()
        | Some block ->
          Backing_store.page_in real ~block ~pfn (fun () -> ());
          Seed_store.page_in model ~block ~pfn (fun () -> ());
          check ctx)
      | 3 -> (
        match pick a with
        | None -> ()
        | Some block ->
          Backing_store.free_block real block;
          Seed_store.free_block model block;
          blocks := List.filter (fun b -> b <> block) !blocks;
          check ctx)
      | _ ->
        let b_r = Backing_store.alloc_block real in
        let b_m = Seed_store.alloc_block model in
        if b_r <> b_m then Alcotest.failf "%s: alloc divergence" ctx;
        let data = Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((a + i) land 0xff)) in
        Backing_store.write_block_now real ~block:b_r data;
        Seed_store.write_block_now model ~block:b_m data;
        blocks := b_r :: !blocks;
        check ctx)
    ops;
  true

let trace_gen = QCheck.(list (pair (int_bound 4) (int_bound 4096)))

let equivalence_plain =
  QCheck.Test.make ~count:200 ~name:"flat store matches seed store"
    trace_gen
    (fun ops -> run_equivalence_trace ~chaos:None ops)

let equivalence_chaos =
  QCheck.Test.make ~count:200 ~name:"flat store matches seed store under chaos"
    QCheck.(pair (int_bound 1000) trace_gen)
    (fun (seed, ops) -> run_equivalence_trace ~chaos:(Some seed) ops)

(* -- self-consistency: tiered store returns what was stored -- *)

let run_tiered_trace ?(slots = 4) ~chaos (seed, ops) =
  let env = make_env ?chaos:(Option.map tier_chaos_cfg chaos) () in
  ignore seed;
  let store = tiered_store env ~slots in
  if chaos <> None then Backing_store.set_fault_plane store env.fi;
  let expected : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let blocks = ref [] in
  let pick a = match !blocks with [] -> None | l -> Some (List.nth l (a mod List.length l)) in
  let frame_bytes pfn =
    Hw.Phys_mem.read_bytes env.mem (Hw.Addr.addr_of_page pfn) Hw.Addr.page_size
  in
  List.iteri
    (fun i (op, a) ->
      let ctx = Printf.sprintf "op %d" i in
      let pfn = a mod frames in
      match op mod 5 with
      | 0 ->
        fill_frame env ~pfn a;
        let b = ref (-1) in
        page_out store ~pfn (fun blk -> b := blk);
        drain env;
        Hashtbl.replace expected !b (frame_bytes pfn);
        blocks := !b :: !blocks
      | 1 -> (
        match pick a with
        | None -> ()
        | Some block ->
          fill_frame env ~pfn (a lxor 0x55);
          page_out store ~block ~pfn (fun _ -> ());
          drain env;
          Hashtbl.replace expected block (frame_bytes pfn))
      | 2 -> (
        match pick a with
        | None -> ()
        | Some block ->
          Backing_store.page_in store ~block ~pfn (fun () -> ());
          drain env;
          let want = Hashtbl.find expected block in
          if not (Bytes.equal (frame_bytes pfn) want) then
            Alcotest.failf "%s: page_in of block %d returned stale bytes" ctx block)
      | 3 -> (
        match pick a with
        | None -> ()
        | Some block ->
          Backing_store.free_block store block;
          Hashtbl.remove expected block;
          blocks := List.filter (fun b -> b <> block) !blocks)
      | _ -> (
        match pick a with
        | None -> ()
        | Some block ->
          let got = Backing_store.read_block_now store ~block in
          let want = Hashtbl.find expected block in
          if not (Bytes.equal got want) then
            Alcotest.failf "%s: read_block_now of block %d returned stale bytes" ctx block))
    ops;
  drain env;
  if Backing_store.fast_resident store > slots then
    Alcotest.failf "fast tier over capacity after drain (%d > %d)"
      (Backing_store.fast_resident store) slots;
  Hashtbl.iter
    (fun block want ->
      if not (Bytes.equal (Backing_store.read_block_now store ~block) want) then
        Alcotest.failf "block %d lost its bytes after the drain" block)
    expected;
  true

let tiered_gen = QCheck.(pair (int_bound 1000) trace_gen)

let tiered_consistency =
  QCheck.Test.make ~count:150 ~name:"tiered store self-consistent" tiered_gen
    (run_tiered_trace ~chaos:None)

(* One slot: every second page-out overflows the tier, so demotion and
   promotion race on nearly every op. *)
let tiered_consistency_one_slot =
  QCheck.Test.make ~count:150 ~name:"tiered store self-consistent with one fast slot"
    tiered_gen
    (run_tiered_trace ~slots:1 ~chaos:None)

let tiered_consistency_chaos =
  QCheck.Test.make ~count:150
    ~name:"tiered store self-consistent under tier chaos" tiered_gen (fun (seed, ops) ->
      run_tiered_trace ~chaos:(Some seed) (seed, ops))

(* -- end to end: the fast tier must pay for itself on a paging workload
   whose hot set refaults, or it has no reason to exist -- *)

let test_tiered_beats_flat () =
  let us_per_access slots =
    (Workload.Sweeps.tier_point ~slots ~hot:24 ~cold:8 ~passes:3 ~frames:24 ())
      .Workload.Sweeps.ts_us_per_access
  in
  let flat = us_per_access 0 and tiered = us_per_access 32 in
  if not (tiered < flat) then
    Alcotest.failf "tiered store %.2f us/access, flat %.2f: tiered must be cheaper" tiered
      flat

(* -- unit coverage -- *)

(* Page out [n] distinct hot blocks through a [slots]-image tier and drain:
   demotion must batch the overflow down to capacity without losing any
   image. *)
let test_demotion_batching () =
  let env = make_env () in
  let store = tiered_store env ~slots:4 in
  let blocks =
    List.init 10 (fun i ->
        let pfn = i mod frames in
        fill_frame env ~pfn (i * 131);
        let b = ref (-1) in
        page_out store ~pfn (fun blk -> b := blk);
        drain env;
        (!b, i * 131))
  in
  Alcotest.(check bool) "demotions happened" true (Backing_store.tier_demotes store > 0);
  Alcotest.(check bool) "fast tier within capacity" true
    (Backing_store.fast_resident store <= 4);
  (* every image survives, wherever it lives *)
  List.iter
    (fun (block, seed) ->
      let want = Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((seed + (i * 7)) land 0xff)) in
      Alcotest.(check bool)
        (Printf.sprintf "block %d intact" block)
        true
        (Bytes.equal want (Backing_store.read_block_now store ~block)))
    blocks

let test_checkpoint_flush () =
  let env = make_env () in
  let store = tiered_store env ~slots:8 in
  let blocks =
    List.init 5 (fun i ->
        let pfn = i mod frames in
        fill_frame env ~pfn (i * 17);
        let b = ref (-1) in
        page_out store ~pfn (fun blk -> b := blk);
        drain env;
        (!b, i * 17))
  in
  Alcotest.(check int) "all fast-resident" 5 (Backing_store.fast_resident store);
  let writes0 = Hw.Disk.writes env.disk and t0 = !(env.now) in
  let completions = ref 0 in
  Alcotest.(check int) "flush count" 5
    (Backing_store.checkpoint_flush store (fun () -> incr completions));
  Alcotest.(check int) "fast tier empty at submission" 0 (Backing_store.fast_resident store);
  Alcotest.(check int) "one write per image" 5 (Hw.Disk.writes env.disk - writes0);
  Alcotest.(check int) "one disk transfer in flight" 1 (Hw.Event_queue.length env.events);
  drain env;
  Alcotest.(check int) "one completion" 1 !completions;
  Alcotest.(check int) "completes run_latency 5 after submission" (Hw.Disk.run_latency 5)
    (!(env.now) - t0);
  (* flushed images now read back from the raw disk *)
  List.iter
    (fun (block, seed) ->
      let want = Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((seed + (i * 7)) land 0xff)) in
      Alcotest.(check bool)
        (Printf.sprintf "block %d persisted" block)
        true
        (Bytes.equal want (disk_page env ~block)))
    blocks;
  Alcotest.(check int) "second flush is empty" 0
    (Backing_store.checkpoint_flush store (fun () -> Alcotest.fail "an empty flush completed"));
  Alcotest.(check bool) "an empty flush submits nothing" true (Hw.Event_queue.is_empty env.events)

(* A demotion captured under a block's previous life must not apply after
   the block is freed and reallocated: the batch travels with the victim's
   generation, and free bumps it.  Regression for a bug where free dropped
   the meta entry instead, restarting the recycled block at generation 0 so
   the stale batch matched and overwrote the new tenant's image. *)
let test_free_realloc_generation () =
  let env = make_env () in
  let store = tiered_store env ~slots:1 in
  let image seed =
    Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((seed + (i * 7)) land 0xff))
  in
  fill_frame env ~pfn:0 1;
  let b0 = ref (-1) in
  page_out store ~pfn:0 (fun blk -> b0 := blk);
  drain env;
  (* overflow the one-slot tier; run just the page-out completion so the
     demotion of [b0] is captured and scheduled but not yet applied *)
  fill_frame env ~pfn:1 2;
  page_out store ~pfn:1 (fun _ -> ());
  env.now := Hw.Event_queue.run_next env.events;
  (* recycle [b0] under the in-flight demotion and give it fresh bytes *)
  Backing_store.free_block store !b0;
  fill_frame env ~pfn:2 3;
  let b0' = ref (-1) in
  page_out store ~pfn:2 (fun blk -> b0' := blk);
  drain env;
  Alcotest.(check int) "free list recycled the block" !b0 !b0';
  Alcotest.(check bool) "recycled block holds the new tenant's bytes" true
    (Bytes.equal (image 3) (Backing_store.read_block_now store ~block:!b0))

(* A one-block overflow demotes one block, not a full batch: demotion
   drains exactly to capacity so still-warm images are not evicted. *)
let test_demotion_exact_drain () =
  let env = make_env () in
  let store = tiered_store env ~slots:4 in
  List.iter
    (fun i ->
      fill_frame env ~pfn:(i mod frames) (i * 53);
      page_out store ~pfn:(i mod frames) (fun _ -> ());
      drain env)
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "one demotion for a one-block overflow" 1
    (Backing_store.tier_demotes store);
  Alcotest.(check int) "fast tier drained exactly to capacity" 4
    (Backing_store.fast_resident store)

(* A demotion is a paging-disk write like any other: a batch of n images
   adds n to [Hw.Disk.writes] when it starts and completes exactly
   [Hw.Disk.run_latency n] later.  Events run with the clock set to their
   own time, so the demotion starts at the page-out's completion. *)
let test_demotion_is_a_disk_write () =
  let env = make_env () in
  let store = tiered_store env ~slots:2 in
  let step () =
    env.now := Option.get (Hw.Event_queue.next_time env.events);
    ignore (Hw.Event_queue.run_next env.events)
  in
  let n = 5 in
  let block = Backing_store.alloc_run store n in
  for pfn = 0 to n - 1 do
    fill_frame env ~pfn (pfn * 11)
  done;
  Backing_store.page_out_batch store ~block ~pfns:(Array.init n Fun.id) ignore;
  Alcotest.(check int) "page-outs land fast, not on disk" 0 (Hw.Disk.writes env.disk);
  step ();
  let submitted = !(env.now) in
  Alcotest.(check int) "the 3-image overflow is 3 disk writes" 3 (Hw.Disk.writes env.disk);
  Alcotest.(check int) "not complete yet" 0 (Backing_store.tier_demotes store);
  step ();
  Alcotest.(check int) "completes one 3-page transfer later"
    (submitted + Hw.Disk.run_latency 3)
    !(env.now);
  Alcotest.(check int) "3 demoted" 3 (Backing_store.tier_demotes store);
  Alcotest.(check int) "fast tier at capacity" 2 (Backing_store.fast_resident store);
  Alcotest.(check bool) "nothing else pending" true (Hw.Event_queue.is_empty env.events);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "block %d intact" (block + i))
      true
      (Bytes.equal (image (i * 11)) (Backing_store.read_block_now store ~block:(block + i)))
  done

let frame_holds env ~pfn seed =
  Bytes.equal (image seed)
    (Hw.Phys_mem.read_bytes env.mem (Hw.Addr.addr_of_page pfn) Hw.Addr.page_size)

(* The one placement rule: a page-out lands in the fast tier, overflow
   demotes to disk, and a slow-tier refault promotes the block back so
   the next refault is a fast hit. *)
let test_fast_first_and_promote () =
  let env = make_env () in
  let store = tiered_store env ~slots:1 in
  let page_out pfn seed =
    fill_frame env ~pfn seed;
    let b = ref (-1) in
    page_out store ~pfn (fun blk -> b := blk);
    drain env;
    !b
  in
  let a = page_out 0 1 in
  Alcotest.(check int) "page-out landed fast" 1 (Backing_store.fast_resident store);
  Alcotest.(check int) "nothing demoted yet" 0 (Backing_store.tier_demotes store);
  ignore (page_out 1 2);
  Alcotest.(check int) "overflow demoted one image" 1 (Backing_store.tier_demotes store);
  Alcotest.(check bool) "demoted image reached the disk" true
    (Bytes.equal (image 1) (disk_page env ~block:a));
  Backing_store.page_in store ~block:a ~pfn:2 (fun () -> ());
  drain env;
  Alcotest.(check bool) "slow refault read the image" true (frame_holds env ~pfn:2 1);
  Alcotest.(check int) "served slow" 1 (Backing_store.tier_slow_hits store);
  Alcotest.(check int) "slow refault promoted" 1 (Backing_store.tier_promotes store);
  Backing_store.page_in store ~block:a ~pfn:3 (fun () -> ());
  drain env;
  Alcotest.(check bool) "fast refault read the image" true (frame_holds env ~pfn:3 1);
  Alcotest.(check int) "next refault served fast" 1 (Backing_store.tier_fast_hits store)

(* Demotion order is LRU over the last transfer touching each block: a
   refault refreshes an image, so the untouched one goes first. *)
let test_demotion_order () =
  let env = make_env () in
  let store = tiered_store env ~slots:3 in
  let page_out pfn =
    fill_frame env ~pfn (pfn + 40);
    let b = ref (-1) in
    page_out store ~pfn (fun blk -> b := blk);
    drain env;
    !b
  in
  let a = page_out 0 in
  let b = page_out 1 in
  let c = page_out 2 in
  Backing_store.page_in store ~block:a ~pfn:3 (fun () -> ());
  drain env;
  ignore (page_out 4);
  Alcotest.(check int) "one demotion" 1 (Backing_store.tier_demotes store);
  Alcotest.(check bool) "least recently touched block demoted" true
    (Bytes.equal (image 41) (disk_page env ~block:b));
  Alcotest.(check bool) "refaulted block stayed fast" false
    (Bytes.equal (image 40) (disk_page env ~block:a));
  Alcotest.(check bool) "younger block stayed fast" false
    (Bytes.equal (image 42) (disk_page env ~block:c));
  List.iter
    (fun (block, seed) ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d intact" block)
        true
        (Bytes.equal (image seed) (Backing_store.read_block_now store ~block)))
    [ (a, 40); (b, 41); (c, 42) ]

let test_read_block_now_fast () =
  let env = make_env () in
  let store = tiered_store env ~slots:4 in
  fill_frame env ~pfn:0 99;
  let b = ref (-1) in
  page_out store ~pfn:0 (fun blk -> b := blk);
  drain env;
  Alcotest.(check int) "image is fast-resident" 1 (Backing_store.fast_resident store);
  let want = Bytes.init Hw.Addr.page_size (fun i -> Char.chr ((99 + (i * 7)) land 0xff)) in
  Alcotest.(check bool) "read_block_now sees the fast image" true
    (Bytes.equal want (Backing_store.read_block_now store ~block:!b));
  (* the raw disk never saw this hot image *)
  Alcotest.(check bool) "raw disk is stale" false
    (Bytes.equal want (disk_page env ~block:!b))

(* A page image replaces its block on disk: demoting or flushing a short
   image over a block that held a longer one leaves nothing of the old
   tail behind. *)
let test_short_image_replaces () =
  let env = make_env () in
  let store = tiered_store env ~slots:1 in
  let short = Bytes.make Hw.Addr.page_size '\000' in
  Bytes.set short 8 '\042';
  let page_out_short ~block pfn =
    Hw.Phys_mem.zero_page env.mem pfn;
    Hw.Phys_mem.write_word env.mem (Hw.Addr.addr_of_page pfn + 8) 42;
    page_out store ~block ~pfn (fun _ -> ());
    drain env
  in
  let a = Backing_store.alloc_block store and b = Backing_store.alloc_block store in
  Backing_store.write_block_now store ~block:a (image 5);
  Backing_store.write_block_now store ~block:b (image 6);
  page_out_short ~block:a 0;
  page_out_short ~block:b 1;
  Alcotest.(check int) "the overflow demoted the older image" 1
    (Backing_store.tier_demotes store);
  Alcotest.(check bool) "demoted short image reads zero past its extent" true
    (Bytes.equal short (disk_page env ~block:a));
  Alcotest.(check int) "flush moved the other" 1 (Backing_store.checkpoint_flush store ignore);
  Alcotest.(check bool) "flushed short image reads zero past its extent" true
    (Bytes.equal short (disk_page env ~block:b))

let () =
  Alcotest.run "tiers"
    [
      ( "equivalence",
        [ qcheck equivalence_plain; qcheck equivalence_chaos ] );
      ( "tiered consistency",
        [
          qcheck tiered_consistency;
          qcheck tiered_consistency_one_slot;
          qcheck tiered_consistency_chaos;
        ] );
      ( "end to end",
        [ Alcotest.test_case "tiered beats flat on us/access" `Quick test_tiered_beats_flat ] );
      ( "units",
        [
          Alcotest.test_case "page-outs land fast, refaults promote" `Quick
            test_fast_first_and_promote;
          Alcotest.test_case "demotion evicts the least recently touched" `Quick
            test_demotion_order;
          Alcotest.test_case "demotion batching" `Quick test_demotion_batching;
          Alcotest.test_case "demotion drains exactly to capacity" `Quick
            test_demotion_exact_drain;
          Alcotest.test_case "demotion is a disk write" `Quick test_demotion_is_a_disk_write;
          Alcotest.test_case "freed block generations survive recycling" `Quick
            test_free_realloc_generation;
          Alcotest.test_case "checkpoint flush" `Quick test_checkpoint_flush;
          Alcotest.test_case "read_block_now prefers fast tier" `Quick
            test_read_block_now_fast;
          Alcotest.test_case "short images replace their block" `Quick
            test_short_image_replaces;
        ] );
    ]
