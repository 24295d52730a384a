(* Integration tests for the application-kernel class libraries: the
   segment manager (demand paging, eviction, page-out/page-in, deferred
   copy), the thread library (unload/reload with saved state) and channels
   over memory-based messaging. *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let make ?(mem = 16 * 1024 * 1024) () =
  let node = Hw.Mpm.create ~node_id:0 ~cpus:2 ~mem_size:mem () in
  let inst = Instance.create node in
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
  let block = ref None in
  Backing_store.page_out ak.App_kernel.store ~pfn (fun b -> block := Some b);
  ignore (Engine.run [| inst |]);
  let block = Option.get !block in
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
  let io = Hw.Disk.latency () in
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
          Alcotest.test_case "a page-out stores the frame's image" `Quick
            test_page_out_stores_image;
          Alcotest.test_case "paging keeps one block per page" `Quick
            test_paging_keeps_one_block_per_page;
          Alcotest.test_case "remap during page-out keeps the write" `Quick
            test_remap_during_page_out;
        ] );
      ( "channels",
        [ Alcotest.test_case "ping-pong over messaging" `Quick test_channel_ping_pong ] );
      ( "threads",
        [ Alcotest.test_case "unload and reload with state" `Quick test_thread_unload_reload ]
      );
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
