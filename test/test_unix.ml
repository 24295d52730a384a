(* UNIX emulator tests: process lifecycle over the caching model — stable
   pids, sleep/wakeup by thread unload/reload, copy-on-write spawn,
   swapping, decay scheduling, SIGSEGV. *)

open Cachekernel
open Unix_emu

let boot ?(mem = 32 * 1024 * 1024) () =
  let node = Hw.Mpm.create ~node_id:0 ~cpus:2 ~mem_size:mem () in
  let inst = Instance.create node in
  let groups = List.init (Instance.n_groups inst) Fun.id in
  match Emulator.boot inst ~groups with
  | Ok emu -> (inst, emu)
  | Error e -> Alcotest.failf "boot: %a" Api.pp_error e

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

(* substring search, for console assertions *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_process_tree () =
  let inst, emu = boot () in
  let child =
    Syscall.program "child" (fun () ->
        Syscall.write (Printf.sprintf "child pid=%d ppid=%d\n" (Syscall.getpid ())
             (Syscall.getppid ()));
        Hw.Exec.compute 5_000;
        7)
  in
  let init =
    Syscall.program "init" (fun () ->
        let c1 = Syscall.spawn child in
        let c2 = Syscall.spawn child in
        Syscall.write (Printf.sprintf "init spawned %d %d\n" c1 c2);
        let p1, code1 = Syscall.wait () in
        let p2, code2 = Syscall.wait () in
        Syscall.write (Printf.sprintf "reaped %d:%d %d:%d\n" p1 code1 p2 code2);
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  let out = Emulator.console emu in
  Alcotest.(check bool) "children ran" true
    (contains out "child pid=2 ppid=1"
    || contains out "child pid=3 ppid=1");
  Alcotest.(check bool) "both reaped with exit code 7" true
    (contains out ":7 " || contains out ":7\n");
  Alcotest.(check int) "all processes exited" 3 emu.Emulator.exited


let test_sleep_wakeup_unloads_thread () =
  let inst, emu = boot () in
  let sleeper_done = ref false in
  let sleeper =
    Syscall.program "sleeper" (fun () ->
        Syscall.sleep "tea";
        sleeper_done := true;
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _pid = Syscall.spawn sleeper in
        (* let the sleeper run and block *)
        Hw.Exec.compute 200_000;
        Syscall.wakeup "tea";
        let _ = Syscall.wait () in
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "sleeper completed after wakeup" true !sleeper_done;
  (* sleeping unloaded the thread: at least one thread writeback occurred
     beyond the exit writebacks *)
  Alcotest.(check bool) "thread unload traffic" true
    (inst.Instance.stats.Stats.threads.Stats.unloads > emu.Emulator.exited)

let test_spawn_inherit_cow () =
  let inst, emu = boot () in
  let observed = ref (-1) in
  let worker =
    Syscall.program "worker" (fun () ->
        (* reads the value the parent wrote before spawning us, then writes
           over it privately *)
        observed := Hw.Exec.mem_read Process.data_base;
        Hw.Exec.mem_write Process.data_base 5555;
        0)
  in
  let parent_sees = ref (-1) in
  let init =
    Syscall.program "init" (fun () ->
        Hw.Exec.mem_write Process.data_base 4242;
        let _pid = Syscall.spawn ~inherit_memory:true worker in
        let _ = Syscall.wait () in
        parent_sees := Hw.Exec.mem_read Process.data_base;
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "child inherited parent's data" 4242 !observed;
  Alcotest.(check int) "parent isolated from child write" 4242 !parent_sees;
  Alcotest.(check bool) "deferred copy used" true
    (inst.Instance.stats.Stats.cow_copies >= 1)

let test_swapping () =
  let inst, emu = boot () in
  let resumed = ref false in
  let job =
    Syscall.program "job" (fun () ->
        Hw.Exec.mem_write Process.data_base 31337;
        Syscall.sleep "io";
        (* after swap-out and swap-in, memory must be intact *)
        resumed := Hw.Exec.mem_read Process.data_base = 31337;
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _pid = Syscall.spawn job in
        Hw.Exec.compute 200_000;
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  let p = Option.get (Emulator.proc emu 2) in
  Alcotest.(check bool) "job is sleeping" true
    (match p.Process.state with Process.Sleeping _ -> true | _ -> false);
  Swapper.swap_out emu p;
  Alcotest.(check int) "swapped process consumes no descriptors" 0
    (Swapper.descriptor_footprint emu p);
  ok (Swapper.swap_in emu p);
  Emulator.wakeup_event emu "io";
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "job resumed with memory intact" true !resumed

let test_decay_scheduler () =
  let inst, emu = boot () in
  let hog =
    Syscall.program "hog" (fun () ->
        for _ = 1 to 200 do
          Hw.Exec.compute 500_000
        done;
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _pid = Syscall.spawn hog in
        let _ = Syscall.wait () in
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  let sched = ok (Sched.start emu ~interval_us:10_000.0) in
  ignore (Engine.run ~until_us:400_000.0 [| inst |]);
  Sched.stop sched;
  let p = Option.get (Emulator.proc emu 2) in
  Alcotest.(check bool) "scheduler ticked" true (Sched.ticks sched > 3);
  Alcotest.(check bool)
    (Printf.sprintf "compute-bound process decayed (p_cpu=%d)" p.Process.p_cpu)
    true
    (p.Process.p_cpu > 0)

let test_sigsegv () =
  let inst, emu = boot () in
  let wild =
    Syscall.program "wild" (fun () ->
        Hw.Exec.mem_write 0x00000007 1 (* unmapped: no region *);
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _pid = Syscall.spawn wild in
        let _, code = Syscall.wait () in
        Syscall.write (Printf.sprintf "exit=%d\n" code);
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "child killed with SIGSEGV code" true
    (contains (Emulator.console emu) "exit=139")

let test_sbrk () =
  let inst, emu = boot () in
  let witnessed = ref (-1) in
  let prog =
    Syscall.program ~data_pages:2 "grower" (fun () ->
        let old = Syscall.sbrk (4 * Hw.Addr.page_size) in
        Hw.Exec.mem_write (old + Hw.Addr.page_size) 77;
        witnessed := Hw.Exec.mem_read (old + Hw.Addr.page_size);
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "grown region usable" 77 !witnessed

let test_stable_pid_across_reloads () =
  (* "the UNIX emulator provides a stable UNIX-like process identifier that
     is independent of the Cache Kernel address space and thread
     identifiers which may change several times over the lifetime of the
     UNIX process" (section 2) *)
  let inst, emu = boot () in
  let pids = ref [] in
  let prog =
    Syscall.program "napper" (fun () ->
        pids := Syscall.getpid () :: !pids;
        Syscall.sleep "nap";
        pids := Syscall.getpid () :: !pids;
        Syscall.sleep "nap";
        pids := Syscall.getpid () :: !pids;
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _ = Syscall.spawn prog in
        for _ = 1 to 2 do
          Hw.Exec.compute 300_000;
          Syscall.wakeup "nap"
        done;
        let _ = Syscall.wait () in
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  (* the thread was unloaded/reloaded twice: its Cache Kernel identifier
     changed, but getpid returned the same pid every time *)
  Alcotest.(check (list int)) "same pid at every epoch" [ 2; 2; 2 ] !pids;
  Alcotest.(check bool) "thread descriptors were recycled" true
    (inst.Instance.stats.Stats.threads.Stats.loads >= 5)

let test_nice_lowers_priority () =
  let inst, emu = boot () in
  let nice_prog =
    Syscall.program "nice-hog" (fun () ->
        Syscall.nice 19;
        for _ = 1 to 50 do
          Hw.Exec.compute 100_000
        done;
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _ = Syscall.spawn nice_prog in
        let _ = Syscall.wait () in
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  let sched = ok (Sched.start emu ~interval_us:10_000.0) in
  ignore (Engine.run ~until_us:150_000.0 [| inst |]);
  Sched.stop sched;
  let p = Option.get (Emulator.proc emu 2) in
  Alcotest.(check int) "nice recorded" 19 p.Process.nice;
  match
    Aklib.Thread_lib.oid_of emu.Emulator.ak.Aklib.App_kernel.threads p.Process.thread
  with
  | Some oid -> (
    match Instance.find_thread inst oid with
    | Some th ->
      Alcotest.(check bool) "decayed below default priority" true
        (th.Thread_obj.priority < 12)
    | None -> ())
  | None -> ()

let test_files () =
  let inst, emu = boot () in
  let prog =
    Syscall.program "scribe" (fun () ->
        let fd = Syscall.creat "/tmp/notes" in
        ignore (Syscall.write_file fd "the caching model of ");
        ignore (Syscall.write_file fd "kernel functionality");
        Syscall.close fd;
        let fd = Syscall.open_file "/tmp/notes" in
        let s = Syscall.read_file fd 100 in
        Syscall.write ("read back: " ^ s ^ "\n");
        Syscall.close fd;
        (* opening a missing file fails cleanly *)
        if Syscall.open_file "/no/such" = -1 then Syscall.write "ENOENT ok\n";
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  let out = Emulator.console emu in
  Alcotest.(check bool) "file contents round-tripped" true
    (contains out "read back: the caching model of kernel functionality");
  Alcotest.(check bool) "missing file error" true (contains out "ENOENT ok");
  (* file I/O went through the disk with latency *)
  Alcotest.(check bool) "disk was involved" true
    (Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node) > 10_000.0)

(* creat on an existing file truncates it in place: its blocks go back to
   the disk and a read returns only what was written after. *)
let test_creat_truncates () =
  let inst, emu = boot () in
  let disk = emu.Emulator.ak.Aklib.App_kernel.disk in
  let live () = Hw.Disk.live_blocks disk in
  let counts = ref [] in
  let prog =
    Syscall.program "rewriter" (fun () ->
        let fd = Syscall.creat "/tmp/log" in
        ignore (Syscall.write_file fd (String.make (2 * Hw.Addr.page_size) 'o'));
        Syscall.close fd;
        let written = live () in
        let fd = Syscall.creat "/tmp/log" in
        let truncated = live () in
        ignore (Syscall.write_file fd "new");
        Syscall.close fd;
        counts := [ written; truncated; live () ];
        let fd = Syscall.open_file "/tmp/log" in
        Syscall.write ("content: [" ^ Syscall.read_file fd 10_000 ^ "]\n");
        Syscall.close fd;
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  (match !counts with
  | [ written; truncated; rewritten ] ->
    Alcotest.(check int) "truncation frees both blocks" (written - 2) truncated;
    Alcotest.(check int) "the rewrite takes one block" (truncated + 1) rewritten
  | _ -> Alcotest.fail "program did not finish");
  Alcotest.(check bool) "only the new content reads back" true
    (contains (Emulator.console emu) "content: [new]")

(* -- The write-through buffer cache -- *)

let disk_of emu = emu.Emulator.ak.Aklib.App_kernel.disk

(* Disk reads and writes issued while [f] runs. *)
let disk_ops emu f =
  let d = disk_of emu in
  let r0 = Hw.Disk.reads d and w0 = Hw.Disk.writes d in
  let v = f () in
  (v, Hw.Disk.reads d - r0, Hw.Disk.writes d - w0)

let write_file name s =
  let fd = Syscall.creat name in
  ignore (Syscall.write_file fd s);
  Syscall.close fd

let read_file name len =
  let fd = Syscall.open_file name in
  let s = Syscall.read_file fd len in
  Syscall.close fd;
  s

(* Push every block now cached out of the FIFO. *)
let flush_cache () =
  for i = 0 to Fs.cache_blocks do
    write_file (Printf.sprintf "/tmp/filler%d" i) "x"
  done

(* Reading back a block just written is a copy-out: no disk read, and
   well under one disk latency. *)
let test_read_back_hits () =
  let inst, emu = boot () in
  let seen = ref None in
  let prog =
    Syscall.program "reader" (fun () ->
        write_file "/tmp/hot" "written a moment ago";
        let t0 = Hw.Mpm.now inst.Instance.node in
        let s, reads, writes = disk_ops emu (fun () -> read_file "/tmp/hot" 100) in
        seen := Some (s, reads, writes, Hw.Mpm.now inst.Instance.node - t0);
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  match !seen with
  | None -> Alcotest.fail "program did not finish"
  | Some (s, reads, writes, took) ->
    Alcotest.(check string) "content" "written a moment ago" s;
    Alcotest.(check (pair int int)) "no disk operation" (0, 0) (reads, writes);
    if took >= Hw.Cost.cycles_of_us 1_000.0 then
      Alcotest.failf "read-back took %.0f us" (Hw.Cost.us_of_cycles took)

(* A write into a block it allocates, or into a cached one, is one disk
   write and no read. *)
let test_fresh_block_write () =
  let inst, emu = boot () in
  let seen = ref [] in
  let prog =
    Syscall.program "writer" (fun () ->
        let fd = Syscall.creat "/tmp/fresh" in
        let _, r1, w1 = disk_ops emu (fun () -> Syscall.write_file fd "first") in
        let _, r2, w2 = disk_ops emu (fun () -> Syscall.write_file fd " second") in
        Syscall.close fd;
        seen := [ (r1, w1); (r2, w2) ];
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  Alcotest.(check (list (pair int int))) "fresh block, then cached block: (reads, writes)"
    [ (0, 1); (0, 1) ] !seen

(* A partial write into an existing block the FIFO has evicted still
   reads the block first, and the merge keeps the old bytes. *)
let test_evicted_block_read_modify_write () =
  let inst, emu = boot () in
  let seen = ref None in
  let prog =
    Syscall.program "appender" (fun () ->
        let fd = Syscall.creat "/tmp/old" in
        ignore (Syscall.write_file fd "old prefix|");
        flush_cache ();
        let _, reads, writes = disk_ops emu (fun () -> Syscall.write_file fd "new bytes") in
        Syscall.close fd;
        seen := Some (reads, writes, read_file "/tmp/old" 100);
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  match !seen with
  | None -> Alcotest.fail "program did not finish"
  | Some (reads, writes, s) ->
    Alcotest.(check (pair int int)) "read-modify-write: (reads, writes)" (1, 1) (reads, writes);
    Alcotest.(check string) "old prefix and new bytes" "old prefix|new bytes" s

(* Truncation drops the freed blocks from the cache; the rewrite reads
   back only its own content. *)
let test_truncate_invalidates () =
  let inst, emu = boot () in
  let fs = emu.Emulator.fs in
  let blocks () =
    let f = Option.get (Fs.lookup fs "/tmp/log") in
    List.init ((Fs.size f + Hw.Addr.page_size - 1) / Hw.Addr.page_size) (Fs.block_of fs f)
  in
  let seen = ref None in
  let prog =
    Syscall.program "truncator" (fun () ->
        write_file "/tmp/log" (String.make (2 * Hw.Addr.page_size) 'o');
        let old = blocks () in
        let cached_before = List.map (Fs.cached fs) old in
        let fd = Syscall.creat "/tmp/log" in
        let cached_after = List.map (Fs.cached fs) old in
        let _, reads, _ = disk_ops emu (fun () -> Syscall.write_file fd "new") in
        Syscall.close fd;
        seen := Some (cached_before, cached_after, reads, read_file "/tmp/log" 10_000);
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  match !seen with
  | None -> Alcotest.fail "program did not finish"
  | Some (before, after, reads, s) ->
    Alcotest.(check (list bool)) "both blocks cached once written" [ true; true ] before;
    Alcotest.(check (list bool)) "truncation drops them" [ false; false ] after;
    Alcotest.(check int) "the rewrite reads nothing" 0 reads;
    Alcotest.(check string) "only the new content reads back" "new" s

(* A signal for someone else that arrives while a thread waits on a
   cache-miss read is delivered after the read, not lost in the wait. *)
let test_foreign_signal_survives_read () =
  let inst, emu = boot () in
  let foreign = 0x5100 in
  let seen = ref None in
  let prog =
    Syscall.program "waiter" (fun () ->
        write_file "/tmp/cold" "cold data";
        flush_cache ();
        let p = Option.get (Emulator.proc emu (Syscall.getpid ())) in
        let oid =
          Option.get (Aklib.Thread_lib.oid_of emu.Emulator.ak.Aklib.App_kernel.threads p.Process.thread)
        in
        Hw.Mpm.after inst.Instance.node ~delay:(Hw.Cost.cycles_of_us 1_000.0) (fun () ->
            match Instance.find_thread inst oid with
            | Some th -> Signals.post_signal inst th ~va:foreign
            | None -> ());
        let s, reads, _ = disk_ops emu (fun () -> read_file "/tmp/cold" 100) in
        let got = match Hw.Exec.trap Api.Ck_wait_signal with Api.Ck_signal va -> va | _ -> -1 in
        seen := Some (s, reads, got);
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  match !seen with
  | None -> Alcotest.fail "the foreign signal was lost: the program never finished"
  | Some (s, reads, got) ->
    Alcotest.(check string) "content" "cold data" s;
    Alcotest.(check int) "a cache miss" 1 reads;
    Alcotest.(check int) "the foreign signal is still queued" foreign got

(* A block stores its file bytes, not a page: 256 small result files
   take a few KB of disk buffers, where whole pages would take 1 MB. *)
let test_small_files_store_small () =
  let inst, emu = boot () in
  let disk = emu.Emulator.ak.Aklib.App_kernel.disk in
  let prog =
    Syscall.program "writer" (fun () ->
        for i = 0 to 255 do
          let fd = Syscall.creat (Printf.sprintf "/tmp/result%d" i) in
          ignore (Syscall.write_file fd (Printf.sprintf "result %3d: ok\n" i));
          Syscall.close fd
        done;
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  let live0 = Hw.Disk.live_blocks disk and stored0 = Hw.Disk.stored_bytes disk in
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "one block per file" (live0 + 256) (Hw.Disk.live_blocks disk);
  let stored = Hw.Disk.stored_bytes disk - stored0 in
  if stored >= 16 * 1024 then Alcotest.failf "256 small files store %d bytes" stored

(* Swapped-out pages own their blocks until the process exits, which
   frees them; the shared program-text blocks belong to the file system
   and survive both untouched. *)
let test_exit_frees_blocks_keeps_text () =
  let inst, emu = boot () in
  let disk = emu.Emulator.ak.Aklib.App_kernel.disk in
  let job =
    Syscall.program "job" (fun () ->
        Hw.Exec.mem_write Process.data_base 31337;
        Syscall.sleep "io";
        0)
  in
  let init =
    Syscall.program "init" (fun () ->
        let _pid = Syscall.spawn job in
        Hw.Exec.compute 200_000;
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  let text_image () =
    let f = Option.get (Fs.lookup emu.Emulator.fs "/bin/job") in
    List.init
      ((Fs.size f + Hw.Addr.page_size - 1) / Hw.Addr.page_size)
      (fun i ->
        let page = Bytes.create Hw.Addr.page_size in
        Hw.Disk.read_into_now disk ~block:(Fs.block_of emu.Emulator.fs f i) ~off:0 page ~pos:0
          ~len:Hw.Addr.page_size;
        page)
  in
  let text = text_image () in
  let live0 = Hw.Disk.live_blocks disk in
  let stored0 = Hw.Disk.stored_bytes disk in
  let p = Option.get (Emulator.proc emu 2) in
  Swapper.swap_out emu p;
  Alcotest.(check bool) "swap-out wrote the dirty pages" true
    (Hw.Disk.live_blocks disk > live0);
  ok (Swapper.swap_in emu p);
  Emulator.wakeup_event emu "io";
  ignore (Engine.run [| inst |]);
  Alcotest.(check bool) "job exited" true (Process.is_zombie p);
  Alcotest.(check int) "exit freed the process's blocks" live0 (Hw.Disk.live_blocks disk);
  Alcotest.(check int) "and their stored bytes" stored0 (Hw.Disk.stored_bytes disk);
  Alcotest.(check bool) "program text intact" true (List.for_all2 Bytes.equal text (text_image ()))

(* A wave of children exits while init and two sleepers live on.  The
   segment manager then holds exactly the live processes' spaces (and the
   emulator's own), and a checkpoint taken then encodes only those, with
   the live processes' threads in them and no dead process's thread
   anywhere: an exited process's space is dropped, not kept for a fault or
   a checkpoint to walk over. *)
let test_exit_drops_space () =
  let inst, emu = boot () in
  let ak = emu.Emulator.ak in
  let mgr = ak.Aklib.App_kernel.mgr in
  let quick = Syscall.program "quick" (fun () -> Hw.Exec.mem_write Process.data_base 1; 0) in
  let sleeper = Syscall.program "sleeper" (fun () -> Syscall.sleep "hold"; 0) in
  let init =
    Syscall.program "init" (fun () ->
        for _ = 1 to 6 do
          ignore (Syscall.spawn quick)
        done;
        for _ = 1 to 6 do
          ignore (Syscall.wait ())
        done;
        ignore (Syscall.spawn sleeper);
        ignore (Syscall.spawn sleeper);
        Syscall.sleep "hold";
        0)
  in
  ignore (ok (Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  Alcotest.(check int) "the wave exited" 6 emu.Emulator.exited;
  let tag (v : Aklib.Segment_mgr.vspace) = v.Aklib.Segment_mgr.tag in
  let live =
    List.filter_map
      (fun (p : Process.t) -> if Process.is_zombie p then None else Some (tag p.Process.vspace))
      (Emulator.procs emu)
    |> List.sort compare
  in
  Alcotest.(check int) "init and two sleepers live" 3 (List.length live);
  let own = Option.map tag ak.Aklib.App_kernel.own_space in
  Alcotest.(check (list int)) "the manager holds the live spaces"
    (List.sort compare (Option.to_list own @ live))
    (List.map tag (Aklib.Segment_mgr.list_spaces mgr));
  let img =
    match Migrate.Codec.decode (Migrate.Codec.encode (Migrate.Checkpoint.image_of ak ())) with
    | Ok img -> img
    | Error e -> Alcotest.failf "decode: %s" e
  in
  Alcotest.(check (list int)) "the checkpoint encodes only those" live
    (List.map (fun (s : Migrate.Codec.space_image) -> s.Migrate.Codec.space_tag) img.Migrate.Codec.spaces);
  let own = Option.get own in
  let bound (th : Migrate.Codec.thread_image) =
    match th.Migrate.Codec.space with Some i -> List.nth live i | None -> own
  in
  let entry (th : Migrate.Codec.thread_image) =
    Option.get (Aklib.Thread_lib.entry ak.Aklib.App_kernel.threads th.Migrate.Codec.thread_tag)
  in
  Alcotest.(check bool) "every thread is bound to its own space" true
    (List.for_all (fun th -> (entry th).Aklib.Thread_lib.space_tag = bound th) img.Migrate.Codec.threads);
  Alcotest.(check (list int)) "the process threads are the live processes'"
    (List.filter_map
       (fun (p : Process.t) -> if Process.is_zombie p then None else Some p.Process.thread)
       (Emulator.procs emu)
    |> List.sort compare)
    (List.filter_map
       (fun th -> if bound th = own then None else Some th.Migrate.Codec.thread_tag)
       img.Migrate.Codec.threads
    |> List.sort compare)

let test_pipes () =
  let inst, emu = boot () in
  (* parent creates the pipe; children inherit the fd numbers by convention
     (same process in this test: a single process with a reader thread is
     not expressible, so reader and writer are two processes sharing the
     pipe through the emulator's table via spawn-time inheritance) *)
  let collected = ref "" in
  let prog =
    Syscall.program "piper" (fun () ->
        let r, w = Syscall.pipe () in
        (* write, read back, then demonstrate blocking: empty read waits
           until a wakeup-producing write *)
        ignore (Syscall.write_file w "hello ");
        ignore (Syscall.write_file w "pipes");
        let s1 = Syscall.read_file r 6 in
        let s2 = Syscall.read_file r 100 in
        collected := s1 ^ "|" ^ s2;
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  Alcotest.(check string) "pipe preserves byte order" "hello |pipes" !collected

let test_pipe_blocks_reader () =
  let inst, emu = boot () in
  let got = ref "" in
  (* reader and writer processes share the pipe via the parent's fd table:
     model as parent writing after spawning a reader is not possible (fds
     are per-process), so the blocking path is exercised within one
     process: a read on an empty pipe sleeps until the writer — here the
     wakeup comes from a sibling via a shared OCaml channel is out of
     scope.  Instead assert the sleep happened and the process was
     terminated as idle. *)
  let prog =
    Syscall.program "blocker" (fun () ->
        let r, _w = Syscall.pipe () in
        got := Syscall.read_file r 10;
        0)
  in
  ignore (ok (Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  let p = Option.get (Emulator.proc emu 1) in
  Alcotest.(check bool) "reader sleeps on the empty pipe" true
    (match p.Process.state with Process.Sleeping _ -> true | _ -> false);
  Alcotest.(check string) "nothing was read" "" !got;
  (* a late writer wakes it: complete the exchange *)
  (match Hashtbl.find_opt p.Process.fds 4 with
  | Some (Process.Pipe_write_end pipe) ->
    Buffer.add_string pipe.Process.buf "late data";
    Emulator.wakeup_event emu (Printf.sprintf "pipe:%d" pipe.Process.pipe_id)
  | _ -> Alcotest.fail "pipe write end missing");
  ignore (Engine.run [| inst |]);
  Alcotest.(check string) "woken reader got the data" "late data" !got

let () =
  Alcotest.run "unix_emu"
    [
      ( "files",
        [
          Alcotest.test_case "create/write/read files" `Quick test_files;
          Alcotest.test_case "creat truncates in place" `Quick test_creat_truncates;
          Alcotest.test_case "small files store their bytes, not pages" `Quick
            test_small_files_store_small;
          Alcotest.test_case "read-back of a just-written block skips the disk" `Quick
            test_read_back_hits;
          Alcotest.test_case "fresh-block write: one write, no read" `Quick
            test_fresh_block_write;
          Alcotest.test_case "evicted block: read-modify-write" `Quick
            test_evicted_block_read_modify_write;
          Alcotest.test_case "truncation drops freed blocks from the cache" `Quick
            test_truncate_invalidates;
          Alcotest.test_case "foreign signal survives a cache-miss read" `Quick
            test_foreign_signal_survives_read;
          Alcotest.test_case "pipes preserve order" `Quick test_pipes;
          Alcotest.test_case "empty pipe blocks the reader" `Quick
            test_pipe_blocks_reader;
        ] );
      ( "process",
        [
          Alcotest.test_case "spawn/wait/getpid tree" `Quick test_process_tree;
          Alcotest.test_case "sleep unloads, wakeup reloads" `Quick
            test_sleep_wakeup_unloads_thread;
          Alcotest.test_case "spawn with COW inheritance" `Quick test_spawn_inherit_cow;
          Alcotest.test_case "SIGSEGV terminates" `Quick test_sigsegv;
          Alcotest.test_case "stable pids across reloads" `Quick
            test_stable_pid_across_reloads;
          Alcotest.test_case "sbrk grows the data region" `Quick test_sbrk;
        ] );
      ( "policy",
        [
          Alcotest.test_case "swapping releases descriptors" `Quick test_swapping;
          Alcotest.test_case "exit frees blocks, keeps program text" `Quick
            test_exit_frees_blocks_keeps_text;
          Alcotest.test_case "exited processes' spaces are dropped" `Quick
            test_exit_drops_space;
          Alcotest.test_case "decay scheduler" `Quick test_decay_scheduler;
          Alcotest.test_case "nice lowers priority" `Quick test_nice_lowers_priority;
        ] );
    ]
