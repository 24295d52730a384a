(* The UNIX emulator: an operating system kernel in user mode.

   Implements UNIX-like process services on the Cache Kernel exactly the
   way section 2 describes an emulator would: it keeps its own process
   table with stable pids (Cache Kernel thread/space identifiers change
   across reloads), executes a new process by loading an address space and
   a thread, pages program text in from backing store on demand, puts
   sleeping processes off-processor by *unloading* their threads and
   reloads them on wakeup, and marks swapped processes so they consume no
   Cache Kernel descriptors. *)

open Cachekernel
open Aklib

type t = {
  ak : App_kernel.t;
  procs : (int, Process.t) Hashtbl.t;
  by_tlid : (int, int) Hashtbl.t; (* thread-library id -> pid *)
  mutable next_pid : int;
  console : Buffer.t;
  fs : Fs.t; (* the file system: emulator state, not Cache Kernel state *)
  mutable next_pipe : int;
  mutable spawned : int;
  mutable exited : int;
  mutable syscalls : int;
}

let console t = Buffer.contents t.console
let procs t = Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
let proc t pid = Hashtbl.find_opt t.procs pid

let proc_of_thread t thread_oid =
  match Instance.find_thread t.ak.App_kernel.inst thread_oid with
  | None -> None
  | Some th -> (
    match Hashtbl.find_opt t.by_tlid th.Thread_obj.tag with
    | Some pid -> proc t pid
    | None -> None)

(* Build a deterministic "program image" so text pages have recognisable
   contents coming back from backing store. *)
let image_byte ~page ~off = (page * 37) + off land 0xFF

(* exec: read the program image from its file-system file; text pages go
   On_disk against the file's own blocks, and demand paging brings them
   in.  Processes running the same program share the image blocks: they
   belong to the file, and text is read-only, so paging never writes or
   frees them. *)
let make_text_segment t (prog : Syscall.program) =
  let seg =
    Segment_mgr.create_segment t.ak.App_kernel.mgr
      ~name:(prog.Syscall.name ^ ".text")
      ~pages:prog.Syscall.text_pages
  in
  seg.Segment.file_backed <- true;
  let path = "/bin/" ^ prog.Syscall.name in
  let file =
    match Fs.lookup t.fs path with
    | Some f -> f
    | None ->
      let f = Fs.create_file t.fs path in
      for page = 0 to prog.Syscall.text_pages - 1 do
        let data =
          Bytes.init Hw.Addr.page_size (fun off ->
              Char.chr (image_byte ~page ~off land 0xFF))
        in
        Fs.write_now t.fs f ~offset:(page * Hw.Addr.page_size) data
      done;
      f
  in
  for page = 0 to prog.Syscall.text_pages - 1 do
    Segment.set_state seg page (Segment.On_disk (Fs.block_of t.fs file page))
  done;
  seg

(* The thread body wrapping a program's main: a normal return becomes
   exit(code). *)
let body_of t prog =
  ignore t;
  fun () ->
    let code = prog.Syscall.main () in
    Syscall.exit code

(** Create (and start) a process running [prog].  With [inherit_from], the
    child's data segment is a copy-on-write image of the parent's — the
    fork side of spawn. *)
let create_process t ?(priority = 12) ~parent ?(inherit_from : Process.t option)
    (prog : Syscall.program) =
  let mgr = t.ak.App_kernel.mgr in
  match Segment_mgr.create_space mgr with
  | Error e -> Error e
  | Ok vspace -> (
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    let text = make_text_segment t prog in
    let data_pages =
      match inherit_from with
      | Some p -> max prog.Syscall.data_pages p.Process.brk_pages
      | None -> prog.Syscall.data_pages
    in
    let data =
      Segment_mgr.create_segment mgr ~name:(prog.Syscall.name ^ ".data")
        ~pages:Process.max_data_pages
    in
    (match inherit_from with
    | Some p ->
      for page = 0 to p.Process.brk_pages - 1 do
        Segment.set_state data page (Segment.Cow_of (p.Process.data, page))
      done
    | None -> ());
    let stack =
      Segment_mgr.create_segment mgr ~name:(prog.Syscall.name ^ ".stack")
        ~pages:Process.stack_pages
    in
    Segment_mgr.attach_region mgr vspace
      (Region.v ~prot:Region.Ro ~va_start:Process.text_base
         ~pages:prog.Syscall.text_pages ~segment:text ~seg_offset:0 ());
    Segment_mgr.attach_region mgr vspace
      (Region.v ~va_start:Process.data_base ~pages:data_pages ~segment:data
         ~seg_offset:0 ());
    Segment_mgr.attach_region mgr vspace
      (Region.v ~va_start:Process.stack_base ~pages:Process.stack_pages ~segment:stack
         ~seg_offset:0 ());
    match
      Thread_lib.spawn t.ak.App_kernel.threads ~space_tag:vspace.Segment_mgr.tag
        ~priority (body_of t prog)
    with
    | Error e -> Error e
    | Ok tlid ->
      let p =
        {
          Process.pid;
          parent;
          program_name = prog.Syscall.name;
          vspace;
          thread = tlid;
          text;
          data;
          stack;
          brk_pages = data_pages;
          state = Process.Runnable;
          swapped_from = None;
          woken = false;
          children = [];
          nice = 0;
          p_cpu = 0;
          last_consumed = 0;
          segv_handler = None;
          exit_code = None;
          fds = Hashtbl.create 8;
          next_fd = 3; (* 0-2 reserved for the console convention *)
        }
      in
      Hashtbl.replace t.procs pid p;
      Hashtbl.replace t.by_tlid tlid pid;
      t.spawned <- t.spawned + 1;
      (match proc t parent with
      | Some pp -> pp.Process.children <- pid :: pp.Process.children
      | None -> ());
      Ok p)

(* Release a dead process's memory: unmap and free frames, free the blocks
   its pages own (text blocks belong to the program's file). *)
let destroy_memory t (p : Process.t) =
  let mgr = t.ak.App_kernel.mgr in
  let store = t.ak.App_kernel.store in
  let release (seg : Segment.t) =
    Segment.iter_resident seg (fun _page r ->
        Segment_mgr.unmap_residents mgr r;
        Frame_alloc.free t.ak.App_kernel.frames r.Segment.pfn);
    if not seg.Segment.file_backed then
      Hashtbl.iter
        (fun _ -> function
          | Segment.In_memory { Segment.backing = Some block; _ } | Segment.On_disk block ->
            Backing_store.free_block store block
          | _ -> ())
        seg.Segment.table;
    Hashtbl.reset seg.Segment.table;
    seg.Segment.resident_count <- 0
  in
  release p.Process.text;
  release p.Process.data;
  release p.Process.stack;
  if p.Process.vspace.Segment_mgr.loaded then
    ignore
      (Api.unload_space t.ak.App_kernel.inst
         ~caller:(App_kernel.oid t.ak)
         p.Process.vspace.Segment_mgr.oid)

(* Sleep/wakeup: "a thread is unloaded when it begins to sleep ... It is
   then reloaded when a wakeup call is issued on this event." *)

let put_to_sleep t (p : Process.t) event =
  p.Process.state <- Process.Sleeping event;
  ignore (Thread_lib.deschedule t.ak.App_kernel.threads p.Process.thread)

let wake_process t (p : Process.t) =
  match p.Process.state with
  | Process.Sleeping _ ->
    p.Process.state <- Process.Runnable;
    p.Process.woken <- true;
    ignore (Thread_lib.schedule t.ak.App_kernel.threads p.Process.thread)
  | _ -> ()

let wakeup_event t event =
  Hashtbl.iter
    (fun _ (p : Process.t) ->
      match p.Process.state with
      | Process.Sleeping e when e = event -> wake_process t p
      | _ -> ())
    t.procs

(* Process termination. *)
let do_exit t (p : Process.t) code =
  p.Process.state <- Process.Zombie code;
  p.Process.exit_code <- Some code;
  t.exited <- t.exited + 1;
  destroy_memory t p;
  (* wake a parent sleeping in wait() *)
  match proc t p.Process.parent with
  | Some parent -> (
    match parent.Process.state with
    | Process.Sleeping e when e = Printf.sprintf "child-exit:%d" parent.Process.pid ->
      wake_process t parent
    | _ -> ())
  | None -> ()

(** Terminate [pid] as if by an uncatchable signal. *)
let kill_process t (p : Process.t) ~code =
  (match p.Process.state with
  | Process.Zombie _ -> ()
  | _ ->
    do_exit t p code;
    ignore (Thread_lib.deschedule t.ak.App_kernel.threads p.Process.thread));
  ()

(* wait(): reap a zombie child, or sleep until one appears. *)
let do_wait t (p : Process.t) =
  let zombie =
    List.find_map
      (fun cpid ->
        match proc t cpid with
        | Some c when Process.is_zombie c -> Some c
        | _ -> None)
      p.Process.children
  in
  match zombie with
  | Some c ->
    let code = Option.value c.Process.exit_code ~default:(-1) in
    p.Process.children <- List.filter (fun x -> x <> c.Process.pid) p.Process.children;
    (* the zombie's threads are gone now, so its space can be unloaded *)
    if c.Process.vspace.Segment_mgr.loaded then
      ignore
        (Api.unload_space t.ak.App_kernel.inst
           ~caller:(App_kernel.oid t.ak)
           c.Process.vspace.Segment_mgr.oid);
    Hashtbl.remove t.procs c.Process.pid;
    Hashtbl.remove t.by_tlid c.Process.thread;
    Syscall.Ret_pair (c.Process.pid, code)
  | None ->
    if p.Process.children = [] then Syscall.Ret_error "no children"
    else begin
      put_to_sleep t p (Printf.sprintf "child-exit:%d" p.Process.pid);
      Syscall.Ret_would_block
    end

(* sbrk: replace the data region with a wider window. *)
let do_sbrk _t (p : Process.t) bytes =
  let old_brk = Process.data_base + (p.Process.brk_pages * Hw.Addr.page_size) in
  if bytes > 0 then begin
    let add_pages = (bytes + Hw.Addr.page_size - 1) / Hw.Addr.page_size in
    let new_pages = min Process.max_data_pages (p.Process.brk_pages + add_pages) in
    let vsp = p.Process.vspace in
    vsp.Segment_mgr.regions <-
      List.map
        (fun (r : Region.t) ->
          if r.Region.segment == p.Process.data then
            Region.v ~prot:r.Region.prot ~va_start:r.Region.va_start ~pages:new_pages
              ~segment:p.Process.data ~seg_offset:0 ()
          else r)
        vsp.Segment_mgr.regions;
    p.Process.brk_pages <- new_pages
  end;
  Syscall.Ret_int old_brk

(* -- files and pipes -- *)

let alloc_fd (p : Process.t) st =
  let fd = p.Process.next_fd in
  p.Process.next_fd <- fd + 1;
  Hashtbl.replace p.Process.fds fd st;
  fd

let pipe_event (pipe : Process.pipe) = Printf.sprintf "pipe:%d" pipe.Process.pipe_id

let do_pipe t (p : Process.t) =
  t.next_pipe <- t.next_pipe + 1;
  let pipe =
    { Process.pipe_id = t.next_pipe; buf = Buffer.create 64; capacity = 4096 }
  in
  let r = alloc_fd p (Process.Pipe_read_end pipe) in
  let w = alloc_fd p (Process.Pipe_write_end pipe) in
  Syscall.Ret_pair (r, w)

let do_read t (p : Process.t) thread_oid fd len =
  match Hashtbl.find_opt p.Process.fds fd with
  | None -> Syscall.Ret_error "bad fd"
  | Some (Process.File f) ->
    let data = Fs.read t.fs f.file ~thread:thread_oid ~offset:f.pos ~len in
    f.pos <- f.pos + Bytes.length data;
    Syscall.Ret_str (Bytes.to_string data)
  | Some (Process.Pipe_write_end _) -> Syscall.Ret_error "write end"
  | Some (Process.Pipe_read_end pipe) ->
    let avail = Buffer.length pipe.Process.buf in
    if avail = 0 then begin
      (* sleep until a writer rings the pipe's event; the stub retries *)
      p.Process.woken <- false;
      put_to_sleep t p (pipe_event pipe);
      Syscall.Ret_would_block
    end
    else begin
      let n = min len avail in
      let s = Buffer.sub pipe.Process.buf 0 n in
      let rest = Buffer.sub pipe.Process.buf n (avail - n) in
      Buffer.clear pipe.Process.buf;
      Buffer.add_string pipe.Process.buf rest;
      Instance.charge t.ak.App_kernel.inst (3 * ((n + 3) / 4)) (* copyout *);
      Syscall.Ret_str s
    end

let do_write t (p : Process.t) thread_oid fd s =
  match Hashtbl.find_opt p.Process.fds fd with
  | None -> Syscall.Ret_error "bad fd"
  | Some (Process.File f) ->
    Fs.write t.fs f.file ~thread:thread_oid ~offset:f.pos
      (Bytes.of_string s);
    f.pos <- f.pos + String.length s;
    Syscall.Ret_int (String.length s)
  | Some (Process.Pipe_read_end _) -> Syscall.Ret_error "read end"
  | Some (Process.Pipe_write_end pipe) ->
    let n =
      min (String.length s) (pipe.Process.capacity - Buffer.length pipe.Process.buf)
    in
    Buffer.add_string pipe.Process.buf (String.sub s 0 n);
    Instance.charge t.ak.App_kernel.inst (3 * ((n + 3) / 4)) (* copyin *);
    wakeup_event t (pipe_event pipe);
    Syscall.Ret_int n

(* The trap handler: decode and execute one system call.  Runs in the
   trapping thread's application-kernel frame, so it may block (disk) and
   may unload the very thread it is serving. *)
let dispatch t thread_oid (payload : Hw.Exec.payload) : Hw.Exec.payload =
  t.syscalls <- t.syscalls + 1;
  Instance.charge t.ak.App_kernel.inst 300 (* syscall decode and table work *);
  match proc_of_thread t thread_oid with
  | None -> Syscall.Ret_error "unknown process"
  | Some p -> (
    match payload with
    | Syscall.Sys_getpid -> Syscall.Ret_int p.Process.pid
    | Syscall.Sys_getppid -> Syscall.Ret_int p.Process.parent
    | Syscall.Sys_spawn (prog, inherit_memory) -> (
      let inherit_from = if inherit_memory then Some p else None in
      match create_process t ~parent:p.Process.pid ?inherit_from prog with
      | Ok child -> Syscall.Ret_int child.Process.pid
      | Error e -> Syscall.Ret_error (Fmt.str "%a" Api.pp_error e))
    | Syscall.Sys_exit code ->
      do_exit t p code;
      Syscall.Ret_unit
    | Syscall.Sys_wait -> do_wait t p
    | Syscall.Sys_sbrk bytes -> do_sbrk t p bytes
    | Syscall.Sys_sleep event ->
      if p.Process.woken then begin
        p.Process.woken <- false;
        Syscall.Ret_unit
      end
      else begin
        put_to_sleep t p event;
        Syscall.Ret_would_block
      end
    | Syscall.Sys_wakeup event ->
      wakeup_event t event;
      Syscall.Ret_unit
    | Syscall.Sys_write s ->
      Buffer.add_string t.console s;
      Instance.charge t.ak.App_kernel.inst (String.length s * 2);
      Syscall.Ret_unit
    | Syscall.Sys_kill (pid, signal) -> (
      match proc t pid with
      | None -> Syscall.Ret_error "no such process"
      | Some target ->
        if signal = Syscall.sigkill || signal = Syscall.sigsegv then
          kill_process t target ~code:(128 + signal)
        else ();
        Syscall.Ret_unit)
    | Syscall.Sys_nice n ->
      p.Process.nice <- max (-20) (min 19 n);
      Syscall.Ret_unit
    | Syscall.Sys_creat name ->
      let file = Fs.create_file t.fs name in
      Syscall.Ret_int (alloc_fd p (Process.File { file; pos = 0 }))
    | Syscall.Sys_open name -> (
      match Fs.lookup t.fs name with
      | Some file -> Syscall.Ret_int (alloc_fd p (Process.File { file; pos = 0 }))
      | None -> Syscall.Ret_error "no such file")
    | Syscall.Sys_close fd ->
      Hashtbl.remove p.Process.fds fd;
      Syscall.Ret_unit
    | Syscall.Sys_read_file (fd, len) -> do_read t p thread_oid fd len
    | Syscall.Sys_write_file (fd, s) -> do_write t p thread_oid fd s
    | Syscall.Sys_pipe -> do_pipe t p
    | other -> other (* unknown: echo, like the default handler *))

(* SEGV policy: run the registered handler if any, else terminate the
   process — "alternatively, it may send a UNIX-style SEGV signal". *)
let on_segv t (mgr : Segment_mgr.t) (ctx : Kernel_obj.fault_ctx) =
  Instance.count mgr.Segment_mgr.env.Segment_mgr.inst "emu.segv";
  match proc_of_thread t ctx.Kernel_obj.thread with
  | None -> ()
  | Some p -> (
    match p.Process.segv_handler with
    | Some handler -> (
      match handler () with
      | `Retry -> () (* handler repaired the situation; access retries *)
      | `Die -> kill_process t p ~code:(128 + Syscall.sigsegv))
    | None ->
      Logs.info (fun m ->
          m "unix: SIGSEGV pid %d at %a" p.Process.pid Hw.Addr.pp_addr ctx.Kernel_obj.va);
      kill_process t p ~code:(128 + Syscall.sigsegv))

(** Build the emulator on an application-kernel skeleton.  [boot_first]
    makes it the first kernel (single-OS configuration); under the SRM use
    {!App_kernel.prepare} via {!prepare}. *)
let of_app_kernel ak =
  let t =
    {
      ak;
      procs = Hashtbl.create 64;
      by_tlid = Hashtbl.create 64;
      next_pid = 1;
      console = Buffer.create 256;
      fs = Fs.create ~inst:ak.App_kernel.inst ~disk:ak.App_kernel.disk;
      next_pipe = 0;
      spawned = 0;
      exited = 0;
      syscalls = 0;
    }
  in
  ak.App_kernel.trap_dispatch <- (fun _ak thread p -> dispatch t thread p);
  ak.App_kernel.mgr.Segment_mgr.on_segv <- (fun mgr ctx -> on_segv t mgr ctx);
  t

let boot inst ~groups =
  match App_kernel.boot_first inst ~name:"unix-emulator" ~groups () with
  | Error e -> Error e
  | Ok ak -> Ok (of_app_kernel ak)

(** Launch the first user process (init). *)
let start_init t prog = create_process t ~parent:0 prog
