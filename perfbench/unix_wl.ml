(* [unix]: trap forwarding, dispatch and thread-cache churn under the UNIX
   emulator.

   [Unix_emu.Emulator] boots as the first kernel of a 2-CPU node whose
   thread cache holds 64 descriptors (the C1 capacity).  [init] spawns
   seeded waves of children; some inherit init's data segment
   copy-on-write.  Each child naps until the next clock tick, then runs its
   seeded syscall script (op = one system call returned) and exits with a
   seeded code; init reaps the wave, checks every exit code and reads back
   the result file each child left.  Children check their own file and pipe
   contents, break values and copy-on-write data as they go.

   A wave stays below the thread-cache capacity: a thread displaced while
   blocked on an I/O completion signal never wakes again (with 80-child
   waves, 51 of 80 processes hung), which README.md records as a finding.
   The clock tick wakes nappers, and reloads any displaced runnable
   process, only into free descriptors. *)

open Cachekernel
open Unix_emu

type cfg = { waves : int; per_wave : int; thread_cache : int; slice_us : float }

let cfg = { waves = 160; per_wave = 48; thread_cache = 64; slice_us = 5_000.0 }

let inputs seed = Gen.unix ~seed ~waves:cfg.waves ~per_wave:cfg.per_wave

let page = Hw.Addr.page_size

(* the word init leaves in each of its data pages, inherited copy-on-write *)
let init_word p = 0x5EED0000 + p

(** Host-side tallies of one run, updated by the simulated programs'
    closures; none of it feeds back into the simulation. *)
type st = {
  watch : Spans.watch option;  (** traced runs only *)
  mutable ops : int;
  mutable errors : int;  (** stubs that returned an error value *)
  mutable bad : int;  (** in-process content checks that failed *)
  mutable checks : int;
}

(** One system call through a stub, counted as an op.  When tracing it is
    also spanned, unless it [blocks] by design: sleep, wait and yield last
    until another process acts, which says nothing of what a call costs. *)
let sys ?(blocks = false) st ~thread f =
  let r = match st.watch with Some w when not blocks -> Spans.op w ~thread f | _ -> f () in
  st.ops <- st.ops + 1;
  r

(** A data-page access: spanned like a system call when tracing (these
    are the spans a forwarded fault tags), but not an op. *)
let mem st ~thread f = match st.watch with Some w -> Spans.op w ~thread f | None -> f ()

let expect st ok =
  st.checks <- st.checks + 1;
  if not ok then st.bad <- st.bad + 1

let err st ok = if not ok then st.errors <- st.errors + 1

(* napping processes sleep on their own event; the clock tick at every
   engine-slice boundary wakes them all *)
let nap_event id = Printf.sprintf "nap.%d" id

let result_file ~wave ~k = Printf.sprintf "/tmp/r.%d.%d" wave k
let result_text ~wave ~k code = Printf.sprintf "child %d.%d exit %d" wave k code

let child_main st ~init_pid ~wave ~k (c : Gen.child) () =
  let id = (wave * cfg.per_wave) + k in
  let thread = 1 + id in
  let sys ?blocks f = sys ?blocks st ~thread f in
  let mem f = mem st ~thread f in
  let bad0 = st.bad + st.errors in
  let pid = sys Syscall.getpid in
  err st (pid > 0);
  (* copy-on-write children see init's words before writing their own *)
  if c.Gen.cow then expect st (mem (fun () -> Hw.Exec.mem_read Process.data_base) = init_word 0);
  let step = function
    | Gen.Getpid -> expect st (sys Syscall.getpid = pid)
    | Gen.Getppid -> expect st (sys Syscall.getppid = init_pid)
    | Gen.Sbrk n -> err st (sys (fun () -> Syscall.sbrk (n * page)) >= Process.data_base)
    | Gen.Touch n ->
      for p = 0 to n - 1 do
        mem (fun () -> Hw.Exec.mem_write (Process.data_base + (p * page)) ((id lsl 8) + p))
      done;
      for p = 0 to n - 1 do
        expect st (mem (fun () -> Hw.Exec.mem_read (Process.data_base + (p * page))) = (id lsl 8) + p)
      done
    | Gen.File s ->
      let name = Printf.sprintf "/tmp/f.%d" id in
      let fd = sys (fun () -> Syscall.creat name) in
      err st (fd >= 0);
      err st (sys (fun () -> Syscall.write_file fd s) = String.length s);
      sys (fun () -> Syscall.close fd);
      let fd = sys (fun () -> Syscall.open_file name) in
      err st (fd >= 0);
      expect st (sys (fun () -> Syscall.read_file fd (String.length s)) = s);
      sys (fun () -> Syscall.close fd)
    | Gen.Pipe s ->
      let r, w = sys Syscall.pipe in
      err st (r >= 0 && w >= 0);
      err st (sys (fun () -> Syscall.write_file w s) = String.length s);
      expect st (sys (fun () -> Syscall.read_file r (String.length s)) = s);
      sys (fun () -> Syscall.close r);
      sys (fun () -> Syscall.close w)
    | Gen.Nap -> sys ~blocks:true (fun () -> Syscall.sleep (nap_event id))
    | Gen.Yield -> sys ~blocks:true Syscall.yield
  in
  List.iter step c.Gen.steps;
  let code = if st.bad + st.errors = bad0 then c.Gen.exit_code else 200 in
  let fd = sys (fun () -> Syscall.creat (result_file ~wave ~k)) in
  err st (fd >= 0);
  ignore (sys (fun () -> Syscall.write_file fd (result_text ~wave ~k code)));
  sys (fun () -> Syscall.close fd);
  code

let init_main st (plan : Gen.unix) () =
  let sys ?blocks f = sys ?blocks st ~thread:0 f in
  let init_pid = sys Syscall.getpid in
  for p = 0 to plan.Gen.init_pages - 1 do
    Hw.Exec.mem_write (Process.data_base + (p * page)) (init_word p)
  done;
  Array.iteri
    (fun wave children ->
      let by_pid = Hashtbl.create 128 in
      Array.iteri
        (fun k (c : Gen.child) ->
          let prog = Syscall.program "child" (child_main st ~init_pid ~wave ~k c) in
          let pid = sys (fun () -> Syscall.spawn ~inherit_memory:c.Gen.cow prog) in
          err st (pid > 0);
          Hashtbl.replace by_pid pid (k, c))
        children;
      Array.iter
        (fun _ ->
          let pid, code = sys ~blocks:true Syscall.wait in
          match Hashtbl.find_opt by_pid pid with
          | None -> err st false
          | Some (k, c) ->
            expect st (code = c.Gen.exit_code);
            let fd = sys (fun () -> Syscall.open_file (result_file ~wave ~k)) in
            err st (fd >= 0);
            let want = result_text ~wave ~k c.Gen.exit_code in
            expect st (sys (fun () -> Syscall.read_file fd (String.length want)) = want);
            sys (fun () -> Syscall.close fd))
        children)
    plan.Gen.waves;
  0

(** The clock tick at every slice boundary: wake napping processes and
    reload processes whose threads the full thread cache displaced; true
    if there was any such process. *)
let tick (emu : Emulator.t) =
  let ak = emu.Emulator.ak in
  let cache = ak.Aklib.App_kernel.inst.Instance.threads in
  (* reload only into free descriptors: reloading into a full cache would
     displace another runnable process, which this pass would reload next *)
  let free () = Caches.Thread_cache.capacity cache - Caches.Thread_cache.live cache in
  let threads = ak.Aklib.App_kernel.threads in
  Hashtbl.fold (fun pid (p : Process.t) acc -> (pid, p) :: acc) emu.Emulator.procs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left
       (fun any (_, (p : Process.t)) ->
         match (p.Process.state, Aklib.Thread_lib.entry threads p.Process.thread) with
         | Process.Sleeping ev, _ when String.starts_with ~prefix:"nap." ev ->
           if free () > 0 then Emulator.wakeup_event emu ev;
           true
         | Process.Runnable, Some { Aklib.Thread_lib.run = Aklib.Thread_lib.Unloaded (Some _); _ } ->
           if free () > 0 then ignore (Aklib.Thread_lib.schedule threads p.Process.thread);
           true
         | _ -> any)
       false

let run ~seed ~traced =
  let c = Common.clock () in
  let plan = Common.phase c "inputs" (fun () -> inputs seed) in
  let inst =
    Common.phase c "machine" (fun () ->
        Workload.Setup.instance
          ~config:{ Config.default with Config.thread_cache = cfg.thread_cache }
          ~cpus:2 ())
  in
  let emu =
    Common.phase c "boot" (fun () ->
        let groups = List.init (Instance.n_groups inst) Fun.id in
        Workload.Setup.ok (Emulator.boot inst ~groups))
  in
  let st =
    {
      watch = (if traced then Some (Spans.watch ~node:0 inst) else None);
      ops = 0;
      errors = 0;
      bad = 0;
      checks = 0;
    }
  in
  Common.phase c "spawn" (fun () ->
      ignore
        (Workload.Setup.ok
           (Emulator.start_init emu (Syscall.program ~data_pages:plan.Gen.init_pages "init" (init_main st plan)))));
  let setup_s = Common.since c in
  let sim0 = Workload.Setup.now_us inst in
  let run_s =
    Common.drive ~slice_us:cfg.slice_us ~between:(fun () -> tick emu) [| inst |]
  in
  let sim_elapsed = Workload.Setup.now_us inst -. sim0 in
  let insts = [| inst |] in
  let ak = emu.Emulator.ak in
  let tally = Pct.tally () in
  tally.Pct.ops <- st.ops;
  tally.Pct.op_errors <- st.errors;
  tally.Pct.checks <- st.checks;
  tally.Pct.check_failures <- st.bad;
  (* every child must have been reaped: a stuck process is a failure *)
  let children = cfg.waves * cfg.per_wave in
  Pct.check tally (emu.Emulator.exited = children + 1);
  let violations = (Common.audit insts).(0) in
  Pct.check tally (violations = 0);
  {
    Common.ops = st.ops;
    tally;
    findings = [];
    setup = c.Common.phases;
    setup_s;
    run_s;
    sim =
      (("sim_us_per_op", sim_elapsed /. float_of_int (max 1 st.ops)) :: Common.fault_latency insts)
      @ Common.trap_latency insts;
    counts =
      Common.core_counts ~ops:st.ops ~insts ~aks:[ ak ]
      @ [
          ("unix.syscalls", float_of_int emu.Emulator.syscalls);
          ("unix.spawned", float_of_int emu.Emulator.spawned);
          ("unix.exited", float_of_int emu.Emulator.exited);
          ("unix.syscall_errors", float_of_int st.errors);
          ("core.audit_violations", float_of_int violations);
        ];
    steps = Common.counter "engine.steps" insts;
    images = Common.capture_images ~traced [ (0, ak) ];
  }
