(* The quickstart UNIX session: boot the emulator, let init spawn [procs]
   children that each dirty eight data pages and compute, and reap them.
   `ckos run`, `checkpoint` and `restore` and the CH and O1 scenarios all
   drive this one workload; checkpoint/restore rely on it being
   deterministic for a given (cpus, procs, config). *)

open Cachekernel

(** Run the session to completion, or with [pause_us] stop at that
    simulated time and leave the rest to the caller. *)
let run ?(config = Config.default) ?pause_us ~cpus ~procs ~tracing () =
  let inst = Setup.instance ~config ~cpus () in
  if tracing then Trace.enable inst.Instance.trace;
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = Setup.ok (Unix_emu.Emulator.boot inst ~groups) in
  let child =
    Unix_emu.Syscall.program "job" (fun () ->
        let pid = Unix_emu.Syscall.getpid () in
        for i = 0 to 7 do
          Hw.Exec.mem_write (Unix_emu.Process.data_base + (i * Hw.Addr.page_size)) (pid + i)
        done;
        Hw.Exec.compute 100_000;
        0)
  in
  let init =
    Unix_emu.Syscall.program "init" (fun () ->
        let pids = List.init procs (fun _ -> Unix_emu.Syscall.spawn child) in
        List.iter (fun _ -> ignore (Unix_emu.Syscall.wait ())) pids;
        0)
  in
  ignore (Setup.ok (Unix_emu.Emulator.start_init emu init));
  ignore (Engine.run ?until_us:pause_us [| inst |]);
  (inst, emu)

(** Chaos configuration injecting at [rate] on every rate-driven site,
    plus an optional seeded partition plan; [None] when nothing is on. *)
let chaos ~rate ~seed ?partition_at ?(partition_for = 2_000.0) ?(partition_minority = 1)
    () =
  if rate <= 0.0 && partition_at = None then None
  else
    Some
      {
        Config.chaos_default with
        Config.chaos_seed = seed;
        partition_at_us = partition_at;
        partition_for_us = partition_for;
        partition_minority;
        io_fail = rate;
        io_delay = rate /. 2.;
        tier_fail = rate;
        tier_delay = rate /. 2.;
        signal_drop = rate;
        stale_rate = rate;
        forward_drop = rate;
        migrate_drop = rate;
      }
