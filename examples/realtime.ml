(* Real-time embedded configuration (sections 3, 4.3).

   A single application kernel runs as the first kernel with full control:
   a real-time control thread is locked in the Cache Kernel at high
   priority and must meet a periodic deadline while a batch kernel launched
   by the resource manager tries to monopolise the machine.  The priority
   cap imposed on the batch kernel (set_max_priority) and time-sliced
   scheduling keep the real-time latency stable.

   Run with: dune exec examples/realtime.exe *)

open Cachekernel
open Aklib

let ok = function Ok v -> v | Error e -> Fmt.failwith "api error: %a" Api.pp_error e

let period_us = 5_000.0
let iterations = 40

let () =
  let inst = Workload.Setup.instance ~cpus:1 () in
  let srm = ok (Srm.Manager.boot inst ()) in

  (* The batch kernel: compute-bound, would love priority 31. *)
  let batch = App_kernel.prepare inst ~name:"batch" ~max_priority:12 () in
  let _launched =
    ok (Srm.Manager.launch srm batch ~group_count:4 ~cpu_percent:80 ())
  in
  let spin () =
    let rec loop () =
      Hw.Exec.compute 4000;
      loop ()
    in
    loop ()
  in
  ignore (ok (App_kernel.spawn_internal batch ~priority:12 (Hw.Exec.unit_body spin)));

  (* The real-time thread lives in the SRM's kernel (the "first kernel has
     full control" single-application configuration): locked, priority 30,
     woken by a periodic timer signal. *)
  let latencies = ref [] in
  let timer_va = 0x7C000000 in
  let rt_tid = ref None in
  let rt_body () =
    for _ = 1 to iterations do
      (* arm the next period *)
      let due =
        Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node) +. period_us
      in
      Hw.Mpm.after inst.Instance.node ~delay:(Hw.Cost.cycles_of_us period_us) (fun () ->
          match !rt_tid with
          | Some oid -> (
            match Instance.find_thread inst oid with
            | Some th -> Signals.post_signal inst th ~va:timer_va
            | None -> ())
          | None -> ());
      let rec await () =
        match Hw.Exec.trap Api.Ck_wait_signal with
        | Api.Ck_signal va when va = timer_va -> ()
        | _ -> await ()
      in
      await ();
      let woke = Hw.Exec.time_us () in
      latencies := (woke -. due) :: !latencies;
      (* the control computation *)
      Hw.Exec.compute 2000
    done
  in
  let tid =
    ok (App_kernel.spawn_internal srm.Srm.Manager.ak ~priority:30 ~lock:true
          (Hw.Exec.unit_body rt_body))
  in
  rt_tid := Thread_lib.oid_of srm.Srm.Manager.ak.App_kernel.threads tid;
  ignore (Engine.run ~until_us:(period_us *. float_of_int (iterations + 4)) [| inst |]);
  let ls = List.rev !latencies in
  let n = List.length ls in
  let avg = List.fold_left ( +. ) 0.0 ls /. float_of_int (max 1 n) in
  let worst = List.fold_left max 0.0 ls in
  Fmt.pr "real-time periods completed: %d/%d@." n iterations;
  Fmt.pr "wakeup latency: avg %.1f us, worst %.1f us (period %.0f us)@." avg worst
    period_us;
  Fmt.pr "batch kernel interference contained: %s@."
    (if worst < period_us /. 2.0 then "yes" else "NO");
  let preempt = inst.Instance.stats.Stats.preemptions in
  Fmt.pr "preemptions of the batch spinner: %d@." preempt
