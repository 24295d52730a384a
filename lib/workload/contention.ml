(* Resource-contention experiments: quota enforcement (R1), time-slicing
   fairness (R2) and descriptor exhaustion (X1). *)

open Cachekernel
open Aklib

(* -- R1: processor-percentage enforcement (section 4.3) -- *)

type quota_result = {
  rogue_percent : int; (* the rogue's allocation *)
  rogue_share : float; (* what it actually achieved *)
  victim_share : float;
  demotions : bool; (* did the Cache Kernel demote the rogue? *)
}

(** One well-behaved kernel and one rogue compute-bound kernel share a
    processor; the rogue is allocated [rogue_percent] and tries to take
    everything.  The Cache Kernel's accounting must cap it near its
    allocation ("prevents a rogue application kernel ... from disrupting
    the execution of a UNIX emulator running on the same configuration"). *)
let quota_enforcement ?(rogue_percent = 30) ?(rogue_priority = 10) ?(run_ms = 400) () =
  let inst = Setup.instance ~cpus:1 () in
  let srm = Setup.ok (Srm.Manager.boot inst ()) in
  let spin name percent priority =
    let prep = App_kernel.prepare inst ~name ~cpu_percent:percent () in
    let l = Setup.ok (Srm.Manager.launch srm prep ~group_count:4 ~cpu_percent:percent ()) in
    let body () =
      let rec loop () =
        Hw.Exec.compute 2000;
        ignore (Hw.Exec.trap Api.Ck_yield);
        loop ()
      in
      loop ()
    in
    ignore (Setup.ok (App_kernel.spawn_internal prep ~priority (Hw.Exec.unit_body body)));
    (prep, l)
  in
  let victim, _ = spin "victim" (100 - rogue_percent) 10 in
  let rogue, _ = spin "rogue" rogue_percent rogue_priority in
  ignore (Engine.run ~until_us:(float_of_int run_ms *. 1000.0) [| inst |]);
  let consumed ak =
    let total = ref 0 in
    Thread_lib.iter ak.App_kernel.threads (fun e ->
        match Thread_lib.oid_of ak.App_kernel.threads e.Thread_lib.id with
        | Some oid -> (
          match Instance.find_thread inst oid with
          | Some th -> total := !total + th.Thread_obj.consumed
          | None -> ())
        | None -> ());
    float_of_int !total
  in
  let cv = consumed victim and cr = consumed rogue in
  let busy = cv +. cr in
  let demoted =
    match Instance.find_kernel inst (App_kernel.oid rogue) with
    | Some k -> Array.exists Fun.id k.Kernel_obj.demoted
    | None -> false
  in
  {
    rogue_percent;
    rogue_share = (if busy > 0.0 then cr /. busy else 0.0);
    victim_share = (if busy > 0.0 then cv /. busy else 0.0);
    demotions = demoted;
  }

(* -- R2: time-sliced scheduling within one priority (section 4.3) -- *)

type fairness_result = {
  n : int;
  shares : float list; (* fraction of total CPU each thread obtained *)
  max_imbalance : float; (* max share / ideal share *)
  preemptions : int;
}

(** [n] same-priority compute-bound threads on one processor: time slicing
    must hand each a roughly equal share ("a real-time thread cannot
    excessively interfere with a real-time thread from another application
    executing at the same priority"). *)
let timeslice_fairness ?(n = 4) ?(run_ms = 200) () =
  let inst = Setup.instance ~cpus:1 () in
  let ak = Setup.first_kernel inst in
  let vsp = Setup.ok (Segment_mgr.create_space ak.App_kernel.mgr) in
  let body () =
    let rec loop () =
      Hw.Exec.compute 5000;
      loop ()
    in
    loop ()
  in
  let tids =
    List.init n (fun _ ->
        Setup.ok
          (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag
             ~priority:10 (Hw.Exec.unit_body body)))
  in
  ignore (Engine.run ~until_us:(float_of_int run_ms *. 1000.0) [| inst |]);
  let consumed =
    List.map
      (fun id ->
        match Thread_lib.oid_of ak.App_kernel.threads id with
        | Some oid -> (
          match Instance.find_thread inst oid with
          | Some th -> float_of_int th.Thread_obj.consumed
          | None -> 0.0)
        | None -> 0.0)
      tids
  in
  let total = List.fold_left ( +. ) 0.0 consumed in
  let shares = List.map (fun c -> if total > 0.0 then c /. total else 0.0) consumed in
  let ideal = 1.0 /. float_of_int n in
  {
    n;
    shares;
    max_imbalance = List.fold_left (fun acc s -> max acc (s /. ideal)) 0.0 shares;
    preemptions = inst.Instance.stats.Stats.preemptions;
  }

(* -- X1: descriptor exhaustion (section 7) -- *)

type exhaustion_result = {
  requested : int;
  capacity : int;
  loaded_ok : int;
  hard_errors : int;
  writebacks : int;
}

(** Load twice the thread-cache capacity of threads through the Cache
    Kernel: every load succeeds; earlier threads are written back to make
    room.  "The Cache Kernel always allows more objects to be loaded,
    writing back other objects to make space if necessary." *)
let ck_thread_overload ?(capacity = 32) () =
  let config = { Config.default with Config.thread_cache = capacity } in
  let inst = Setup.instance ~config ~cpus:1 () in
  let ak = Setup.first_kernel inst in
  let caller = App_kernel.oid ak in
  let space = Setup.ok (Api.load_space inst ~caller ~tag:99 ()) in
  let n = 2 * capacity in
  let okc = ref 0 and errc = ref 0 in
  for i = 1 to n do
    match
      Api.load_thread inst ~caller ~space ~priority:8 ~tag:i
        ~start:(Thread_obj.Fresh (fun () -> Hw.Exec.Unit_payload))
        ()
    with
    | Ok _ -> incr okc
    | Error _ -> incr errc
  done;
  {
    requested = n;
    capacity;
    loaded_ok = !okc;
    hard_errors = !errc;
    writebacks = inst.Instance.stats.Stats.threads.Stats.writebacks;
  }

(** The monolithic comparison: forking past NPROC returns hard EAGAIN. *)
let monolithic_overload ?(nproc = 32) () =
  let mono = Baseline.Monolithic.create ~nproc () in
  let n = 2 * nproc in
  let okc = ref 0 and errc = ref 0 in
  let body () =
    for _ = 1 to n do
      match Baseline.Monolithic.fork () with
      | Ok _ -> incr okc
      | Error `Again -> incr errc
    done;
    Hw.Exec.Unit_payload
  in
  ignore (Baseline.Runtime.spawn mono.Baseline.Monolithic.rt body);
  Baseline.Runtime.run mono.Baseline.Monolithic.rt;
  {
    requested = n;
    capacity = nproc;
    loaded_ok = !okc;
    hard_errors = !errc;
    writebacks = 0;
  }
