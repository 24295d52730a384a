(* Batched mapping loads and clustered fault prefetch.

   - qcheck equivalence: one [Api.load_mappings] call leaves the cache and
     the statistics in exactly the state N [Api.load_mapping] calls do, and
     costs strictly less simulated time for N >= 2 (equal for N = 1)
   - the batch arity limit: more than [mapping_batch_max] specs is rejected
     up front with nothing loaded
   - partial failure: a failing entry reports its index, everything before
     it stays loaded, everything after it stays unloaded
   - chaos: stale-identifier injection mid-batch recovers by retrying from
     the failure index, and the whole scenario replays deterministically;
     the prefetch path survives backing-store faults
   - prefetch stays inside the faulting region's bounds (checked against
     the Mapping_loaded trace events) and actually pays: the 1024-page
     sweep past a 256-mapping cache gets faster with prefetch on
   - scheduler: [pick] and [highest_ready_pri] agree with a FIFO model
     under random enqueue/stale-drop/block/pick interleavings, keep
     skipped (ineligible) entries in FIFO order and leave the queues
     exactly empty once drained *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let base = 0x40000000
let va_of slot = base + (slot * Hw.Addr.page_size)

(* A fresh single-CPU instance with one app kernel and one loaded space:
   the host-context fixture the table-2 micro-benchmarks also use. *)
let fixture ?config () =
  let inst = Workload.Setup.instance ?config ~cpus:1 () in
  let ak = Workload.Setup.first_kernel inst in
  let caller = App_kernel.oid ak in
  let space = ok (Api.load_space inst ~caller ~tag:1 ()) in
  (inst, caller, space)

let specs_of slots =
  List.mapi (fun i slot -> Api.mapping ~va:(va_of slot) ~pfn:(512 + i) ()) slots

(* -- qcheck: batch == N singles, but cheaper -- *)

let gen_slots =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    shuffle_l (List.init 64 Fun.id) >>= fun all ->
    return (List.filteri (fun i _ -> i < n) all))

let arb_slots = QCheck.make ~print:QCheck.Print.(list int) gen_slots

let qcheck_batch_equiv =
  QCheck.Test.make ~count:80 ~name:"load_mappings == N x load_mapping, but cheaper"
    arb_slots (fun slots ->
      let n = List.length slots in
      let specs = specs_of slots in
      (* batched *)
      let inst_b, caller_b, space_b = fixture () in
      let t0 = Workload.Setup.now_us inst_b in
      (match Api.load_mappings inst_b ~caller:caller_b ~space:space_b specs with
      | Ok k -> if k <> n then QCheck.Test.fail_reportf "batch loaded %d of %d" k n
      | Error (i, e) ->
        QCheck.Test.fail_reportf "batch failed at %d: %a" i Api.pp_error e);
      let batch_us = Workload.Setup.now_us inst_b -. t0 in
      (* singles *)
      let inst_s, caller_s, space_s = fixture () in
      let t0 = Workload.Setup.now_us inst_s in
      List.iter
        (fun spec -> ok (Api.load_mapping inst_s ~caller:caller_s ~space:space_s spec))
        specs;
      let singles_us = Workload.Setup.now_us inst_s -. t0 in
      (* identical statistics... *)
      let mb = inst_b.Instance.stats.Stats.mappings in
      let ms = inst_s.Instance.stats.Stats.mappings in
      if mb.Stats.loads <> ms.Stats.loads || mb.Stats.writebacks <> ms.Stats.writebacks
      then QCheck.Test.fail_reportf "stats diverge: %d/%d loads" mb.Stats.loads ms.Stats.loads;
      (* ...identical cache state: every va unloads the same way on both *)
      List.iter
        (fun slot ->
          let va = va_of slot in
          let b = Api.unload_mapping inst_b ~caller:caller_b ~space:space_b ~va in
          let s = Api.unload_mapping inst_s ~caller:caller_s ~space:space_s ~va in
          if Result.is_ok b <> Result.is_ok s then
            QCheck.Test.fail_reportf "cache state diverges at slot %d" slot)
        slots;
      (* ...and the batch is strictly cheaper for n >= 2, identical for 1 *)
      if n = 1 then batch_us = singles_us
      else batch_us < singles_us)

let test_batch_max_respected () =
  let inst, caller, space = fixture () in
  let max = Config.mapping_batch_max in
  let specs = specs_of (List.init (max + 1) Fun.id) in
  (match Api.load_mappings inst ~caller ~space specs with
  | Error (0, Api.Bad_argument _) -> ()
  | Error (i, e) -> Alcotest.failf "wrong rejection: index %d, %a" i Api.pp_error e
  | Ok _ -> Alcotest.fail "oversized batch accepted");
  Alcotest.(check int)
    "nothing loaded" 0 inst.Instance.stats.Stats.mappings.Stats.loads;
  (* exactly max is fine *)
  let specs = specs_of (List.init max Fun.id) in
  match Api.load_mappings inst ~caller ~space specs with
  | Ok n -> Alcotest.(check int) "full batch accepted" max n
  | Error (i, e) -> Alcotest.failf "full batch rejected at %d: %a" i Api.pp_error e

let test_partial_failure () =
  let inst, caller, space = fixture () in
  (* entry 3 repeats entry 1's page: Already_mapped at index 3 *)
  let slots = [ 0; 1; 2; 1; 4; 5 ] in
  let specs = specs_of slots in
  (match Api.load_mappings inst ~caller ~space specs with
  | Error (3, Api.Already_mapped) -> ()
  | Error (i, e) -> Alcotest.failf "expected (3, Already_mapped), got (%d, %a)" i Api.pp_error e
  | Ok _ -> Alcotest.fail "duplicate accepted");
  Alcotest.(check int) "prefix loaded" 3 inst.Instance.stats.Stats.mappings.Stats.loads;
  (* prefix unloads fine, suffix was never loaded *)
  List.iter (fun s -> ok (Api.unload_mapping inst ~caller ~space ~va:(va_of s))) [ 0; 1; 2 ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        "suffix not loaded" false
        (Result.is_ok (Api.unload_mapping inst ~caller ~space ~va:(va_of s))))
    [ 4; 5 ]

(* -- chaos: stale injection mid-batch, retry from the failure index -- *)

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

let chaos ?(io_fail = 0.0) ?(stale_rate = 0.0) () =
  Some { Config.chaos_default with Config.chaos_seed; io_fail; stale_rate }

(* One full run of the retry protocol; returns (stale retries, final us). *)
let stale_batch_run () =
  let config = { Config.default with Config.chaos = chaos ~stale_rate:0.4 () } in
  let inst, caller, space = fixture ~config () in
  let specs = specs_of (List.init 12 Fun.id) in
  let retries = ref 0 in
  let rec go space start specs =
    match Api.load_mappings inst ~caller ~space specs with
    | Ok k -> start + k
    | Error (i, Api.Stale_reference) when !retries < 32 ->
      (* the per-entry retry protocol: earlier entries stay loaded, resume
         at the failure index (the chaos site recovers on the next call) *)
      incr retries;
      let rest = List.filteri (fun j _ -> j >= i) specs in
      go space (start + i) rest
    | Error (i, e) -> Alcotest.failf "batch died at %d: %a" (start + i) Api.pp_error e
  in
  let loaded = go space 0 specs in
  Alcotest.(check int) "all entries loaded despite staleness" 12 loaded;
  Alcotest.(check int)
    "loads counted once each" 12 inst.Instance.stats.Stats.mappings.Stats.loads;
  let injected = Metrics.counter inst.Instance.metrics "inject.stale.load" in
  Alcotest.(check bool) "chaos actually injected" true (injected > 0);
  (!retries, Workload.Setup.now_us inst)

let test_stale_mid_batch () =
  let r1, us1 = stale_batch_run () in
  let r2, us2 = stale_batch_run () in
  Alcotest.(check int) "deterministic replay: same retries" r1 r2;
  Alcotest.(check (float 0.0)) "deterministic replay: same simulated time" us1 us2

(* -- prefetch -- *)

(* Build the page_point scenario by hand, but with the region covering only
   pages [24, 40) of a 64-page segment whose every page is resident: the
   out-of-region pages are maximal temptation for an out-of-bounds
   prefetch.  All Mapping_loaded trace events must stay inside the region,
   and with depth 7 the region's 16 pages must take far fewer than 16
   forwarded faults. *)
let test_prefetch_in_bounds () =
  let config = { Config.default with Config.fault_prefetch = 7 } in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  Trace.enable inst.Instance.trace;
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"bounds" ~pages:64 in
  let region_pages = 16 in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages:region_pages ~segment:seg ~seg_offset:24 ());
  for page = 0 to 63 do
    let pfn = Option.get (Frame_alloc.alloc ak.App_kernel.frames) in
    Segment.set_state seg page
      (Segment.In_memory
         (Segment.resident pfn))
  done;
  let body () =
    for p = 0 to region_pages - 1 do
      ignore (Hw.Exec.mem_read (va_of p))
    done
  in
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body body)));
  ignore (Engine.run [| inst |]);
  let lo = base and hi = base + (region_pages * Hw.Addr.page_size) in
  let loads = ref 0 in
  List.iter
    (fun e ->
      match e.Trace.event with
      | Trace.Mapping_loaded { va; _ } ->
        incr loads;
        if va < lo || va >= hi then
          Alcotest.failf "prefetch loaded va %#x outside region [%#x, %#x)" va lo hi
      | _ -> ())
    (Trace.entries inst.Instance.trace);
  Alcotest.(check int) "whole region loaded" region_pages !loads;
  Alcotest.(check bool)
    (Printf.sprintf "clustered: %d faults for %d pages"
       inst.Instance.stats.Stats.faults_forwarded region_pages)
    true
    (inst.Instance.stats.Stats.faults_forwarded * 2 <= region_pages)

let test_prefetch_effective () =
  let off = Workload.Sweeps.page_point ~mapping_capacity:256 1024 in
  let config = { Config.default with Config.fault_prefetch = 7 } in
  let on = Workload.Sweeps.page_point ~config ~mapping_capacity:256 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "us/access improves >= 15%% (%.2f -> %.2f)"
       off.Workload.Sweeps.us_per_access on.Workload.Sweeps.us_per_access)
    true
    (on.Workload.Sweeps.us_per_access <= 0.85 *. off.Workload.Sweeps.us_per_access);
  Alcotest.(check bool)
    (Printf.sprintf "faults drop proportionally (%d -> %d)" off.Workload.Sweeps.faults
       on.Workload.Sweeps.faults)
    true
    (on.Workload.Sweeps.faults * 4 <= off.Workload.Sweeps.faults)

(* Prefetch under backing-store chaos: the demand-paged UNIX session with
   clustered prefetch on and I/O + staleness injection must still complete,
   recover every injection, and replay deterministically. *)
let chaos_unix_run () =
  let config =
    {
      Config.default with
      Config.chaos = chaos ~io_fail:0.1 ~stale_rate:0.1 ();
      fault_prefetch = 4;
    }
  in
  let inst = Workload.Setup.instance ~config ~cpus:2 () in
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = ok (Unix_emu.Emulator.boot inst ~groups) in
  let child =
    Unix_emu.Syscall.program "job" (fun () ->
        let pid = Unix_emu.Syscall.getpid () in
        for i = 0 to 15 do
          Hw.Exec.mem_write (Unix_emu.Process.data_base + (i * Hw.Addr.page_size)) (pid + i)
        done;
        0)
  in
  let init =
    Unix_emu.Syscall.program "init" (fun () ->
        let pids = List.init 4 (fun _ -> Unix_emu.Syscall.spawn child) in
        List.iter (fun _ -> ignore (Unix_emu.Syscall.wait ())) pids;
        0)
  in
  ignore (ok (Unix_emu.Emulator.start_init emu init));
  ignore (Engine.run [| inst |]);
  (inst, emu)

let test_prefetch_under_chaos () =
  let inst, emu = chaos_unix_run () in
  Alcotest.(check int) "all processes ran" 5 emu.Unix_emu.Emulator.spawned;
  List.iter
    (fun site ->
      Alcotest.(check int)
        (site ^ " injections recovered")
        (Metrics.counter inst.Instance.metrics ("inject." ^ site))
        (Metrics.counter inst.Instance.metrics ("recover." ^ site)))
    [ "bstore.fail"; "stale.load" ];
  let inst2, _ = chaos_unix_run () in
  Alcotest.(check (float 0.0))
    "deterministic replay: same simulated time"
    (Workload.Setup.now_us inst)
    (Workload.Setup.now_us inst2)

(* -- scheduler: pick and highest_ready_pri against a FIFO model -- *)

type sched_op = Enq of int | Kill of int | Block of int | Pick | Highest

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (4, map (fun p -> Enq p) (int_range 0 9));
           (2, map (fun k -> Kill k) (int_bound 1000));
           (2, map (fun k -> Block k) (int_bound 1000));
           (3, return Pick);
           (1, return Highest);
         ]))

let print_op = function
  | Enq p -> Printf.sprintf "Enq %d" p
  | Kill k -> Printf.sprintf "Kill %d" k
  | Block k -> Printf.sprintf "Block %d" k
  | Pick -> "Pick"
  | Highest -> "Highest"

let arb_ops = QCheck.make ~print:QCheck.Print.(list print_op) gen_ops

(* Reference model: per-priority FIFO lists plus a table of the live
   entries and whether each is blocked (ineligible).  Stale entries are
   invisible to it and blocked ones are skipped in place; the scheduler
   must agree on every pick and highest_ready_pri result.  The drain
   picks what is eligible, then unblocks everything and picks the rest,
   so entries that were skipped must still be in FIFO order; after it
   the queues are exactly empty. *)
let qcheck_sched_model =
  QCheck.Test.make ~count:200 ~name:"scheduler walk matches a FIFO model" arb_ops
    (fun ops ->
      let prios = 10 in
      let s = Scheduler.create ~priorities:prios in
      let model = Array.make prios [] in
      let blocked = Hashtbl.create 32 in
      let next = ref 0 in
      let resolve oid = if Hashtbl.mem blocked oid then Some () else None in
      let eligible oid () = not (Hashtbl.find blocked oid) in
      let ready o = Hashtbl.find_opt blocked o = Some false in
      let model_pick () =
        let rec at p =
          if p < 0 then None
          else
            match List.find_opt ready model.(p) with
            | None -> at (p - 1)
            | Some o ->
              model.(p) <- List.filter (fun o' -> not (Oid.equal o' o)) model.(p);
              Some o
        in
        at (prios - 1)
      in
      let model_highest () =
        let rec at p =
          if p < 0 then -1 else if List.exists ready model.(p) then p else at (p - 1)
        in
        at (prios - 1)
      in
      (* the [k]-th live thread, in identifier order *)
      let nth_live k =
        match List.sort Oid.compare (Hashtbl.fold (fun o _ acc -> o :: acc) blocked []) with
        | [] -> None
        | live -> Some (List.nth live (k mod List.length live))
      in
      let step op =
        match op with
        | Enq p ->
          let oid = Oid.v ~kind:Oid.Thread ~slot:!next ~gen:1 in
          incr next;
          Hashtbl.replace blocked oid false;
          Scheduler.enqueue s ~priority:p oid;
          model.(p) <- model.(p) @ [ oid ];
          true
        | Kill k ->
          (* unload a live thread: its queue entry goes stale *)
          Option.iter (Hashtbl.remove blocked) (nth_live k);
          true
        | Block k ->
          Option.iter
            (fun o -> Hashtbl.replace blocked o (not (Hashtbl.find blocked o)))
            (nth_live k);
          true
        | Pick -> (
          match (Scheduler.pick s ~resolve ~eligible, model_pick ()) with
          | None, None -> true
          | Some (o, ()), Some o' -> Oid.equal o o'
          | Some _, None | None, Some _ -> false)
        | Highest -> Scheduler.highest_ready_pri s ~resolve ~eligible = model_highest ()
      in
      let agreed = List.for_all step ops in
      let rec drain () =
        match (Scheduler.pick s ~resolve ~eligible, model_pick ()) with
        | None, None -> true
        | Some (o, ()), Some o' -> Oid.equal o o' && drain ()
        | _ -> false
      in
      let drained = drain () in
      Hashtbl.filter_map_inplace (fun _ _ -> Some false) blocked;
      let unblocked = drain () in
      agreed && drained && unblocked && Scheduler.length s = 0)

let () =
  Alcotest.run "batch"
    [
      ( "batch",
        [
          QCheck_alcotest.to_alcotest qcheck_batch_equiv;
          Alcotest.test_case "batch_max respected" `Quick test_batch_max_respected;
          Alcotest.test_case "partial failure" `Quick test_partial_failure;
          Alcotest.test_case "stale mid-batch recovers" `Quick test_stale_mid_batch;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "stays in region bounds" `Quick test_prefetch_in_bounds;
          Alcotest.test_case "speeds up the 1024-page sweep" `Slow test_prefetch_effective;
          Alcotest.test_case "survives backing-store chaos" `Quick test_prefetch_under_chaos;
        ] );
      ("scheduler", [ QCheck_alcotest.to_alcotest qcheck_sched_model ]);
    ]
