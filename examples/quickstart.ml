(* Quickstart: boot a Cache Kernel, run a program under demand paging, and
   watch the Figure 2 fault-forwarding protocol in the event trace; then
   send a message between two address spaces over memory-based messaging.

   Run with: dune exec examples/quickstart.exe *)

open Cachekernel
open Aklib

let ok = function Ok v -> v | Error e -> Fmt.failwith "api error: %a" Api.pp_error e

let () =
  (* One MPM: 2 CPUs, 16 MB. *)
  let node = Hw.Mpm.create ~node_id:0 ~cpus:2 ~mem_size:(16 * 1024 * 1024) () in
  let inst = Instance.create node in
  Trace.enable inst.Instance.trace;

  (* Boot an application kernel as the first kernel, owning all memory. *)
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let ak = ok (App_kernel.boot_first inst ~name:"quickstart" ~groups ()) in

  (* A user address space with a 16-page demand-paged region. *)
  let mgr = ak.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"heap" ~pages:16 in
  let base = 0x40000000 in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages:16 ~segment:seg ~seg_offset:0 ());

  (* The program: touch memory (faulting it in), compute, read it back. *)
  let result = ref 0 in
  let body () =
    for i = 0 to 15 do
      Hw.Exec.mem_write (base + (i * Hw.Addr.page_size)) (i * i)
    done;
    Hw.Exec.compute 10_000;
    for i = 0 to 15 do
      result := !result + Hw.Exec.mem_read (base + (i * Hw.Addr.page_size))
    done
  in
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body body)));
  ignore (Engine.run [| inst |]);
  Fmt.pr "program result: %d (expected %d)@." !result
    (List.fold_left ( + ) 0 (List.init 16 (fun i -> i * i)));
  Fmt.pr "simulated time: %.1f us@." (Hw.Cost.us_of_cycles (Hw.Mpm.now node));

  (* The first fault's events, from its trap to the thread's resumption,
     show Figure 2's protocol. *)
  Fmt.pr "@.first fault, step by step (Figure 2):@.";
  let rec from_trap = function
    | [] -> []
    | { Trace.event = Trace.Fault_trap _; _ } :: _ as es -> es
    | _ :: es -> from_trap es
  in
  let rec to_resume = function
    | [] -> []
    | ({ Trace.event = Trace.Thread_resumed _; _ } as e) :: _ -> [ e ]
    | e :: es -> e :: to_resume es
  in
  List.iter
    (fun e ->
      Fmt.pr "  [%6.1fus] %a@." (Hw.Cost.us_of_cycles e.Trace.time) Trace.pp_event
        e.Trace.event)
    (to_resume (from_trap (Trace.entries inst.Instance.trace)));

  (* Memory-based messaging between two spaces. *)
  Fmt.pr "@.memory-based messaging:@.";
  let sp_tx = ok (Segment_mgr.create_space mgr) in
  let sp_rx = ok (Segment_mgr.create_space mgr) in
  let shared = Channel.create_shared mgr ~name:"demo" in
  let rx_tid = ref None in
  let signal_thread () =
    match !rx_tid with
    | Some id -> Thread_lib.oid_of ak.App_kernel.threads id
    | None -> None
  in
  let tx = Channel.attach mgr sp_tx shared ~va:0x50000000 ~role:`Sender in
  let rx = Channel.attach mgr sp_rx shared ~va:0x60000000 ~role:(`Receiver signal_thread) in
  let received = ref [] in
  rx_tid :=
    Some
      (ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:sp_rx.Segment_mgr.tag
            ~priority:10
            (Hw.Exec.unit_body (fun () ->
                 let _slot, words = Channel.recv rx in
                 received := words))));
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:sp_tx.Segment_mgr.tag
          ~priority:8
          (Hw.Exec.unit_body (fun () -> Channel.send tx ~slot:0 [ 1994; 11; 14 ]))));
  ignore (Engine.run [| inst |]);
  Fmt.pr "  received: %a@." Fmt.(Dump.list int) !received;
  Fmt.pr "  signals: %d fast-path, %d two-stage@." inst.Instance.stats.Stats.signals_fast
    inst.Instance.stats.Stats.signals_slow;
  Fmt.pr "@.Cache Kernel statistics:@.%a" Stats.pp inst.Instance.stats
