(* Micro-benchmarks: Table 2 (basic object operations) and the section 5.3
   measurements (trap forwarding, signal delivery, page-fault handling).

   All times are *simulated* microseconds at 25 MHz; the interesting
   property versus the paper is the shape — ordering across object types,
   the load-vs-load-with-writeback gap, the optimized fault path — not
   absolute equality with the 68040 prototype. *)

open Cachekernel
open Aklib

type op_times = { load : float; load_wb : float; unload : float }

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* Reduced capacities so filling a cache for the writeback case is cheap. *)
let small_config =
  {
    Config.default with
    Config.mapping_cache = 2048;
    thread_cache = 128;
    space_cache = 48;
    kernel_cache = 12;
  }

let null_spec inst name : Kernel_obj.spec =
  {
    Kernel_obj.name;
    handlers = Kernel_obj.null_handlers;
    cpu_percent = Array.make (Instance.n_cpus inst) 25;
    max_priority = 16;
    max_locked = 4;
  }

(* -- Table 2 rows -- *)

(* Which objects a load installs: the measured ones, the ones that fill
   the cache, and the measured ones that each displace a victim. *)
type phase = Plain | Fill | Wb

(* One object kind's side of a Table 2 row, on an instance whose first
   kernel is [caller]: [load phase i] installs the [i]-th object of a
   phase, [unload i] removes the [i]-th object [Plain] loads installed,
   and [fill ()] loads the cache to capacity. *)
type kind = { n : int; load : phase -> int -> unit; unload : int -> unit; fill : unit -> unit }

(* On a fresh instance: time [n] loads, then their [n] unloads, fill the
   cache, then time [n] more loads, each of which displaces a victim. *)
let row make =
  let inst = Setup.instance ~config:small_config () in
  let k = make inst (App_kernel.oid (Setup.first_kernel inst)) in
  let timed f = List.init k.n (fun i -> Setup.time_host inst (fun () -> f i)) in
  let loads = timed (k.load Plain) in
  let unloads = timed k.unload in
  k.fill ();
  let loads_wb = timed (k.load Wb) in
  { load = avg loads; load_wb = avg loads_wb; unload = avg unloads }

let page base i = base + (i * Hw.Addr.page_size)

let mappings inst caller =
  let space = Setup.ok (Api.load_space inst ~caller ~tag:1 ()) in
  let load phase i =
    let va, pfn =
      match phase with
      | Plain -> (0x40000000, 512)
      | Fill -> (0x50000000, 1024)
      | Wb -> (0x60000000, 4096)
    in
    Setup.ok
      (Api.load_mapping inst ~caller ~space (Api.mapping ~va:(page va i) ~pfn:(pfn + i) ()))
  in
  {
    n = 256;
    load;
    unload =
      (fun i -> Setup.ok (Api.unload_mapping inst ~caller ~space ~va:(page 0x40000000 i)));
    fill =
      (fun () ->
        for i = 0 to small_config.Config.mapping_cache - 1 do
          load Fill i
        done);
  }

(* Threads, spaces and kernels: [load phase i] returns the new object's
   identifier.  Unloads go newest first, and the fill ignores failures. *)
let objects ~n ~cap ~load ~unload =
  let oids = Array.make n Oid.none in
  {
    n;
    load =
      (fun phase i ->
        match phase with
        | Plain -> oids.(i) <- Setup.ok (load Plain i)
        | _ -> ignore (Setup.ok (load phase i)));
    unload = (fun i -> Setup.ok (unload oids.(n - 1 - i)));
    fill =
      (fun () ->
        for i = 0 to cap - 1 do
          ignore (load Fill i)
        done);
  }

let tag phase i = i + match phase with Plain -> 0 | Fill -> 1000 | Wb -> 5000

let threads inst caller =
  let space = Setup.ok (Api.load_space inst ~caller ~tag:1 ()) in
  let body () = Hw.Exec.Unit_payload in
  objects ~n:64 ~cap:small_config.Config.thread_cache
    ~load:(fun phase i ->
      Api.load_thread inst ~caller ~space ~priority:8 ~tag:(tag phase i)
        ~start:(Thread_obj.Fresh body) ())
    ~unload:(Api.unload_thread inst ~caller)

let spaces inst caller =
  objects ~n:32 ~cap:small_config.Config.space_cache
    ~load:(fun phase i -> Api.load_space inst ~caller ~tag:(tag phase i) ())
    ~unload:(Api.unload_space inst ~caller)

(* Stay under the kernel-cache capacity: the first kernel holds a locked
   slot, so n leaves one more free and the fill loads one fewer. *)
let kernels inst caller =
  let name = function Plain -> "k" | Fill -> "f" | Wb -> "w" in
  objects
    ~n:(small_config.Config.kernel_cache - 2)
    ~cap:(small_config.Config.kernel_cache - 1)
    ~load:(fun phase i ->
      Api.load_kernel inst ~caller (null_spec inst (Printf.sprintf "%s%d" (name phase) i)))
    ~unload:(Api.unload_kernel inst ~caller)

(* The optimized combined load-and-resume: the load itself plus the
   combined return path, versus the plain load plus a separate
   exception-complete trap (section 2.1). *)
let optimized (t : op_times) =
  let combined_return = Hw.Cost.us_of_cycles Config.c_combined_resume in
  let separate_return =
    Hw.Cost.us_of_cycles (Hw.Cost.trap_entry + Hw.Cost.exception_return)
  in
  {
    load = t.load +. combined_return;
    load_wb = t.load_wb +. combined_return;
    unload = t.unload +. separate_return;
    (* unload has no resume variant; report the plain path *)
  }

(** Table 2: all rows. *)
let table2 () =
  let m = row mappings in
  [
    ("Mappings", m);
    ("(optimized)", optimized m);
    ("Threads", row threads);
    ("AddrSpaces", row spaces);
    ("Kernel", row kernels);
  ]

(* -- Section 5.3: trap forwarding (M1) -- *)

(** Per-call time of getpid through Cache Kernel trap forwarding to the
    UNIX emulator (paper: 37 us). *)
let ck_getpid_us ?(calls = 200) () =
  let inst = Setup.instance () in
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = Setup.ok (Unix_emu.Emulator.boot inst ~groups) in
  let per_call = ref 0.0 in
  let prog =
    Unix_emu.Syscall.program "getpid-loop" (fun () ->
        (* warm up the address space *)
        ignore (Unix_emu.Syscall.getpid ());
        let t0 = Hw.Exec.time_us () in
        for _ = 1 to calls do
          ignore (Unix_emu.Syscall.getpid ())
        done;
        let t1 = Hw.Exec.time_us () in
        per_call := (t1 -. t0) /. float_of_int calls;
        0)
  in
  ignore (Setup.ok (Unix_emu.Emulator.start_init emu prog));
  ignore (Engine.run [| inst |]);
  !per_call

(** Per-call time of getpid in the monolithic baseline (paper: Mach 2.5 at
    25 us on comparable hardware). *)
let monolithic_getpid_us ?(calls = 200) () =
  let mono = Baseline.Monolithic.create () in
  let per_call = ref 0.0 in
  let body () =
    ignore (Baseline.Monolithic.getpid ());
    let t0 = Hw.Exec.time_us () in
    for _ = 1 to calls do
      ignore (Baseline.Monolithic.getpid ())
    done;
    let t1 = Hw.Exec.time_us () in
    per_call := (t1 -. t0) /. float_of_int calls;
    Hw.Exec.Unit_payload
  in
  ignore (Baseline.Runtime.spawn mono.Baseline.Monolithic.rt body);
  Baseline.Runtime.run mono.Baseline.Monolithic.rt;
  !per_call

(* -- Section 5.3: signal delivery (M2) -- *)

type signal_times = { one_way_us : float; round_trip_us : float }

(** Cross-processor address-valued signal latency: two threads pinned to
    different CPUs ping-pong over a pair of channels (paper: 44 us deliver
    + 27 us return = 71 us).  Pass a config with [rtlb_enabled = false] for
    the ablation of the reverse-TLB fast path (section 4.1). *)
let signal_us ?(rounds = 100) ?(config = Config.default) () =
  let inst = Setup.instance ~config ~cpus:2 () in
  let ak = Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let sp_a = Setup.ok (Segment_mgr.create_space mgr) in
  let sp_b = Setup.ok (Segment_mgr.create_space mgr) in
  let ab = Channel.create_shared mgr ~name:"a->b" in
  let ba = Channel.create_shared mgr ~name:"b->a" in
  let tid_a = ref None and tid_b = ref None in
  let oid_of r () =
    match !r with Some id -> Thread_lib.oid_of ak.App_kernel.threads id | None -> None
  in
  let a_tx = Channel.attach mgr sp_a ab ~va:0x50000000 ~role:`Sender in
  let a_rx = Channel.attach mgr sp_a ba ~va:0x50800000 ~role:(`Receiver (oid_of tid_a)) in
  let b_rx = Channel.attach mgr sp_b ab ~va:0x60000000 ~role:(`Receiver (oid_of tid_b)) in
  let b_tx = Channel.attach mgr sp_b ba ~va:0x60800000 ~role:`Sender in
  let elapsed = ref 0.0 in
  let body_a () =
    (* warm-up exchange loads all the mappings *)
    Channel.send a_tx ~slot:0 [ 0 ];
    ignore (Channel.recv a_rx);
    let t0 = Hw.Exec.time_us () in
    for i = 1 to rounds do
      Channel.send a_tx ~slot:0 [ i ];
      ignore (Channel.recv a_rx)
    done;
    elapsed := Hw.Exec.time_us () -. t0
  in
  let body_b () =
    let rec loop n =
      if n >= 0 then begin
        ignore (Channel.recv b_rx);
        Channel.send b_tx ~slot:0 [ n ];
        loop (n - 1)
      end
    in
    loop rounds
  in
  tid_b :=
    Some
      (Setup.ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:sp_b.Segment_mgr.tag
            ~priority:12 ~affinity:1 (Hw.Exec.unit_body body_b)));
  tid_a :=
    Some
      (Setup.ok
         (Thread_lib.spawn ak.App_kernel.threads ~space_tag:sp_a.Segment_mgr.tag
            ~priority:12 ~affinity:0 (Hw.Exec.unit_body body_a)));
  ignore (Engine.run [| inst |]);
  let round_trip = !elapsed /. float_of_int rounds in
  { one_way_us = round_trip /. 2.0; round_trip_us = round_trip }

(* -- Section 5.3: page-fault handling (M3) -- *)

type fault_times = { total_us : float; transfer_us : float; load_resume_us : float }

(** Soft-fault cost: the page is resident, only the mapping is missing —
    transfer to the application kernel plus the optimized load-and-resume
    (paper: 32 + 67 = 99 us).  The trace timestamps split the phases. *)
let fault_us ?(faults = 100) () =
  let inst = Setup.instance () in
  let ak = Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = Setup.ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"soft" ~pages:(faults + 1) in
  let base = 0x40000000 in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages:(faults + 1) ~segment:seg ~seg_offset:0 ());
  (* make every page resident up front so faults are mapping-only *)
  for page = 0 to faults do
    let pfn = Option.get (Frame_alloc.alloc ak.App_kernel.frames) in
    Aklib.Segment.set_state seg page
      (Aklib.Segment.In_memory
         (Aklib.Segment.resident pfn))
  done;
  Trace.enable inst.Instance.trace;
  let body () =
    for i = 0 to faults do
      ignore (Hw.Exec.mem_read (base + (i * Hw.Addr.page_size)))
    done
  in
  ignore
    (Setup.ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body body)));
  ignore (Engine.run [| inst |]);
  (* fold the trace: fault-trap -> handler-running = transfer; handler ->
     thread-resumed = handler + load + resume *)
  let entries = Trace.entries inst.Instance.trace in
  let transfer = ref [] and serve = ref [] and total = ref [] in
  (* state machine over one fault's event sequence:
     Fault_trap(t0) -> Handler_running(t1) -> ... -> Thread_resumed(t3) *)
  let t0 = ref None and t1 = ref None in
  List.iter
    (fun { Trace.time; event } ->
      match event with
      | Trace.Fault_trap _ ->
        t0 := Some time;
        t1 := None
      | Trace.Handler_running _ ->
        (match !t0 with
        | Some f0 -> transfer := Hw.Cost.us_of_cycles (time - f0) :: !transfer
        | None -> ());
        t1 := Some time
      | Trace.Thread_resumed _ ->
        (match !t1 with
        | Some h1 -> serve := Hw.Cost.us_of_cycles (time - h1) :: !serve
        | None -> ());
        (match !t0 with
        | Some f0 -> total := Hw.Cost.us_of_cycles (time - f0) :: !total
        | None -> ());
        t0 := None;
        t1 := None
      | _ -> ())
    entries;
  { total_us = avg !total; transfer_us = avg !transfer; load_resume_us = avg !serve }
