(* [pager]: the Figure-2 fault path under memory pressure.

   One node with 2 CPUs runs [spaces] address spaces that share one VA
   layout, as UNIX processes do.  Each space's single thread replays its
   seeded Zipf page trace (op = one user memory access).  The working set
   exceeds both the 256-entry mapping cache and the bounded frame pool, so
   soft mapping reloads, zero fills, disk page-ins and dirty write-backs
   all occur.  After the run every page's last written value is read back
   from wherever the segment manager holds it (frame or backing block). *)

open Cachekernel
open Aklib

type cfg = {
  spaces : int;
  pages : int;  (** per space *)
  accesses : int;  (** per space *)
  zipf_s : float;
  write_frac : float;
  frames : int;  (** frame pool shared by all spaces *)
  mapping_cache : int;
  slice_us : float;
}

let cfg =
  {
    spaces = 4;
    pages = 2048;
    accesses = 20_000;
    zipf_s = 0.9;
    write_frac = 0.3;
    frames = 1024;
    mapping_cache = 256;
    slice_us = 200_000.0;
  }

let base = 0x40000000

let inputs seed =
  Gen.pager ~seed ~spaces:cfg.spaces ~pages:cfg.pages ~accesses:cfg.accesses ~zipf_s:cfg.zipf_s
    ~write_frac:cfg.write_frac

(** The word a page's accesses touch: one per page, offset by page so
    neighbouring pages do not share a word position. *)
let word_of page = (page * 13 mod 1024) * 4

(** A space's thread: one access per trace entry.  [watch] is set in
    traced runs only; it spans each access. *)
let body ~(watch : Spans.watch option) ~(done_ops : int ref) ~thread (tr : Gen.trace) () =
  for i = 0 to Array.length tr.Gen.page - 1 do
    let va = base + (tr.Gen.page.(i) * Hw.Addr.page_size) + word_of tr.Gen.page.(i) in
    let v = tr.Gen.value.(i) in
    (match watch with
    | Some w ->
      Spans.op w ~thread (fun () ->
          if v >= 0 then Hw.Exec.mem_write va v else ignore (Hw.Exec.mem_read va))
    | None -> if v >= 0 then Hw.Exec.mem_write va v else ignore (Hw.Exec.mem_read va));
    incr done_ops
  done

(** Where the segment manager holds a page's word now. *)
let read_back (ak : App_kernel.t) seg page =
  let off = word_of page in
  match Segment.state seg page with
  | Segment.In_memory r ->
    Some (Hw.Phys_mem.read_word ak.App_kernel.inst.Instance.node.Hw.Mpm.mem ((r.Segment.pfn * Hw.Addr.page_size) + off))
  | Segment.On_disk block ->
    let b = Backing_store.read_block_now ak.App_kernel.store ~block in
    Some (Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF)
  | Segment.Zero -> Some 0
  | Segment.Cow_of _ -> None

let run ~seed ~traced =
  let c = Common.clock () in
  let inputs = Common.phase c "inputs" (fun () -> inputs seed) in
  let inst =
    Common.phase c "machine" (fun () ->
        Workload.Setup.instance
          ~config:{ Config.default with Config.mapping_cache = cfg.mapping_cache }
          ~cpus:2 ())
  in
  let ak, segs =
    Common.phase c "boot" (fun () ->
        let ak = Workload.Setup.first_kernel inst in
        let mgr = ak.App_kernel.mgr in
        let segs =
          Array.init cfg.spaces (fun s ->
              let vsp = Workload.Setup.ok (Segment_mgr.create_space mgr) in
              let seg = Segment_mgr.create_segment mgr ~name:(Printf.sprintf "heap%d" s) ~pages:cfg.pages in
              (* same VA range in every space, like UNIX processes *)
              Segment_mgr.attach_region mgr vsp
                (Region.v ~va_start:base ~pages:cfg.pages ~segment:seg ~seg_offset:0 ());
              (vsp, seg))
        in
        let spare = Frame_alloc.available ak.App_kernel.frames - cfg.frames in
        if spare > 0 then ignore (Frame_alloc.take ak.App_kernel.frames spare);
        (ak, segs))
  in
  let watch = if traced then Some (Spans.watch ~node:0 inst) else None in
  let done_ops = ref 0 in
  let tally = Pct.tally () in
  Common.phase c "spawn" (fun () ->
      Array.iteri
        (fun s (vsp, _) ->
          ignore
            (Workload.Setup.ok
               (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
                  (Hw.Exec.unit_body (body ~watch ~done_ops ~thread:s inputs.Gen.traces.(s))))))
        segs);
  let setup_s = Common.since c in
  let sim0 = Workload.Setup.now_us inst in
  let run_s = Common.drive ~slice_us:cfg.slice_us [| inst |] in
  let sim_elapsed = Workload.Setup.now_us inst -. sim0 in
  let ops = !done_ops in
  let attempted = cfg.spaces * cfg.accesses in
  tally.Pct.ops <- attempted;
  tally.Pct.op_errors <- attempted - ops;
  let insts = [| inst |] in
  let counts = Common.core_counts ~ops ~insts ~aks:[ ak ] in
  (* output check: each page's last written value, as a 32-bit word *)
  let mismatches =
    Spans.span ~cat:"check" "check.readback" (fun () ->
        let bad = ref 0 in
        Array.iteri
          (fun s (_, seg) ->
            Hashtbl.iter
              (fun page v ->
                let ok = read_back ak seg page = Some (v land 0xFFFFFFFF) in
                Pct.check tally ok;
                if not ok then incr bad)
              (Gen.last_writes inputs.Gen.traces.(s)))
          segs;
        !bad)
  in
  let violations = (Common.audit insts).(0) in
  Pct.check tally (violations = 0);
  {
    Common.ops;
    tally;
    findings = [ ("lost last write", mismatches) ];
    setup = c.Common.phases;
    setup_s;
    run_s;
    sim = ("sim_us_per_op", sim_elapsed /. float_of_int (max 1 ops)) :: Common.fault_latency insts;
    counts =
      counts
      @ [
          ("aklib.readback_mismatches", float_of_int mismatches);
          ("core.audit_violations", float_of_int violations);
        ];
    steps = Common.counter "engine.steps" insts;
    images = Common.capture_images ~traced [ (0, ak) ];
  }
