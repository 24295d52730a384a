(* What one run of a workload reports, and the counters every workload
   reads through the simulator's public observability surface: {!Metrics},
   {!Stats}, the TLBs, the interconnect, [Segment_mgr.stats] and the
   backing store.  All of these are simulator counts, so they must repeat
   bit for bit across runs of one seed. *)

open Cachekernel

type outcome = {
  ops : int;  (** completed ops, as the workload defines one *)
  tally : Pct.tally;  (** op errors and output checks *)
  findings : (string * int) list;
      (** failed checks of known, pre-registered defects (see README.md);
          they count in [tally] like every other failure *)
  setup : (string * float) list;  (** setup phase -> host seconds *)
  setup_s : float;  (** host seconds from run start to the first engine step *)
  run_s : float;  (** host seconds inside the engine *)
  sim : (string * float) list;  (** simulated-clock metrics *)
  counts : (string * float) list;  (** per-layer simulator counts *)
  steps : int;  (** engine steps *)
  images : Migrate.Codec.image list;  (** captured in traced runs only, for codec timing *)
}

(* -- setup phases -- *)

type clock = { start : int; mutable phases : (string * float) list }

let clock () = { start = Spans.now_ns (); phases = [] }

(** Time one setup phase (and span it when tracing). *)
let phase c name f =
  let t0 = Spans.now_ns () in
  let x = Spans.span ~cat:"setup" ("setup." ^ name) f in
  c.phases <- c.phases @ [ (name, float_of_int (Spans.now_ns () - t0) /. 1e9) ];
  x

let since c = float_of_int (Spans.now_ns () - c.start) /. 1e9

(* -- engine driving -- *)

(* a runaway bound: no workload comes near it *)
let max_slices = 100_000

(** Run [insts] in fixed simulated-time slices of [slice_us] up to
    [until_us] (or until a single node goes quiescent when [until_us] is
    omitted).  Slicing is part of the workload: each {!Engine.run} call
    levels the CPU clocks at its end, so traced and untraced runs must
    slice identically — and do, since they share this loop.  [between]
    runs at every slice boundary and says whether it gave the engine new
    work.  Returns host seconds spent inside the engine. *)
let drive ?until_us ?(between = fun () -> false) ~slice_us insts =
  let host = ref 0 in
  let now_us () = Array.fold_left (fun acc i -> Float.max acc (Workload.Setup.now_us i)) 0.0 insts in
  let origin = now_us () in
  let rec go k =
    let target = origin +. (float_of_int k *. slice_us) in
    let target = match until_us with Some u -> Float.min u target | None -> target in
    let t0 = Spans.now_ns () in
    (* slices sit on their own track under the one top-level engine span,
       so warm-up shows slice by slice *)
    ignore
      (Spans.span ~tid:1 ~cat:"engine.slice" (Printf.sprintf "slice %d" k) (fun () ->
           Engine.run ~until_us:target insts));
    host := !host + (Spans.now_ns () - t0);
    Spans.poll ();
    let reached = now_us () >= target in
    let more = between () in
    match until_us with
    | Some u -> if target < u then go (k + 1)
    | None -> if (reached || more) && k < max_slices then go (k + 1)
  in
  Spans.span ~cat:"engine" "engine.run" (fun () -> go 1);
  float_of_int !host /. 1e9

(* -- reading the layers -- *)

let sum f insts = Array.fold_left (fun acc i -> acc + f i) 0 insts
let counter name insts = sum (fun (i : Instance.t) -> Metrics.counter i.Instance.metrics name) insts

(** All nodes' histograms [name] merged (absent ones count as empty). *)
let hist name insts =
  Pct.merge_hists
    (Array.to_list insts
    |> List.filter_map (fun (i : Instance.t) ->
           Hashtbl.find_opt i.Instance.metrics.Metrics.histograms name))

let tlb_miss_ratio insts =
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun (i : Instance.t) ->
      Array.iter
        (fun (c : Hw.Cpu.t) ->
          hits := !hits + Hw.Tlb.hits c.Hw.Cpu.tlb;
          misses := !misses + Hw.Tlb.misses c.Hw.Cpu.tlb)
        i.Instance.node.Hw.Mpm.cpus)
    insts;
  if !hits + !misses = 0 then 0.0 else float_of_int !misses /. float_of_int (!hits + !misses)

(** The hw/core/aklib counts every workload reports.  [ops] normalises
    the per-op ratios. *)
let core_counts ~ops ~(insts : Instance.t array) ~(aks : Aklib.App_kernel.t list) =
  let st f = sum (fun (i : Instance.t) -> f i.Instance.stats) insts in
  let per_op n = float_of_int n /. float_of_int (max 1 ops) in
  let q name p = Pct.hist_quantile (hist name insts) p in
  let size name = float_of_int (hist name insts).Metrics.h_count in
  let n x = float_of_int x in
  let seg f =
    List.fold_left
      (fun acc (ak : Aklib.App_kernel.t) -> acc + f (Aklib.Segment_mgr.stats ak.Aklib.App_kernel.mgr))
      0 aks
  in
  let store f = List.fold_left (fun acc (ak : Aklib.App_kernel.t) -> acc + f ak.Aklib.App_kernel.store) 0 aks in
  let open Aklib.Segment_mgr in
  [
    ("hw.tlb_miss_ratio", tlb_miss_ratio insts);
    ("core.steps_per_op", per_op (counter "engine.steps" insts));
    ("core.faults_per_op", per_op (st (fun s -> s.Stats.faults_forwarded)));
    ("core.mapping_displacements", n (st (fun s -> s.Stats.mappings.Stats.writebacks)));
    ("core.wb_mapping_p50_us", q "wb.mapping_us" 0.5);
    ("core.traps_per_op", per_op (st (fun s -> s.Stats.traps_forwarded)));
    ("core.dispatch_p50_us", q "sched.dispatch_us" 0.5);
    ("core.dispatch_p99_us", q "sched.dispatch_us" 0.99);
    ("core.preemptions", n (st (fun s -> s.Stats.preemptions)));
    ("core.thread_loads", n (st (fun s -> s.Stats.threads.Stats.loads)));
    ("core.thread_writebacks", n (st (fun s -> s.Stats.threads.Stats.writebacks)));
    ("core.cow_p50_us", q "fault.cow_us" 0.5);
    ("aklib.soft_faults", n (seg (fun s -> s.soft_faults)));
    ("aklib.zero_fills", n (seg (fun s -> s.zero_fills)));
    ("aklib.page_in_faults", n (seg (fun s -> s.page_in_faults)));
    ("aklib.cow_faults", n (seg (fun s -> s.cow_faults)));
    ("aklib.evictions", n (seg (fun s -> s.evictions)));
    ("aklib.page_ins", n (store Aklib.Backing_store.page_ins));
    ("aklib.page_outs", n (store Aklib.Backing_store.page_outs));
    (* sample counts of the percentiles above, for the percentile rule *)
    ("n.wb_mapping", size "wb.mapping_us");
    ("n.dispatch", size "sched.dispatch_us");
    ("n.cow", size "fault.cow_us");
  ]

(** Simulated latency percentiles of histogram [hname], with the sample
    count under ["n." ^ prefix]. *)
let latency ~prefix hname qs insts =
  let h = hist hname insts in
  List.map (fun (name, q) -> (name, Pct.hist_quantile h q)) qs
  @ [ ("n." ^ prefix, float_of_int h.Metrics.h_count) ]

let fault_latency =
  latency ~prefix:"fault" "fault.handle_us" [ ("sim_fault_p50_us", 0.5); ("sim_fault_p99_us", 0.99) ]

let trap_latency =
  latency ~prefix:"trap" "trap.forward_us" [ ("sim_trap_p50_us", 0.5); ("sim_trap_p99_us", 0.99) ]

(** Post-run {!Audit.run} (detect only): violations per node, 0 for a
    halted one. *)
let audit insts =
  Spans.span ~cat:"audit" "audit" (fun () ->
      Array.map
        (fun (i : Instance.t) ->
          if i.Instance.halted then 0 else List.length (Audit.run i).Audit.violations)
        insts)

(* enough image bytes for a steady codec timing, without copying a whole
   paged-out heap *)
let image_budget = 4 * 1024 * 1024

(** Traced runs only: capture loaded spaces of [aks] (node id, kernel) as
    codec images, up to {!image_budget} payload bytes, after every count
    has been read. *)
let capture_images ~traced aks =
  if not traced then []
  else
    Spans.span ~cat:"migrate" "capture" (fun () ->
        let budget = ref image_budget in
        List.concat_map
          (fun (node, (ak : Aklib.App_kernel.t)) ->
            Hashtbl.fold (fun tag v acc -> (tag, v) :: acc) ak.Aklib.App_kernel.mgr.Aklib.Segment_mgr.spaces []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.filter_map (fun (_, v) ->
                   if !budget <= 0 then None
                   else begin
                     let s = Migrate.Plane.space_image_of ak v in
                     let img = { Migrate.Codec.src_node = node; spaces = [ s ]; threads = []; extras = [] } in
                     budget := !budget - Migrate.Codec.payload_bytes img;
                     Some img
                   end))
          aks)
