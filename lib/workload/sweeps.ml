(* Cache-behaviour sweeps (section 5.2, experiments C1 and C2).

   The Cache Kernel "can be expected to perform well with programs that are
   reasonably structured, and is not the key performance problem for those
   that are not": within descriptor-cache capacity, context switching and
   memory touching are cheap; past capacity, load/unload writeback traffic
   appears — and the paper argues the application was already paying a
   larger price (context-switch overhead, TLB misses, paging I/O) by then. *)

open Cachekernel
open Aklib

(* -- C1: thread-cache sweep -- *)

type thread_point = {
  n_threads : int;
  capacity : int;
  us_per_thread_round : float;
  thread_writebacks : int;
  reloads : int;
}

(** Run [n] compute+yield threads through [rounds] rounds against a thread
    cache of [capacity] descriptors.  Threads displaced by replacement are
    reloaded by the application kernel (the churn the paper predicts once a
    system actively switches among more threads than the cache holds).
    [config] overrides the swept configuration (the thread-cache capacity
    is still forced to [capacity]); [prepare] runs on the freshly booted
    instance before any threads spawn — tests use it to enable tracing or
    capture the instance for observability assertions. *)
let thread_point ?config ?(capacity = 64) ?(rounds = 20) ?(prepare = fun _ -> ()) n =
  let config =
    { (Option.value config ~default:Config.default) with Config.thread_cache = capacity }
  in
  let inst = Setup.instance ~config ~cpus:1 () in
  prepare inst;
  let ak = Setup.first_kernel inst in
  let vsp = Setup.ok (Segment_mgr.create_space ak.App_kernel.mgr) in
  let body () =
    for _ = 1 to rounds do
      Hw.Exec.compute 1500;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  let tids =
    List.init n (fun _ ->
        Setup.ok
          (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag
             ~priority:8 (Hw.Exec.unit_body body)))
  in
  let t0 = Setup.now_us inst in
  let reloads = ref 0 in
  let rec drive () =
    ignore (Engine.run [| inst |]);
    (* reload any threads displaced mid-computation *)
    let pending =
      List.filter
        (fun id ->
          (not (Thread_lib.exited ak.App_kernel.threads id))
          && not (Thread_lib.running ak.App_kernel.threads id))
        tids
    in
    if pending <> [] then begin
      List.iter
        (fun id ->
          incr reloads;
          ignore (Thread_lib.schedule ak.App_kernel.threads id))
        pending;
      drive ()
    end
  in
  drive ();
  let elapsed = Setup.now_us inst -. t0 in
  {
    n_threads = n;
    capacity;
    us_per_thread_round = elapsed /. float_of_int (n * rounds);
    thread_writebacks = inst.Instance.stats.Stats.threads.Stats.writebacks;
    reloads = !reloads;
  }

let thread_sweep ?config ?capacity ?rounds ?prepare counts =
  List.map (thread_point ?config ?capacity ?rounds ?prepare) counts

(* -- one thread over one segment: the shape of the C2, SK and TS sweeps -- *)

let base = 0x40000000

(* A one-CPU instance whose first kernel maps one [pages]-page segment at
   [base] in a fresh space; [prepare] sees the instance before boot. *)
let segment_setup ~config ~prepare ~name pages =
  let inst = Setup.instance ~config ~cpus:1 () in
  prepare inst;
  let ak = Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = Setup.ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name ~pages in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages ~segment:seg ~seg_offset:0 ());
  (inst, ak, vsp, seg)

(* Pre-resident pages: the sweep exercises mapping descriptors, not paging. *)
let make_resident ak seg pages =
  for page = 0 to pages - 1 do
    let pfn = Option.get (Frame_alloc.alloc ak.App_kernel.frames) in
    Segment.set_state seg page
      (Segment.In_memory
         { Segment.pfn; dirty = false; backing = None; mappers = []; cow_pending = None })
  done

(* Run [body] as one thread of the space to quiescence; returns the
   elapsed simulated us. *)
let run_body inst ak vsp body =
  let t0 = Setup.now_us inst in
  ignore
    (Setup.ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body body)));
  ignore (Engine.run [| inst |]);
  Setup.now_us inst -. t0

(* -- C2: mapping-cache sweep -- *)

type page_point = {
  pages : int;
  mapping_capacity : int;
  mapping_loads : int;
  faults : int;
  us_per_access : float;
}

(** One thread sweeps a working set of [pages] pages [passes] times against
    a mapping cache of [mapping_capacity] descriptors.  Below capacity the
    mappings load once; above it every pass refaults (thrash).  [config]
    overrides the swept configuration (the mapping-cache capacity is still
    forced) — the FP experiment uses it to enable [fault_prefetch];
    [prepare] runs on the freshly booted instance, as in {!thread_point}. *)
let page_point ?config ?(mapping_capacity = 256) ?(passes = 4) ?(prepare = fun _ -> ())
    pages =
  let config =
    {
      (Option.value config ~default:Config.default) with
      Config.mapping_cache = mapping_capacity;
    }
  in
  let inst, ak, vsp, seg = segment_setup ~config ~prepare ~name:"sweep" pages in
  make_resident ak seg pages;
  let body () =
    for _ = 1 to passes do
      for p = 0 to pages - 1 do
        ignore (Hw.Exec.mem_read (base + (p * Hw.Addr.page_size)))
      done
    done
  in
  let elapsed = run_body inst ak vsp body in
  {
    pages;
    mapping_capacity;
    mapping_loads = inst.Instance.stats.Stats.mappings.Stats.loads;
    faults = inst.Instance.stats.Stats.faults_forwarded;
    us_per_access = elapsed /. float_of_int (passes * pages);
  }

let page_sweep ?config ?mapping_capacity ?passes ?prepare working_sets =
  List.map (page_point ?config ?mapping_capacity ?passes ?prepare) working_sets

(* -- SK: skewed working set, the replacement-policy shoot-out -- *)

type skew_point = {
  hot_pages : int;
  cold_per_pass : int;
  skew_passes : int;
  skew_capacity : int;
  skew_mapping_loads : int;
  skew_faults : int;
  skew_hit_rate : float;
  skew_us_per_access : float;
}

(** [hot] pages re-read on every pass plus [cold] fresh pages streamed
    through per pass, against a mapping cache of [capacity] descriptors.
    The hot set plus one pass of cold fits; the total does not.  A policy
    that recognises the re-referenced hot set keeps it resident so only
    the cold stream refaults; pure clock keeps sweeping its hand into the
    hot set once the second-chance bits are spent.  The [config] override
    carries the {!Cachekernel.Policy} choice being measured. *)
let skew_point ?config ?(capacity = 128) ?(hot = 96) ?(cold = 64) ?(passes = 8)
    ?(prepare = fun _ -> ()) () =
  let config =
    { (Option.value config ~default:Config.default) with Config.mapping_cache = capacity }
  in
  let pages = hot + (passes * cold) in
  let inst, ak, vsp, seg = segment_setup ~config ~prepare ~name:"skew" pages in
  make_resident ak seg pages;
  let body () =
    (* interleave the hot re-reads with the cold stream: the hardware
       referenced bits are only harvested when a fault triggers a victim
       scan, so the hot set must be touched *between* cold faults for a
       recency-aware policy to see it (reading it all up front would leave
       every scan but the first without a signal) *)
    let stride = max 1 (hot / max 1 cold) in
    for pass = 0 to passes - 1 do
      for c = 0 to cold - 1 do
        for j = 0 to stride - 1 do
          let h = ((c * stride) + j) mod hot in
          ignore (Hw.Exec.mem_read (base + (h * Hw.Addr.page_size)))
        done;
        let p = hot + (pass * cold) + c in
        ignore (Hw.Exec.mem_read (base + (p * Hw.Addr.page_size)))
      done;
      for h = cold * stride to hot - 1 do
        ignore (Hw.Exec.mem_read (base + (h * Hw.Addr.page_size)))
      done
    done
  in
  let elapsed = run_body inst ak vsp body in
  let accesses = passes * (hot + cold) in
  let faults = inst.Instance.stats.Stats.faults_forwarded in
  {
    hot_pages = hot;
    cold_per_pass = cold;
    skew_passes = passes;
    skew_capacity = capacity;
    skew_mapping_loads = inst.Instance.stats.Stats.mappings.Stats.loads;
    skew_faults = faults;
    skew_hit_rate = 1.0 -. (float_of_int faults /. float_of_int accesses);
    skew_us_per_access = elapsed /. float_of_int accesses;
  }

(* -- TS: tiered-backing-store sweep -- *)

type tier_point = {
  ts_slots : int;
  ts_page_ins : int;
  ts_page_outs : int;
  ts_fast_hits : int;
  ts_slow_hits : int;
  ts_fast_share : float;  (** fraction of refaults served from the fast tier *)
  ts_promotes : int;
  ts_demotes : int;
  ts_fast_mean_us : float;  (** mean fast-tier fault-service latency *)
  ts_slow_mean_us : float;
  ts_us_per_access : float;
}

(** Real paging against a bounded frame pool: [hot] pages are dirtied once
    and then re-read every pass while [cold] fresh pages are dirtied per
    pass and never touched again.  With only [frames] physical frames the
    hot set refaults continuously — and because a clean eviction keeps its
    backing block, every hot refault hits the *same* block, which the
    fast tier keeps until LRU demotion pushes it to disk.  Cold blocks
    are written once and never faulted back, so all page-ins are hot-set
    faults: [ts_fast_share] is the fraction of the hot working set served
    at RAM cost rather than disk cost.  [slots = 0] measures the seed's
    flat store on the identical access pattern. *)
let tier_point ?config ?(slots = 64) ?(hot = 64) ?(cold = 32) ?(passes = 6) ?(frames = 64)
    ?(prepare = fun _ -> ()) ?(finish = fun _ _ -> ()) () =
  let config =
    { (Option.value config ~default:Config.default) with Config.fast_tier_slots = slots }
  in
  let pages = hot + (passes * cold) in
  let inst, ak, vsp, _ = segment_setup ~config ~prepare ~name:"tiers" pages in
  (* bound the frame pool so the working set cannot stay resident: this
     sweep exercises the paging path, not just mapping descriptors *)
  let spare = Frame_alloc.available ak.App_kernel.frames - frames in
  if spare > 0 then ignore (Frame_alloc.take ak.App_kernel.frames spare);
  let body () =
    for pass = 0 to passes - 1 do
      for h = 0 to hot - 1 do
        let va = base + (h * Hw.Addr.page_size) in
        (* dirty the hot set once so it reaches backing store; read-only
           after that, so evictions keep the block identity stable *)
        if pass = 0 then Hw.Exec.mem_write va (h + 1) else ignore (Hw.Exec.mem_read va)
      done;
      for c = 0 to cold - 1 do
        let p = hot + (pass * cold) + c in
        Hw.Exec.mem_write (base + (p * Hw.Addr.page_size)) p
      done
    done
  in
  let elapsed = run_body inst ak vsp body in
  let store = ak.App_kernel.store in
  let fast_hits = Backing_store.tier_fast_hits store in
  let slow_hits = Backing_store.tier_slow_hits store in
  let refaults = fast_hits + slow_hits in
  let m = inst.Instance.metrics in
  let mean_or_zero name =
    if Metrics.observations m name = 0 then 0.0 else Metrics.mean m name
  in
  let r =
    {
      ts_slots = slots;
      ts_page_ins = Backing_store.page_ins store;
      ts_page_outs = Backing_store.page_outs store;
      ts_fast_hits = fast_hits;
      ts_slow_hits = slow_hits;
      ts_fast_share =
        (if refaults = 0 then 0.0 else float_of_int fast_hits /. float_of_int refaults);
      ts_promotes = Backing_store.tier_promotes store;
      ts_demotes = Backing_store.tier_demotes store;
      ts_fast_mean_us = mean_or_zero "tier.service_fast_us";
      ts_slow_mean_us = mean_or_zero "tier.service_slow_us";
      ts_us_per_access = elapsed /. float_of_int (passes * (hot + cold));
    }
  in
  (* [finish] sees the still-live instance after the record is built — the
     checkpoint-pause benchmark uses it to snapshot tier residency and
     then checkpoint the kernel without perturbing the sweep's counters *)
  finish inst ak;
  r
