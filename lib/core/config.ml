(* Cache Kernel configuration.

   Descriptor sizes and default cache capacities are Table 1 of the paper.
   Capacities are configurable because several experiments (C1, C2) sweep a
   working set around a reduced capacity for tractability; the defaults are
   the prototype's values.

   The cost constants are per-suboperation cycle charges for Cache Kernel
   code paths.  They are *inputs* to the model — rough figures for short
   supervisor code sequences on a 25 MHz 68040 — and the Table 2 / section
   5.3 numbers reported by the benchmarks *emerge* from how many of these
   suboperations each kernel operation performs. *)

(* Deterministic fault injection (DESIGN.md section 6, "Injection and
   recovery").  All rates are probabilities in [0,1]; draws come from
   per-site PRNG streams derived from [chaos_seed] in {!Fault_inject}, so
   two runs with equal seeds and rates inject at identical points in the
   simulation. *)
type chaos = {
  chaos_seed : int; (* root seed; each named site derives its own stream *)
  io_fail : float; (* a backing-store transfer fails (retried with backoff) *)
  io_delay : float; (* a backing-store transfer is delayed by [io_delay_us] *)
  io_delay_us : float;
  io_retry_backoff_us : float; (* base retry backoff; doubles per attempt *)
  io_max_retries : int;
  signal_drop : float; (* a signal delivery is dropped (redelivered later) *)
  signal_dup : float; (* a signal delivery is duplicated *)
  redeliver_backoff_us : float; (* delay before a dropped signal is redelivered *)
  stale_rate : float; (* an object load observes a stale space identifier *)
  forward_drop : float; (* a fault forward is dropped (the access refaults) *)
  migrate_drop : float; (* a migration chunk is lost on the fiber (retransmitted) *)
  tier_fail : float; (* a tier promotion/demotion transfer fails (retried) *)
  tier_delay : float; (* a tier promotion/demotion is delayed by [io_delay_us] *)
  crash_at_us : float option; (* halt the whole MPM at this simulated time *)
  partition_at_us : float option;
      (* sever the interconnect into two groups at this simulated time;
         which nodes land in the minority side is drawn from the
         [net.partition] chaos stream, so equal seeds partition equal sets *)
  partition_for_us : float; (* partition duration before the [net.heal] *)
  partition_minority : int; (* how many non-zero nodes the cut isolates *)
}

let chaos_default =
  {
    chaos_seed = 42;
    io_fail = 0.0;
    io_delay = 0.0;
    io_delay_us = 500.0;
    io_retry_backoff_us = 200.0;
    io_max_retries = 4;
    signal_drop = 0.0;
    signal_dup = 0.0;
    redeliver_backoff_us = 50.0;
    stale_rate = 0.0;
    forward_drop = 0.0;
    migrate_drop = 0.0;
    tier_fail = 0.0;
    tier_delay = 0.0;
    crash_at_us = None;
    partition_at_us = None;
    partition_for_us = 2_000.0;
    partition_minority = 1;
  }

type t = {
  (* Table 1: cache capacities *)
  kernel_cache : int;
  space_cache : int;
  thread_cache : int;
  mapping_cache : int;
  (* Table 1: descriptor sizes, bytes (space accounting) *)
  kernel_desc_bytes : int;
  space_desc_bytes : int;
  thread_desc_bytes : int;
  mapping_desc_bytes : int;
  (* scheduling *)
  priorities : int; (* priority levels, 0 = lowest, priorities-1 = highest *)
  time_slice : Hw.Cost.cycles;
  quota_epoch : Hw.Cost.cycles; (* processor-percentage accounting window *)
  (* signals *)
  signal_queue_depth : int;
  (* limits *)
  max_fault_depth : int; (* nested fault forwarding before the thread is killed *)
  max_locked_default : int; (* default locked-object quota per kernel *)
  (* observability *)
  trace_capacity : int;
      (* ring-buffer capacity of the event trace; a tracing-enabled run
         holds at most this many entries, dropping the oldest beyond it *)
  (* ablations *)
  rtlb_enabled : bool;
      (* use the per-processor reverse TLB for signal delivery; disabling
         it forces every signal through the two-stage physical-map lookup
         (the ablation of section 4.1's design choice) *)
  (* fault injection *)
  chaos : chaos option; (* None = injection plane disabled entirely *)
  (* robustness: auditing, overload backpressure, forwarding watchdog *)
  audit_interval_us : float;
      (* periodic invariant audit from the engine, simulated us between
         runs; 0 disables the periodic audit (on-demand and end-of-chaos
         audits are unaffected) *)
  storm_threshold : int;
      (* writeback-storm detector: displacements per [storm_window_us]
         window above which new loads get [Overloaded] backpressure;
         0 disables the detector *)
  storm_window_us : float; (* width of the displacement-rate window *)
  forward_deadline_us : float;
      (* Figure-2 watchdog: a forwarded fault unresolved after this many
         simulated us is re-forwarded once, then escalated to the SRM as a
         misbehaving kernel; 0 disables the watchdog *)
  overload_backoff_us : float; (* aklib base backoff on [Overloaded]; doubles *)
  overload_max_retries : int; (* aklib retry budget before surfacing the error *)
  (* live migration & load balancing *)
  migrate_chunk_bytes : int;
      (* payload bytes per fiber-channel migration chunk (capped by the
         NIC's maximum frame payload) *)
  migrate_retry_us : float;
      (* retransmit watchdog: an unacknowledged transfer resends its
         chunks this many simulated us past the image's wire time
         (doubling per attempt) *)
  migrate_max_retries : int; (* retransmit budget before the move is abandoned *)
  balance_interval_us : float;
      (* SRM load-balancing policy loop period; 0 disables auto-balancing *)
  balance_hysteresis : int;
      (* runnable-thread spread tolerated before the most-loaded node
         migrates work to the least-loaded one *)
  (* failure detection & autonomous failover *)
  heartbeat_interval_us : float;
      (* SRM heartbeat period: each node broadcasts an epoch-stamped
         heartbeat (piggybacking its load report) and checks peers for
         silence; 0 disables the failure detector entirely *)
  suspect_timeout_us : float;
      (* a peer silent this long is Suspect; silent for twice this long it
         is declared Dead (quorum permitting), fenced, and failed over *)
  load_report_stale_us : float;
      (* balancing ignores load reports older than this window, so a dead
         or silent node cannot remain a migration target; 0 keeps reports
         forever (the pre-detector behavior) *)
  policy : Policy.kind; (* replacement policy of every descriptor cache *)
  (* batched mapping loads & clustered fault prefetch *)
  mapping_batch_max : int;
      (* most mapping specs one [Api.load_mappings] call accepts: the batch
         shares one trap/crossing charge, so the cap bounds how much work a
         single supervisor entry can queue *)
  fault_prefetch : int;
      (* clustered prefetch: on a forwarded page fault the segment manager
         may load up to this many resident same-segment neighbors in the
         same batch as the faulting mapping; 0 disables prefetch entirely
         (the adaptive throttle can lower the effective depth, never raise
         it past this) *)
  (* tiered backing store (fast local-RAM tier over the paging disk) *)
  fast_tier_slots : int;
      (* page capacity of the fast backing tier; 0 keeps the seed's flat
         single-tier store, bit-for-bit (the equivalence suite pins this) *)
  tier_batch : int; (* fast-tier demotions per batched disk transfer *)
}

let default =
  {
    kernel_cache = 16;
    space_cache = 64;
    thread_cache = 256;
    mapping_cache = 65536;
    kernel_desc_bytes = 2160;
    space_desc_bytes = 60;
    thread_desc_bytes = 532;
    mapping_desc_bytes = 16;
    priorities = 32;
    time_slice = Hw.Cost.cycles_of_us 10_000.0 (* 10 ms *);
    quota_epoch = Hw.Cost.cycles_of_us 100_000.0 (* 100 ms *);
    signal_queue_depth = 64;
    max_fault_depth = 4;
    max_locked_default = 8;
    trace_capacity = 65536;
    rtlb_enabled = true;
    chaos = None;
    audit_interval_us = 0.0;
    storm_threshold = 0;
    storm_window_us = 500.0;
    forward_deadline_us = 0.0;
    overload_backoff_us = 200.0;
    overload_max_retries = 5;
    migrate_chunk_bytes = 1024;
    migrate_retry_us = 800.0;
    migrate_max_retries = 6;
    balance_interval_us = 0.0;
    balance_hysteresis = 2;
    heartbeat_interval_us = 0.0;
    suspect_timeout_us = 1_000.0;
    load_report_stale_us = 1_000_000.0;
    policy = Policy.Clock;
    mapping_batch_max = 16;
    fault_prefetch = 0;
    fast_tier_slots = 0;
    tier_batch = 8;
  }

(* Cycle costs of Cache Kernel suboperations (supervisor code sequences). *)

let c_validate = 150 (* decode arguments, validate an object identifier *)
let c_slot_alloc = 200 (* allocate a descriptor slot, assign generation *)
let c_slot_free = 120
let c_hash_update = 180 (* insert/remove one hash-chained record *)
let c_descriptor_copy_per_word = 10 (* copy descriptor state in/out, per 4 bytes *)
let c_sched_enqueue = 150
let c_sched_dequeue = 150
let c_writeback_record = 2400 (* marshal a writeback record onto the channel *)
let c_writeback_signal = 500 (* notify the owning kernel's writeback channel *)
let c_kernel_writeback = 1500
(* a kernel-object writeback is a short record to the first kernel: no bulk
   descriptor state moves (Table 2's cheap Kernel unload) *)

let c_quota_account = 25
let c_access_check = 80 (* memory-access-array page-group check *)
let c_rtlb_update = 60
let c_signal_queue = 100 (* enqueue a pending signal on a thread *)
let c_signal_dispatch = 300 (* unblock and ready a waiting signal thread *)
let c_pte_install = 500 (* build and link a page-table entry *)
let c_combined_resume = 150
(* return path of the combined load-mapping-and-resume call: cheaper than a
   separate exception-complete trap plus kernel exit *)

let c_pte_remove = 350
let c_cow_copy_per_word = 2 (* deferred-copy page duplication, per word *)
let c_space_table_init = 2100 (* allocate and clear the top-level page table *)
let c_thread_init = 1200 (* register file, FP state, kernel stack binding *)
let c_kernel_init = 500 (* memory access array and quota state setup *)

(** Cycles to copy a descriptor of [bytes] bytes. *)
let descriptor_copy bytes = c_descriptor_copy_per_word * ((bytes + 3) / 4)
