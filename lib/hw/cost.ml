(* Cycle cost model for the simulated MPM.

   The ParaDiGM prototype runs four Motorola 68040 processors at 25 MHz, so
   one cycle is 0.04 microseconds.  All simulated time in the repository is
   expressed in integer cycles; elapsed times reported by benchmarks are
   converted with {!us_of_cycles}.

   The constants below are costs of *hardware primitives*.  Costs of Cache
   Kernel operations are not constants anywhere: they emerge from the number
   of primitive actions each operation performs, which is what lets the
   benchmark tables reproduce the *shape* of the paper's measurements. *)

type cycles = int

let clock_mhz = 25

(** Convert a cycle count to simulated microseconds. *)
let us_of_cycles (c : cycles) : float = float_of_int c /. float_of_int clock_mhz

(** Convert simulated microseconds to cycles. *)
let cycles_of_us (us : float) : cycles =
  int_of_float (Float.round (us *. float_of_int clock_mhz))

(* Memory system *)

let mem_word_cached : cycles = 2 (* second-level cache hit *)
let mem_word_miss : cycles = 24 (* second-level cache miss: third-level DRAM *)

(* Address translation *)

let tlb_lookup : cycles = 1
let page_table_level : cycles = 18 (* one level of a table walk (memory read) *)
let tlb_flush_page : cycles = 4
let tlb_flush_space : cycles = 40

(* Control transfer *)

let trap_entry : cycles = 250 (* user -> supervisor trap, state save *)
let trap_exit : cycles = 90 (* supervisor -> user return, state restore *)

let exception_forward : cycles = 550
(* switch a faulting thread onto its application kernel's exception stack:
   save the full fault state in the descriptor, switch address space,
   switch stack and program counter (Figure 2 step 2) *)

let trap_forward : cycles = 200
(* forward a trap instruction to the application kernel's trap handler: the
   lighter-weight sibling of [exception_forward] — no fault state to
   capture, "similar techniques to those described for UNIX binary
   emulation" (section 2.3) *)

let exception_return : cycles = 170 (* Figure 2 steps 5-6, without the load *)

let batch_entry : cycles = 60
(* marginal cost of one additional entry in a batched kernel call: the
   decode/validate work for a spec that arrived through an already-validated
   crossing.  Much cheaper than a full per-call validate (the point of
   batching): the trap entry, argument-block fetch and page-group lookup are
   paid once for the whole batch *)
let context_switch : cycles = 220 (* full register/space switch *)
let dispatch : cycles = 45 (* scheduler picks next thread *)

(* Interconnect *)

let interprocessor_signal : cycles = 150 (* cross-CPU notification on one MPM *)
let vme_packet : cycles = 2500 (* VMEbus transfer between MPMs, 100 us *)
let fiber_packet : cycles = 750 (* 266 Mb fiber channel hop, 30 us *)

(** Wire serialization of [bytes] on the 266 Mb/s fiber: ~33 MB/s is
    0.75 cycles per byte at 25 MHz.  Frames queue behind each other on a
    port, so bulk transfers (migration images, DSM pages) pay this per
    byte on top of the per-hop latency. *)
let fiber_serialize bytes : cycles = bytes * 3 / 4

(** VMEbus serialization: the shared bus moves ~25 MB/s, one cycle per
    byte. *)
let vme_serialize bytes : cycles = bytes

(* Devices *)

let disk_seek : cycles = 250_000 (* 10 ms *)
let disk_page_transfer : cycles = 50_000 (* 2 ms per 4 KB page *)

(* Fast paging tier: a pinned local-RAM backing segment.  Moving a page is
   a memory-to-memory copy plus a little channel setup — no seek, no
   rotational transfer — which is what makes tiering the backing store
   worthwhile at all (~100 us against ~12 ms for the disk path). *)

let fast_tier_setup : cycles = 400
let fast_tier_page_copy : cycles = 2048 (* 4 KB at 2 cycles per cached word *)
let ethernet_dma_setup : cycles = 400
let ethernet_wire : cycles = 30_000 (* 1.2 ms for a full frame at 10 Mb *)
