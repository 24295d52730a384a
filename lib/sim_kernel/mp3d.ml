(* MP3D-style particle-in-cell simulation kernel.

   The paper's running example of a sophisticated application kernel
   (sections 3 and 5.2): a hypersonic wind-tunnel simulation using the
   particle-in-cell technique, run directly on the Cache Kernel for
   application-specific management of physical memory and scheduling.
   Section 5.2 reports "up to a 25 percent degradation in performance in
   the MP3D program from processors accessing particles scattered across
   too many pages", solved by enforcing page locality — copying particles
   so each cell's particles are contiguous.

   This module reproduces that experiment: the same particle workload under
   two placement policies —

   - [Scattered]: particle slots are permuted across the whole array, so
     iterating one cell's particles touches many pages (TLB pressure);
   - [Clustered]: particles are laid out cell-major, so a cell's particles
     share a handful of pages.

   Particles live in simulated memory (8 words each) and every access goes
   through the MMU/TLB/cache models, so the degradation *emerges* from the
   memory system rather than being asserted.

   It also demonstrates application-controlled paging: the kernel installs
   its own replacement policy that prefers evicting pages of cells far
   from the ones being processed ("it can identify the portion of its data
   set to page out to provide room for data it is about to process"). *)

open Cachekernel
open Aklib

type placement = Scattered | Clustered

let pp_placement ppf = function
  | Scattered -> Fmt.string ppf "scattered"
  | Clustered -> Fmt.string ppf "clustered"

let particle_words = 8
let particle_bytes = particle_words * 4
let particles_per_page = Hw.Addr.page_size / particle_bytes (* 128 *)

type t = {
  ak : App_kernel.t;
  vsp : Segment_mgr.vspace;
  seg : Segment.t;
  base : int; (* particle array base virtual address *)
  particles : int;
  cells : int;
  placement : placement;
  compute_per_particle : Hw.Cost.cycles;
  mutable active_window : int * int; (* cell range being processed *)
}

(* Cell of particle [p]. *)
let cell_of t p = p mod t.cells

(* Slot (array index) where particle [p] is stored, per placement. *)
let slot_of t p =
  match t.placement with
  | Clustered ->
    (* cell-major: all of cell c's particles contiguous *)
    let c = cell_of t p in
    let rank = p / t.cells in
    (c * (t.particles / t.cells)) + rank
  | Scattered ->
    (* multiplicative permutation scatters consecutive ranks across pages *)
    p * 2654435761 mod t.particles

let va_of_slot t slot = t.base + (slot * particle_bytes)

(** Create the simulation kernel state on application kernel [ak]. *)
let create ak ~particles ~cells ~placement ?(compute_per_particle = 100) () =
  if particles mod cells <> 0 then invalid_arg "Mp3d.create: cells must divide particles";
  let mgr = ak.App_kernel.mgr in
  match Segment_mgr.create_space mgr with
  | Error e -> Error e
  | Ok vsp ->
    let pages = (particles * particle_bytes / Hw.Addr.page_size) + 1 in
    let seg = Segment_mgr.create_segment mgr ~name:"particles" ~pages in
    let base = 0x20000000 in
    Segment_mgr.attach_region mgr vsp
      (Region.v ~va_start:base ~pages ~segment:seg ~seg_offset:0 ());
    Ok
      {
        ak;
        vsp;
        seg;
        base;
        particles;
        cells;
        placement;
        compute_per_particle;
        active_window = (0, cells);
      }

(* One particle update: read position and velocity, move, write back —
   six memory accesses plus the collision/move computation. *)
let update_particle t p =
  let va = va_of_slot t (slot_of t p) in
  let x = Hw.Exec.mem_read va in
  let v = Hw.Exec.mem_read (va + 4) in
  let flags = Hw.Exec.mem_read (va + 8) in
  Hw.Exec.compute t.compute_per_particle;
  Hw.Exec.mem_write va (x + v);
  Hw.Exec.mem_write (va + 4) (v lxor (flags land 1));
  Hw.Exec.mem_write (va + 12) p

(* Process the particles of cells [c0, c1) — one worker's share of a step. *)
let process_cells t ~c0 ~c1 =
  t.active_window <- (c0, c1);
  for c = c0 to c1 - 1 do
    (* particles of cell c are c, c+cells, c+2*cells, ... *)
    let per_cell = t.particles / t.cells in
    for rank = 0 to per_cell - 1 do
      update_particle t (c + (rank * t.cells))
    done
  done

type report = {
  placement : placement;
  steps : int;
  elapsed_us : float;
  us_per_step : float;
  tlb_miss_rate : float;
  cache_miss_rate : float;
  page_ins : int;
  evictions : int;
}

let pp_report ppf r =
  Fmt.pf ppf "%a: %.1f us/step, tlb-miss %.3f, cache-miss %.3f, page-ins %d, evictions %d"
    pp_placement r.placement r.us_per_step r.tlb_miss_rate r.cache_miss_rate r.page_ins
    r.evictions

(* A simple barrier for worker gangs: OCaml state polled with a yield, so
   waiting threads burn (charged) poll cycles rather than blocking. *)
type barrier = { mutable arrived : int; mutable generation : int; parties : int }

let barrier_wait b =
  let gen = b.generation in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    b.generation <- gen + 1
  end
  else begin
    let rec spin () =
      if b.generation = gen then begin
        Hw.Exec.compute 120;
        ignore (Hw.Exec.trap Api.Ck_yield);
        spin ()
      end
    in
    spin ()
  end

(** Run [steps] simulation steps on [workers] worker threads (one per CPU
    by default) and report timing and memory-system behaviour. *)
let run t ~steps ?workers () =
  let inst = t.ak.App_kernel.inst in
  let node = inst.Instance.node in
  let workers = match workers with Some w -> w | None -> Hw.Mpm.n_cpus node in
  let cells_per_worker = (t.cells + workers - 1) / workers in
  (* reset memory-system statistics for a clean measurement *)
  Array.iter (fun (c : Hw.Cpu.t) -> Hw.Tlb.reset_stats c.Hw.Cpu.tlb) node.Hw.Mpm.cpus;
  Hw.Cache_sim.reset_stats node.Hw.Mpm.cache;
  let t0 = Hw.Mpm.now node in
  let barrier = { arrived = 0; generation = 0; parties = workers } in
  let worker w () =
    let c0 = w * cells_per_worker in
    let c1 = min t.cells ((w + 1) * cells_per_worker) in
    for _step = 1 to steps do
      process_cells t ~c0 ~c1;
      barrier_wait barrier
    done
  in
  for w = 0 to workers - 1 do
    match
      Thread_lib.spawn t.ak.App_kernel.threads ~space_tag:t.vsp.Segment_mgr.tag
        ~priority:12
        ~affinity:(w mod Hw.Mpm.n_cpus node)
        (Hw.Exec.unit_body (worker w))
    with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "mp3d worker spawn: %a" Api.pp_error e
  done;
  ignore (Engine.run [| inst |]);
  let elapsed = Hw.Cost.us_of_cycles (Hw.Mpm.now node - t0) in
  let tlb_hits, tlb_misses =
    Array.fold_left
      (fun (h, m) (c : Hw.Cpu.t) -> (h + Hw.Tlb.hits c.Hw.Cpu.tlb, m + Hw.Tlb.misses c.Hw.Cpu.tlb))
      (0, 0) node.Hw.Mpm.cpus
  in
  let ch = Hw.Cache_sim.hits node.Hw.Mpm.cache
  and cm = Hw.Cache_sim.misses node.Hw.Mpm.cache in
  let rate a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  {
    placement = t.placement;
    steps;
    elapsed_us = elapsed;
    us_per_step = elapsed /. float_of_int steps;
    tlb_miss_rate = rate tlb_misses tlb_hits;
    cache_miss_rate = rate cm ch;
    page_ins = Backing_store.page_ins t.ak.App_kernel.store;
    evictions = (Segment_mgr.stats t.ak.App_kernel.mgr).Segment_mgr.evictions;
  }

(** Install the application-specific page-replacement policy: keep a
    particle page while any of its cells is in the active window and let
    it go otherwise, whatever its mapping and referenced bit say; Clock
    decides the other pages.  This is the application-controlled physical
    memory of Harty & Cheriton that the Cache Kernel model exports to user
    level.  Scattered pages mix every cell, so the window says nothing
    about them and Clock decides those too. *)
let install_locality_aware_eviction t =
  let mgr = t.ak.App_kernel.mgr in
  let default = mgr.Segment_mgr.keep in
  (* clustered placement is cell-major: a page's slots hold the particles
     of one contiguous range of cells *)
  let per_cell = max 1 (t.particles / t.cells) in
  let in_window page =
    let c0, c1 = t.active_window in
    let first = page * particles_per_page in
    first / per_cell < c1 && (first + particles_per_page - 1) / per_cell >= c0
  in
  mgr.Segment_mgr.keep <-
    (fun seg page r ->
      if seg == t.seg && t.placement = Clustered then in_window page else default seg page r)
