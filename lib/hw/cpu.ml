(* One processor of an MPM: local time, TLB, reverse TLB and counters.

   Each CPU has its own local clock so the engine can interleave processors
   at effect granularity; the MPM clock is the maximum of its CPUs. *)

type t = {
  id : int;
  tlb : Tlb.t;
  rtlb : Rtlb.t;
  mutable local_time : Cost.cycles;
  mutable busy_cycles : Cost.cycles;
  mutable idle_cycles : Cost.cycles;
  mutable switches : int; (* context switches performed *)
}

let create ~id =
  {
    id;
    tlb = Tlb.create ();
    rtlb = Rtlb.create ();
    local_time = 0;
    busy_cycles = 0;
    idle_cycles = 0;
    switches = 0;
  }

(** Charge [c] cycles of useful work on this CPU. *)
let charge t c =
  assert (c >= 0);
  t.local_time <- t.local_time + c;
  t.busy_cycles <- t.busy_cycles + c

(** Advance the CPU's clock to [time], accounting the gap as idle. *)
let idle_until t time =
  if time > t.local_time then begin
    t.idle_cycles <- t.idle_cycles + (time - t.local_time);
    t.local_time <- time
  end

let pp ppf t =
  Fmt.pf ppf "cpu%d@%.1fus (busy %.1fus, idle %.1fus)" t.id
    (Cost.us_of_cycles t.local_time)
    (Cost.us_of_cycles t.busy_cycles)
    (Cost.us_of_cycles t.idle_cycles)
