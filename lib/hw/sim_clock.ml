(* Simulated per-MPM clock, in cycles.

   Each MPM runs its own Cache Kernel instance and therefore its own notion
   of local time; cross-node interactions synchronise through the
   interconnect's event delivery. *)

type t = { mutable now : Cost.cycles }

let create () = { now = 0 }
let now t = t.now
let us t = Cost.us_of_cycles t.now

(** Advance the clock by [c] cycles. *)
let advance t c =
  assert (c >= 0);
  t.now <- t.now + c

let pp ppf t = Fmt.pf ppf "%.2fus" (us t)
