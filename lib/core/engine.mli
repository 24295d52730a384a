(** The execution engine: a discrete-event simulation of the MPM's
    processors running loaded threads under the Cache Kernel.

    Each step resumes one CPU's current thread to its next effect point,
    charges the hardware and supervisor cycle costs, and handles the
    scheduling, fault-forwarding (Figure 2) and signal consequences.
    Simulations are deterministic: the same programs produce the same
    event sequence and the same simulated times on every run. *)

exception Kernel_bug of string

val window_caps : times:int array -> active:bool array -> int array -> unit
(** [window_caps ~times ~active caps] sets each [caps.(i)] to the minimum
    of [times.(m) + Hw.Cost.fiber_packet] over active nodes [m <> i]
    ([max_int] when there are none): the window bound {!run} gives node
    [i].  Linear in the node count. *)

val run : ?until_us:float -> ?max_steps:int -> Instance.t array -> int
(** Run a cluster of Cache Kernel instances until every node is quiescent,
    the simulated-time bound is reached, or [max_steps] engine steps have
    executed.  Returns the number of steps taken.

    Every cluster size, one node included, advances in windows bounded by
    the conservative lookahead cap: each node steps in turn while below
    every active peer's clock plus the minimum link latency, and a node
    that sends a frame stops at the earliest instant a reply could come
    back.  A lone node has no peer, so only [until_us] bounds it: no idle
    jump, even to a far-future timer, carries a node's clock past the
    deadline.  Interconnect frames land on the destination's event queue
    when they are sent.  At the end every CPU clock of a node is levelled
    to the node's latest time. *)
