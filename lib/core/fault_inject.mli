(** Deterministic fault-injection plane (DESIGN.md section 6, "Injection
    and recovery").

    Each named site draws from a private splitmix64 stream seeded
    [Config.chaos_seed lxor hash site], so runs with equal configurations
    inject at identical points and sites never perturb each other.  Sites
    that force callers onto a retry path never inject twice in a row:
    injected failures are transient, making single-retry recovery a
    guaranteed-progress protocol rather than a hope. *)

type t

val create : Config.chaos option -> t
(** [create chaos] builds the plane; [None] disables every site. *)

val enabled : t -> bool

val sites : string list
(** Every site name that reports through {!inject} / {!recover}, i.e.
    every [inject.<site>] / [recover.<site>] counter a run can produce
    (DESIGN.md section 6). *)

val set_hooks : t -> on_inject:(string -> unit) -> on_recover:(string -> unit) -> unit
(** Install the observability callbacks.  {!Instance.create} points these
    at [inject.<site>] / [recover.<site>] metrics counters and
    [Injected] / [Recovered] trace events. *)

val inject : t -> site:string -> unit
(** Report an injection at [site] through the installed hook. *)

val recover : t -> site:string -> unit
(** Report a recovery at [site] through the installed hook. *)

(** Outcome of a retry-path site: [Inject] fail this attempt (the site is
    now pending), [After_inject] the previous attempt here was injected
    and this retry must succeed (the recovery moment), [Pass] nothing. *)
type decision = Inject | After_inject | Pass

val decide : t -> site:string -> rate:float -> decision

val stale_load : t -> decision
(** Site [stale.load]: an object load observes a stale space identifier. *)

val forward_drop : t -> decision
(** Site [fault.forward]: a fault forward to the handling kernel is lost;
    the paused access refaults and the retry forwards successfully. *)

val migrate_drop : t -> decision
(** Site [migrate.drop]: a migration chunk is lost on the fiber channel;
    the retransmit watchdog resends it (the recovery moment). *)

(** A store transfer site: [site] names its decision stream and prefixes
    its [.fail] / [.delay] reports, [kind_site] is the stream that splits
    a hit into fail or delay, and [rates] picks the (fail, delay) rates
    from the chaos configuration. *)
type io_site = { site : string; kind_site : string; rates : Config.chaos -> float * float }

val bstore : io_site
(** [bstore] / [bstore.kind], rates [io_fail] / [io_delay]: the backing
    store's disk transfers. *)

val tier_promote : io_site
val tier_demote : io_site
(** [tier.promote] and [tier.demote] / [tier.kind], rates [tier_fail] /
    [tier_delay]: the tiered store's promotion and demotion paths. *)

val io_fate : t -> io_site -> [ `Ok | `Ok_after_fail | `Fail | `Delay of float ]
(** Fate of one transfer attempt at a store site.  [`Ok_after_fail] is the
    retry after a [`Fail] (always succeeds); [`Delay us] completes on its
    own after an extra [us] microseconds. *)

val signal_fate : t -> [ `Deliver | `Drop | `Duplicate ]
(** Site [signal]: fate of one signal delivery. *)

val io_max_retries : int
val io_retry_backoff_us : float
(** A store transfer that draws a failure retries after
    [io_retry_backoff_us] (200), doubling per attempt, at most
    [io_max_retries] (4) times before it is let through. *)

val redeliver_backoff_us : float
(** Simulated us before a dropped signal is redelivered. *)

val take_crash_at_us : t -> float option
(** One-shot: the simulated time (us) at which to crash the MPM, if
    configured and not yet taken. *)

val take_partition_plan : t -> nodes:int list -> (float * float * int list) option
(** One-shot seeded plan for the [net.partition] / [net.heal] sites:
    [(sever_us, heal_us, minority)] where [minority] is drawn from the
    [net.partition] stream over [nodes] (the lowest node id is never in
    the minority, keeping a recovery leader in the majority).  [None] when
    no partition is configured or the latch was already taken. *)
