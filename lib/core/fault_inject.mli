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

val io_fate : t -> [ `Ok | `Ok_after_fail | `Fail | `Delay of float ]
(** Site [bstore]: fate of one backing-store transfer attempt.
    [`Ok_after_fail] is the retry after a [`Fail] (always succeeds);
    [`Delay us] completes on its own after an extra [us] microseconds. *)

val tier_fate : t -> promote:bool -> [ `Ok | `Ok_after_fail | `Fail | `Delay of float ]
(** Sites [tier.promote] / [tier.demote]: fate of one transfer on the
    tiered backing store's promotion or demotion path, with the same
    never-twice-in-a-row retry protocol as {!io_fate}. *)

val signal_fate : t -> [ `Deliver | `Drop | `Duplicate ]
(** Site [signal]: fate of one signal delivery. *)

val io_max_retries : t -> int
val io_retry_backoff_us : t -> float
val redeliver_backoff_us : t -> float

val take_crash_at_us : t -> float option
(** One-shot: the simulated time (us) at which to crash the MPM, if
    configured and not yet taken. *)

val take_partition_plan : t -> nodes:int list -> (float * float * int list) option
(** One-shot seeded plan for the [net.partition] / [net.heal] sites:
    [(sever_us, heal_us, minority)] where [minority] is drawn from the
    [net.partition] stream over [nodes] (the lowest node id is never in
    the minority, keeping a recovery leader in the majority).  [None] when
    no partition is configured or the latch was already taken. *)
