(** Cross-layer invariant auditor with self-healing repair.

    Walks one Cache Kernel instance and checks that the four object
    caches, the MMU state (page tables, TLBs, reverse TLBs), the derived
    counters and the per-type load/unload statistics are mutually
    consistent — the invariants the paper's dependency-ordered replacement
    (section 4.2, Figure 6) promises.

    Checks charge no simulated cycles.  With [~repair:true], recoverable
    drift is fixed in place: counters are recounted, stale TLB/RTLB/page
    table entries flushed, orphaned objects written back to their owners
    through the ordinary writeback channel.  Every finding raises an
    [audit.violation.<check>] metric (and [audit.repair.<check>] when
    repaired) plus [Audit_violation] / [Audit_repaired] trace events. *)

type violation = {
  check : string;
      (** invariant class: ["dependency"], ["translation"], ["counter"],
          ["conservation"] or ["quota"] *)
  subject : string;  (** the object or counter found inconsistent *)
  detail : string;
  repaired : bool;
}

type report = { at_us : float; violations : violation list }

val run : ?repair:bool -> Instance.t -> report
(** Audit the instance; [repair] defaults to [false] (detect only). *)

val clean : report -> bool
(** No violations at all. *)

val unrepaired : report -> violation list
(** Violations the repair pass could not (or was not asked to) fix. *)

val violation_json : violation -> Json.t
val report_json : report -> Json.t
val pp_report : report Fmt.t
