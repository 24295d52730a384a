(** Cross-layer invariant auditor.

    Walks one Cache Kernel instance and checks that the four object
    caches, the MMU state (page tables, TLBs, reverse TLBs), the derived
    counters and the per-type load/unload statistics are mutually
    consistent — the invariants the paper's dependency-ordered replacement
    (section 4.2, Figure 6) promises.

    The audit only detects: it changes no object and charges no simulated
    cycles, so auditing twice reports the same violations.  Every finding
    raises an [audit.violation.<check>] metric and an [Audit_violation]
    trace event; every audit counts [audit.runs].  The engine never audits:
    whoever reports a run ([ckos], the chaos and failover tests, perfbench)
    audits it after the engine returns. *)

type violation = {
  check : string;
      (** invariant class: ["dependency"], ["translation"], ["counter"],
          ["conservation"] or ["quota"] *)
  subject : string;  (** the object or counter found inconsistent *)
  detail : string;
}

type report = { at_us : float; violations : violation list }

val run : Instance.t -> report
(** Audit the instance. *)

val clean : report -> bool
(** No violations at all. *)

val violation_json : violation -> Json.t
val report_json : report -> Json.t
val pp_report : report Fmt.t
