(** Writeback records: the state of a displaced or unloaded object, sent to
    its owning application kernel over the writeback channel — the analogue
    of a dirty cache line going back to memory.  For mappings, the
    referenced/modified bits tell the application kernel whether the page
    must reach backing store before the frame is reused; for threads, the
    saved execution state allows a later reload. *)

type reason =
  | Displaced  (** evicted to make room for another load *)
  | Requested  (** explicit unload by the owning kernel *)
  | Dependent  (** an object it depends on was unloaded (Figure 6) *)
  | Exited  (** thread finished execution *)
  | Consistency  (** flushed for multi-mapping consistency *)

type mapping_state = {
  va : int;
  pfn : int;
  flags : Hw.Page_table.flags;
  referenced : bool;
  modified : bool;
  had_signal_thread : bool;
}

type record =
  | Mapping_wb of { space : Oid.t; space_tag : int; state : mapping_state; reason : reason }
  | Thread_wb of {
      oid : Oid.t;
      tag : int;
      priority : int;
      state : Thread_obj.saved;
      reason : reason;
    }
  | Space_wb of { oid : Oid.t; tag : int; reason : reason }
  | Kernel_wb of { oid : Oid.t; name : string; reason : reason }
