(* Writeback records.

   When the Cache Kernel displaces an object (or an application kernel
   explicitly unloads one), the object's state is written back to its owning
   kernel over a writeback channel — the analogue of a dirty cache line
   going back to memory.  The records carry everything the application
   kernel needs to update its own descriptors and reload the object later:
   for mappings, the current referenced/modified bits (used to decide
   whether the page must go to backing store before the frame is reused);
   for threads, the saved execution state. *)

type reason =
  | Displaced (* evicted to make room for another load *)
  | Requested (* explicit unload by the owning kernel *)
  | Dependent (* unloaded because an object it depends on was unloaded *)
  | Exited (* thread finished execution *)
  | Consistency (* flushed for multi-mapping consistency *)

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
      oid : Oid.t; (* now-stale identifier, for correlation *)
      tag : int;
      priority : int;
      state : Thread_obj.saved;
      reason : reason;
    }
  | Space_wb of { oid : Oid.t; tag : int; reason : reason }
  | Kernel_wb of { oid : Oid.t; name : string; reason : reason }
