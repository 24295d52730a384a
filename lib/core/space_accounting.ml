(* Space-overhead accounting (section 5.2, experiment C4).

   The paper's argument: mapping descriptors are 16 bytes per 4 KB page —
   as little as 0.4 % overhead on the space they map; page tables add about
   half as much again under reasonable clustering; first- and second-level
   tables cost about 5 KB per address space. *)

type report = {
  mapped_pages : int;
  mapped_bytes : int;
  mapping_descriptor_bytes : int; (* 16-byte dependency records *)
  page_table_bytes : int;
  kernel_descriptor_bytes : int;
  space_descriptor_bytes : int;
  thread_descriptor_bytes : int;
  descriptor_overhead_percent : float; (* mapping descriptors / mapped bytes *)
  total_overhead_percent : float; (* all structures / mapped bytes *)
}

let measure (t : Instance.t) =
  let mapped_pages = Mappings.live t.Instance.mappings in
  let mapped_bytes = mapped_pages * Hw.Addr.page_size in
  let mapping_descriptor_bytes =
    Mappings.dependency_records t.Instance.mappings * Config.mapping_desc_bytes
  in
  let page_table_bytes =
    Caches.Space_cache.fold t.Instance.spaces
      (fun acc sp -> acc + Hw.Page_table.space_bytes sp.Space_obj.table)
      0
  in
  let kernel_descriptor_bytes =
    Caches.Kernel_cache.live t.Instance.kernels * Config.kernel_desc_bytes
  in
  let space_descriptor_bytes =
    Caches.Space_cache.live t.Instance.spaces * Config.space_desc_bytes
  in
  let thread_descriptor_bytes =
    Caches.Thread_cache.live t.Instance.threads * Config.thread_desc_bytes
  in
  let pct n =
    if mapped_bytes = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int mapped_bytes
  in
  {
    mapped_pages;
    mapped_bytes;
    mapping_descriptor_bytes;
    page_table_bytes;
    kernel_descriptor_bytes;
    space_descriptor_bytes;
    thread_descriptor_bytes;
    descriptor_overhead_percent = pct mapping_descriptor_bytes;
    total_overhead_percent =
      pct
        (mapping_descriptor_bytes + page_table_bytes + kernel_descriptor_bytes
       + space_descriptor_bytes + thread_descriptor_bytes);
  }

let pp ppf r =
  Fmt.pf ppf
    "mapped: %d pages (%d KB)@;\
     mapping descriptors: %d B (%.2f%% of mapped space)@;\
     page tables: %d B@;\
     kernel/space/thread descriptors: %d/%d/%d B@;\
     total overhead: %.2f%%"
    r.mapped_pages (r.mapped_bytes / 1024) r.mapping_descriptor_bytes
    r.descriptor_overhead_percent r.page_table_bytes r.kernel_descriptor_bytes
    r.space_descriptor_bytes r.thread_descriptor_bytes r.total_overhead_percent
