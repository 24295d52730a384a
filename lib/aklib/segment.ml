(* Physical segments: the application kernel's unit of memory content.

   A segment is an array of pages, each of which is zero-filled, resident
   in a physical frame, out on the backing store, or a deferred copy of
   another segment's page (the fork path).  The segment manager moves pages
   between these states; the Cache Kernel only ever sees the mappings that
   result. *)

type resident = {
  pfn : int;
  mutable dirty : bool; (* the frame differs from the on-disk copy, if any:
                           page-out before the frame is reused *)
  mutable backing : int option;
      (* the page's own block: a dirty page-out moves the page to a fresh
         block and frees this one, and whoever drops the page frees it *)
  mutable mappers : (int * int) list; (* (space tag, va) of loaded mappings *)
  mutable referenced : bool;
      (* used since the hand last passed: set by a demand fault's
         mapping load and by a writeback's referenced bit, never by
         prefetch; the hand clears it *)
  mutable cow_pending : (t * int) option;
      (* this residency was created optimistically for a deferred copy from
         (segment, page); if the mapping is written back unmodified the copy
         never happened and the page reverts *)
  mutable faults : int;
      (* faults served on the page, this residency and the remembered ones
         before it; the segment manager halves it as it ages *)
}

and page_state =
  | Zero
  | In_memory of resident
  | On_disk of int (* block *)
  | Cow_of of t * int (* share/copy from another segment's page *)

and t = {
  id : int;
  name : string;
  pages : int;
  table : (int, page_state) Hashtbl.t; (* sparse: absent = Zero *)
  mutable file_backed : bool;
      (* the pages' blocks belong to a file (shared read-only program
         text): paging reads them but never writes or frees them *)
  mutable history : (int, int) Hashtbl.t option;
      (* fault counts of pages that lost their frame, by page: sparse, and
         absent until the segment first loses one *)
}

let resident ?backing pfn =
  { pfn; dirty = false; backing; mappers = []; referenced = false; cow_pending = None; faults = 0 }

let create ~id ~name ~pages =
  { id; name; pages; table = Hashtbl.create 16; file_backed = false; history = None }

let state t page =
  if page < 0 || page >= t.pages then invalid_arg "Segment.state: page out of range";
  match Hashtbl.find_opt t.table page with Some s -> s | None -> Zero

let set_state t page s =
  match s with Zero -> Hashtbl.remove t.table page | _ -> Hashtbl.replace t.table page s
