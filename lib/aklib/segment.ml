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
      (* the page's own block, kept for the page's life: a dirty page-out
         rewrites it in place, and whoever drops the page frees it *)
  mutable mappers : (int * int) list; (* (space tag, va) of loaded mappings *)
  mutable cow_pending : (t * int) option;
      (* this residency was created optimistically for a deferred copy from
         (segment, page); if the mapping is written back unmodified the copy
         never happened and the page reverts *)
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
  mutable resident_count : int;
  mutable file_backed : bool;
      (* the pages' blocks belong to a file (shared read-only program
         text): paging reads them but never writes or frees them *)
}

let create ~id ~name ~pages =
  { id; name; pages; table = Hashtbl.create 16; resident_count = 0; file_backed = false }

let state t page =
  if page < 0 || page >= t.pages then invalid_arg "Segment.state: page out of range";
  match Hashtbl.find_opt t.table page with Some s -> s | None -> Zero

let set_state t page s =
  let was_resident =
    match Hashtbl.find_opt t.table page with Some (In_memory _) -> true | _ -> false
  in
  let is_resident = match s with In_memory _ -> true | _ -> false in
  (match s with Zero -> Hashtbl.remove t.table page | _ -> Hashtbl.replace t.table page s);
  if was_resident && not is_resident then t.resident_count <- t.resident_count - 1
  else if is_resident && not was_resident then t.resident_count <- t.resident_count + 1

let resident_count t = t.resident_count

(** Iterate over resident pages. *)
let iter_resident t f =
  Hashtbl.iter (fun page -> function In_memory r -> f page r | _ -> ()) t.table

let pp ppf t =
  Fmt.pf ppf "segment#%d %s (%d pages, %d resident)" t.id t.name t.pages t.resident_count
