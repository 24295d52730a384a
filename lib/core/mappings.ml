(* The mapping cache and the physical memory map.

   Section 4.1: page-mapping information is split across the per-space page
   tables (virtual-to-physical, flags) and a physical memory map of 16-byte
   descriptors recording dependencies — the physical-to-virtual dependency
   being the dominant case, with signal-thread and copy-on-write-source
   records stored the same way.  Mappings are identified by (address space,
   virtual address), not by a general object identifier, to avoid a per-
   descriptor identifier field.

   This module is the data structure only; page-table updates, TLB flushes,
   access checks and writeback are composed around it by {!Api} and
   {!Replacement}. *)

type m = {
  slot : int;
  owner : Oid.t; (* owning kernel *)
  space : Oid.t;
  va : int; (* page-aligned virtual address *)
  pte : Hw.Page_table.entry; (* shared with the space's page table *)
  mutable signal_thread : Oid.t option;
  mutable cow_dst : int option;
      (* destination frame of a deferred copy: the mapping points at the
         source frame read-only until the first write fault, when the Cache
         Kernel copies the page into this frame and remaps writable *)
  mutable locked : bool;
  mutable removed : bool;
      (* set once the record has left the cache: the re-entrant
         consistency writeback ({!Replacement.writeback_mapping}) can
         reach a sibling twice, and the flag makes the second visit an
         exact no-op instead of a double-decrement hidden by counter
         floors *)
  mutable aged_referenced : bool;
      (* page aging: the clock hand clears the hardware referenced bit to
         grant a second chance, which would otherwise destroy the only
         record that the mapping was ever used.  The cleared bit is
         accumulated here so the writeback record can still tell the owner
         "referenced since load" — the signal its prefetch and replacement
         policies feed on. *)
}

let pfn (m : m) = m.pte.Hw.Page_table.frame

type t = {
  capacity : int; (* the replacement bound *)
  mutable slots : m option array;
      (* grown on demand up to [capacity]: storage is paid for on first use *)
  mutable recycled : int list; (* freed slots, most recently freed first *)
  mutable fresh : int; (* slots [fresh, capacity) have never been used *)
  mutable live : int;
  policy : Policy.t; (* victim selection, owns the clock hand *)
  by_key : (int * int, int) Hashtbl.t; (* (space slot, vpn) -> slot *)
  by_pfn : (int, int list ref) Hashtbl.t; (* physical page -> slots *)
  by_thread : (Oid.t, int list ref) Hashtbl.t; (* signal thread -> slots *)
  mutable dependency_records : int; (* 16-byte descriptors in use *)
  mutable version : int;
      (* bumped on every structural change: the analogue of the version
         counters the lock-free implementation uses to detect concurrent
         modification (section 4.2) *)
}

let create ?(policy = Policy.Clock) ~capacity () =
  if capacity <= 0 then invalid_arg "Mappings.create: capacity must be positive";
  {
    capacity;
    slots = Array.make (min capacity 64) None;
    recycled = [];
    fresh = 0;
    live = 0;
    policy = Policy.create ~capacity policy;
    by_key = Hashtbl.create 1024;
    by_pfn = Hashtbl.create 1024;
    by_thread = Hashtbl.create 64;
    dependency_records = 0;
    version = 0;
  }

let capacity t = t.capacity
let live t = t.live
let is_full t = t.live = t.capacity
let version t = t.version

(** Count of 16-byte dependency descriptors currently in use (physical-to-
    virtual, signal and copy-on-write records), for space accounting. *)
let dependency_records t = t.dependency_records

let key_of ~space_slot ~va = (space_slot, Hw.Addr.page_of va)

let multi_add table k slot =
  match Hashtbl.find_opt table k with
  | Some l -> l := slot :: !l
  | None -> Hashtbl.replace table k (ref [ slot ])

let multi_remove table k slot =
  match Hashtbl.find_opt table k with
  | None -> ()
  | Some l ->
    l := List.filter (fun s -> s <> slot) !l;
    if !l = [] then Hashtbl.remove table k

(** Record count for one mapping: one phys-to-virt record, plus one per
    signal thread, plus one per copy-on-write source. *)
let records_of (m : m) =
  1 + (if m.signal_thread = None then 0 else 1) + if m.cow_dst = None then 0 else 1

(* Slots are handed out as an eagerly built free list would: recycled
   slots most recently freed first, then never-used ones in ascending
   order.  Returns -1 when the cache is full. *)
let take_slot t =
  match t.recycled with
  | slot :: rest ->
    t.recycled <- rest;
    slot
  | [] when t.fresh < t.capacity ->
    let slot = t.fresh in
    t.fresh <- slot + 1;
    let len = Array.length t.slots in
    if slot >= len then begin
      let grown = Array.make (min t.capacity (2 * len)) None in
      Array.blit t.slots 0 grown 0 len;
      t.slots <- grown
    end;
    slot
  | [] -> -1

(** Insert a fully built mapping record.  The caller has already installed
    the shared page-table entry.  Returns [None] when the cache is full. *)
let insert t ~owner ~space_slot ~space ~va ~pte ~signal_thread ~cow_dst ~locked =
  match take_slot t with
  | -1 -> None
  | slot ->
    let m =
      { slot; owner; space; va; pte; signal_thread; cow_dst; locked;
        removed = false; aged_referenced = false }
    in
    t.slots.(slot) <- Some m;
    t.live <- t.live + 1;
    Policy.on_load t.policy ~slot;
    Hashtbl.replace t.by_key (key_of ~space_slot ~va) slot;
    multi_add t.by_pfn (pfn m) slot;
    (match signal_thread with Some th -> multi_add t.by_thread th slot | None -> ());
    t.dependency_records <- t.dependency_records + records_of m;
    t.version <- t.version + 1;
    Some m

(** Look up the mapping for [va] in the space occupying [space_slot]. *)
let find t ~space_slot ~va =
  match Hashtbl.find_opt t.by_key (key_of ~space_slot ~va) with
  | None -> None
  | Some slot -> t.slots.(slot)

(** Remove a mapping record (page-table/TLB cleanup is the caller's job). *)
let remove t ~space_slot (m : m) =
  (match t.slots.(m.slot) with
  | Some m' when m' == m -> ()
  | _ -> invalid_arg "Mappings.remove: mapping not present");
  m.removed <- true;
  t.slots.(m.slot) <- None;
  t.recycled <- m.slot :: t.recycled;
  t.live <- t.live - 1;
  Hashtbl.remove t.by_key (key_of ~space_slot ~va:m.va);
  multi_remove t.by_pfn (pfn m) m.slot;
  (match m.signal_thread with Some th -> multi_remove t.by_thread th m.slot | None -> ());
  t.dependency_records <- t.dependency_records - records_of m;
  t.version <- t.version + 1

(** Rebind (or clear) the signal thread of a loaded mapping — the signal
    redirection mechanism of section 2.3. *)
let set_signal_thread t (m : m) thread =
  (match m.signal_thread with Some old -> multi_remove t.by_thread old m.slot | None -> ());
  t.dependency_records <- t.dependency_records - records_of m;
  m.signal_thread <- thread;
  t.dependency_records <- t.dependency_records + records_of m;
  (match thread with Some th -> multi_add t.by_thread th m.slot | None -> ());
  t.version <- t.version + 1

(** Move a mapping to a new physical frame (deferred-copy completion):
    rekeys the physical-to-virtual dependency record. *)
let retarget t (m : m) ~new_pfn =
  multi_remove t.by_pfn (pfn m) m.slot;
  m.pte.Hw.Page_table.frame <- new_pfn;
  multi_add t.by_pfn new_pfn m.slot;
  t.version <- t.version + 1

(** Clear a completed deferred copy. *)
let clear_cow t (m : m) =
  if m.cow_dst <> None then begin
    t.dependency_records <- t.dependency_records - 1;
    m.cow_dst <- None;
    t.version <- t.version + 1
  end

(** All loaded mappings of physical page [pfn] — the physical-to-virtual
    lookup used for signal delivery and page reclamation. *)
let of_pfn t ~pfn =
  match Hashtbl.find_opt t.by_pfn pfn with
  | None -> []
  | Some l -> List.filter_map (fun s -> t.slots.(s)) !l

(** Mappings whose signal thread is [thread] (dependents to unload when the
    thread is written back: Figure 6's signal-mapping -> thread arrow). *)
let of_signal_thread t ~thread =
  match Hashtbl.find_opt t.by_thread thread with
  | None -> []
  | Some l -> List.filter_map (fun s -> t.slots.(s)) !l

(** Victim selection under the configured policy (clock second chance by
    default): returns a victim for which [protected] is false.  Policies
    age the hardware referenced bit as they scan, accumulating it into
    [aged_referenced] so the writeback record still reports "referenced
    since load". *)
let victim t ~protected =
  Policy.select t.policy
    {
      (* slots past the grown storage have never held a mapping *)
      Policy.get = (fun slot -> if slot < Array.length t.slots then t.slots.(slot) else None);
      candidate = (fun m -> not (protected m));
      referenced = (fun m -> m.pte.Hw.Page_table.referenced);
      clear_referenced =
        (fun m ->
          m.pte.Hw.Page_table.referenced <- false;
          m.aged_referenced <- true);
    }

(** Slots examined by the most recent {!victim} call. *)
let last_scan_length t = Policy.last_scan_length t.policy

let iter t f = Array.iter (function None -> () | Some m -> f m) t.slots

(** Mappings belonging to the space occupying [space_slot]. *)
let of_space t ~space_slot =
  Hashtbl.fold
    (fun (s, _) slot acc ->
      if s = space_slot then
        match t.slots.(slot) with Some m -> m :: acc | None -> acc
      else acc)
    t.by_key []
