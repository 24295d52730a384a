(* 68040-style three-level page tables.

   The current Cache Kernel implementation "uses Motorola 68040 page tables
   as dictated by the hardware" (section 4.1) and the space-overhead argument
   of section 5.2 is built on their sizes: 512-byte top-level tables,
   512-byte second-level tables, and 256-byte third-level tables mapping 64
   pages each.  With 4 KB pages that is a 7/7/6-bit split of the 32-bit
   virtual address. *)

type flags = {
  writable : bool;
  cachable : bool;
  message_mode : bool; (* page participates in memory-based messaging *)
}

let rw = { writable = true; cachable = true; message_mode = false }
let ro = { writable = false; cachable = true; message_mode = false }
let message = { writable = true; cachable = true; message_mode = true }

type entry = {
  mutable frame : int; (* physical page frame number *)
  mutable flags : flags;
  mutable referenced : bool;
  mutable modified : bool;
  mutable remote : bool;
      (* the backing cache line / memory module lives on a remote node or has
         failed: any access raises a consistency fault (section 2.1) *)
}

let make_entry ?(remote = false) ~frame ~flags () =
  { frame; flags; referenced = false; modified = false; remote }

type leaf = { slots : entry option array } (* 64 entries, 256 bytes *)
type mid = { leaves : leaf option array } (* 128 entries, 512 bytes *)
type t = { roots : mid option array; mutable live : int } (* 128 entries *)

let root_bits = 7
let mid_bits = 7
let leaf_bits = 6
let root_entries = 1 lsl root_bits
let mid_entries = 1 lsl mid_bits
let leaf_entries = 1 lsl leaf_bits
let root_table_bytes = 512
let mid_table_bytes = 512
let leaf_table_bytes = 256

let root_index va = (va lsr (Addr.page_shift + mid_bits + leaf_bits)) land (root_entries - 1)
let mid_index va = (va lsr (Addr.page_shift + leaf_bits)) land (mid_entries - 1)
let leaf_index va = (va lsr Addr.page_shift) land (leaf_entries - 1)

let create () = { roots = Array.make root_entries None; live = 0 }

(** Number of mapped pages. *)
let count t = t.live

(** Look up the entry mapping the page containing [va].  Returns the entry
    and the number of table levels walked (for cost accounting). *)
let lookup t va =
  match t.roots.(root_index va) with
  | None -> (None, 1)
  | Some mid -> (
    match mid.leaves.(mid_index va) with
    | None -> (None, 2)
    | Some leaf -> (leaf.slots.(leaf_index va), 3))

(** Install [entry] as the mapping for the page containing [va], allocating
    intermediate tables as needed.  Returns the entry it replaced, if any. *)
let insert t va entry =
  let mid =
    match t.roots.(root_index va) with
    | Some m -> m
    | None ->
      let m = { leaves = Array.make mid_entries None } in
      t.roots.(root_index va) <- Some m;
      m
  in
  let leaf =
    match mid.leaves.(mid_index va) with
    | Some l -> l
    | None ->
      let l = { slots = Array.make leaf_entries None } in
      mid.leaves.(mid_index va) <- Some l;
      l
  in
  let old = leaf.slots.(leaf_index va) in
  leaf.slots.(leaf_index va) <- Some entry;
  (match old with None -> t.live <- t.live + 1 | Some _ -> ());
  old

(** Remove and return the mapping for the page containing [va].  Empty
    intermediate tables are freed so {!space_bytes} stays accurate. *)
let remove t va =
  match t.roots.(root_index va) with
  | None -> None
  | Some mid -> (
    match mid.leaves.(mid_index va) with
    | None -> None
    | Some leaf -> (
      match leaf.slots.(leaf_index va) with
      | None -> None
      | Some e ->
        leaf.slots.(leaf_index va) <- None;
        t.live <- t.live - 1;
        if Array.for_all Option.is_none leaf.slots then begin
          mid.leaves.(mid_index va) <- None;
          if Array.for_all Option.is_none mid.leaves then
            t.roots.(root_index va) <- None
        end;
        Some e))

(** Apply [f va entry] to every live mapping. *)
let iter t f =
  Array.iteri
    (fun ri mid_opt ->
      match mid_opt with
      | None -> ()
      | Some mid ->
        Array.iteri
          (fun mi leaf_opt ->
            match leaf_opt with
            | None -> ()
            | Some leaf ->
              Array.iteri
                (fun li slot ->
                  match slot with
                  | None -> ()
                  | Some e ->
                    let va =
                      (ri lsl (Addr.page_shift + mid_bits + leaf_bits))
                      lor (mi lsl (Addr.page_shift + leaf_bits))
                      lor (li lsl Addr.page_shift)
                    in
                    f va e)
                leaf.slots)
          mid.leaves)
    t.roots

(** List of (virtual address, entry) pairs for every live mapping. *)
let to_list t =
  let acc = ref [] in
  iter t (fun va e -> acc := (va, e) :: !acc);
  List.rev !acc

(** Bytes consumed by the table structure itself: one 512-byte top-level
    table plus 512 bytes per live second-level and 256 bytes per live
    third-level table (section 5.2's space argument). *)
let space_bytes t =
  let bytes = ref root_table_bytes in
  Array.iter
    (function
      | None -> ()
      | Some mid ->
        bytes := !bytes + mid_table_bytes;
        Array.iter
          (function None -> () | Some _ -> bytes := !bytes + leaf_table_bytes)
          mid.leaves)
    t.roots;
  !bytes
