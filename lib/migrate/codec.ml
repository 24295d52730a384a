(* Binary image codec for object migration and checkpointing.

   The paper's writeback images are location-independent: everything an
   application kernel needs to reload an object anywhere.  This codec
   fixes a wire format for the full writeback *closure* of a thread or
   address space — thread scheduling state, the owning space, its regions
   and segments, and the dirty-page payloads — versioned, length-prefixed
   at every level, and checksummed, so a truncated or corrupted image is
   rejected rather than half-applied.

   What the image does NOT carry is the thread's suspended continuation:
   in this simulation the execution state is an OCaml effect continuation
   (DESIGN.md section 2's substitution for the register file), which has
   no byte representation.  Live migration moves it through the in-process
   registry in {!Plane}; checkpoint restore restarts threads fresh from
   their program bodies — exactly the crash-recovery contract the SRM's
   restart path already implements for threads that were loaded when a
   node died. *)

let version = 1
let magic = "CKMG"

type page = { index : int; data : Bytes.t }

type segment_image = {
  seg_name : string;
  seg_pages : int;
  payload : page list; (* non-zero pages, ascending index *)
}

type region_image = {
  va_start : int;
  rg_pages : int;
  seg : int; (* index into the owning space's [segments] *)
  seg_offset : int;
  writable : bool;
  message_mode : bool;
}

type space_image = {
  space_tag : int; (* source-side tag, for the audit trail *)
  space_gen : int; (* source generation tag *)
  segments : segment_image list;
  regions : region_image list;
}

type thread_image = {
  thread_tag : int; (* source-side thread-library identifier *)
  thread_gen : int; (* source generation tag *)
  program : string; (* body name, for checkpoint-restore rebinding *)
  priority : int;
  affinity : int option;
  locked : bool;
  space : int option; (* index into [spaces]; [None] = kernel's own space *)
  xfer : int; (* transfer id: registry key for the live-migration residue *)
}

type image = {
  src_node : int;
  spaces : space_image list;
  threads : thread_image list;
  extras : (string * string) list; (* checkpoint annotations *)
}

(* -- checksum: FNV-1a, 32 bit -- *)

let fnv32_range b ~pos ~len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let fnv32 b = fnv32_range b ~pos:0 ~len:(Bytes.length b)

(* The largest image [decode] accepts, and the largest buffer chunk
   reassembly may size. *)
let max_image_bytes = 1 lsl 28

(* -- writer --

   [encode] runs the body writer twice: a dry pass that only advances
   [pos] sizes the image, then a second pass fills one exact-size buffer
   that already holds the header, so no byte is copied twice. *)

type writer = { out : Bytes.t; mutable pos : int; dry : bool }

let w_u8 w v =
  if not w.dry then Bytes.set w.out w.pos (Char.chr (v land 0xFF));
  w.pos <- w.pos + 1

let w_u32 w v =
  if not w.dry then Bytes.set_int32_le w.out w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let w_i64 w v =
  if not w.dry then Bytes.set_int64_le w.out w.pos (Int64.of_int v);
  w.pos <- w.pos + 8

let w_bool w v = w_u8 w (if v then 1 else 0)

let w_u16 w n =
  w_u8 w (n land 0xFF);
  w_u8 w (n lsr 8)

let w_str w s =
  let len = String.length s in
  if len > 0xFFFF then invalid_arg "Codec: string too long";
  w_u16 w len;
  if not w.dry then Bytes.blit_string s 0 w.out w.pos len;
  w.pos <- w.pos + len

let w_bytes w b =
  let len = Bytes.length b in
  w_u32 w len;
  if not w.dry then Bytes.blit b 0 w.out w.pos len;
  w.pos <- w.pos + len

let w_opt wr w = function
  | None -> w_u8 w 0
  | Some v ->
    w_u8 w 1;
    wr w v

let w_list wr w l =
  let n = List.length l in
  if n > 0xFFFF then invalid_arg "Codec: list too long";
  w_u16 w n;
  List.iter (wr w) l

let w_page w p =
  w_i64 w p.index;
  w_bytes w p.data

let w_segment w s =
  w_str w s.seg_name;
  w_i64 w s.seg_pages;
  w_list w_page w s.payload

let w_region w r =
  w_i64 w r.va_start;
  w_i64 w r.rg_pages;
  w_i64 w r.seg;
  w_i64 w r.seg_offset;
  w_bool w r.writable;
  w_bool w r.message_mode

let w_space w s =
  w_i64 w s.space_tag;
  w_i64 w s.space_gen;
  w_list w_segment w s.segments;
  w_list w_region w s.regions

let w_thread w t =
  w_i64 w t.thread_tag;
  w_i64 w t.thread_gen;
  w_str w t.program;
  w_i64 w t.priority;
  w_opt w_i64 w t.affinity;
  w_bool w t.locked;
  w_opt w_i64 w t.space;
  w_i64 w t.xfer

let w_extra w (k, v) =
  w_str w k;
  w_str w v

let w_body w img =
  w_i64 w img.src_node;
  w_list w_space w img.spaces;
  w_list w_thread w img.threads;
  w_list w_extra w img.extras

(* magic | version | body length *)
let header_bytes = String.length magic + 1 + 4

(* CKMG v1: header, body, then the FNV-1a checksum of the body. *)
let encode img =
  let sizer = { out = Bytes.empty; pos = 0; dry = true } in
  w_body sizer img;
  let body_len = sizer.pos in
  let w = { out = Bytes.create (header_bytes + body_len + 4); pos = 0; dry = false } in
  Bytes.blit_string magic 0 w.out 0 (String.length magic);
  w.pos <- String.length magic;
  w_u8 w version;
  w_u32 w body_len;
  w_body w img;
  w_u32 w (fnv32_range w.out ~pos:header_bytes ~len:body_len);
  w.out

(* -- reader: every access bounds-checked; any violation rejects the
   whole image -- *)

exception Bad of string

type reader = { b : Bytes.t; mutable pos : int; limit : int }

let need r n = if r.pos + n > r.limit then raise (Bad "truncated")

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.b r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.b r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let w = Bytes.get_int64_le r.b r.pos in
  let v = Int64.to_int w in
  (* [encode] only writes values an OCaml int can hold *)
  if Int64.of_int v <> w then raise (Bad "integer out of range");
  r.pos <- r.pos + 8;
  v

let r_bool r = match r_u8 r with 0 -> false | 1 -> true | _ -> raise (Bad "bool")

let r_str r =
  let lo = r_u8 r in
  let hi = r_u8 r in
  let len = lo lor (hi lsl 8) in
  need r len;
  let s = Bytes.sub_string r.b r.pos len in
  r.pos <- r.pos + len;
  s

let r_bytes r =
  let len = r_u32 r in
  if len > 1 lsl 24 then raise (Bad "oversized byte string");
  need r len;
  let b = Bytes.sub r.b r.pos len in
  r.pos <- r.pos + len;
  b

let r_opt rd r = match r_u8 r with 0 -> None | 1 -> Some (rd r) | _ -> raise (Bad "option")

let r_list rd r =
  let lo = r_u8 r in
  let hi = r_u8 r in
  let n = lo lor (hi lsl 8) in
  List.init n (fun _ -> rd r)

let r_page r =
  let index = r_i64 r in
  let data = r_bytes r in
  if index < 0 then raise (Bad "page index");
  if Bytes.length data > Hw.Addr.page_size then raise (Bad "page data longer than a page");
  { index; data }

let r_segment r =
  let seg_name = r_str r in
  let seg_pages = r_i64 r in
  let payload = r_list r_page r in
  if seg_pages < 0 || seg_pages > 1 lsl 24 then raise (Bad "segment pages");
  List.iter (fun p -> if p.index >= seg_pages then raise (Bad "page out of segment")) payload;
  { seg_name; seg_pages; payload }

let r_region r =
  let va_start = r_i64 r in
  let rg_pages = r_i64 r in
  let seg = r_i64 r in
  let seg_offset = r_i64 r in
  let writable = r_bool r in
  let message_mode = r_bool r in
  if rg_pages <= 0 || seg < 0 || seg_offset < 0 then raise (Bad "region geometry");
  { va_start; rg_pages; seg; seg_offset; writable; message_mode }

let r_space r =
  let space_tag = r_i64 r in
  let space_gen = r_i64 r in
  let segments = r_list r_segment r in
  let regions = r_list r_region r in
  List.iter
    (fun rg -> if rg.seg >= List.length segments then raise (Bad "region segment index"))
    regions;
  { space_tag; space_gen; segments; regions }

let r_thread r =
  let thread_tag = r_i64 r in
  let thread_gen = r_i64 r in
  let program = r_str r in
  let priority = r_i64 r in
  let affinity = r_opt r_i64 r in
  let locked = r_bool r in
  let space = r_opt r_i64 r in
  let xfer = r_i64 r in
  { thread_tag; thread_gen; program; priority; affinity; locked; space; xfer }

let r_extra r =
  let k = r_str r in
  let v = r_str r in
  (k, v)

let decode b =
  try
    let mlen = String.length magic in
    if Bytes.length b < header_bytes + 4 then raise (Bad "truncated header");
    if Bytes.sub_string b 0 mlen <> magic then raise (Bad "bad magic");
    let hdr = { b; pos = mlen; limit = Bytes.length b } in
    let v = r_u8 hdr in
    if v <> version then raise (Bad (Printf.sprintf "version %d (want %d)" v version));
    let body_len = r_u32 hdr in
    if header_bytes + body_len + 4 > max_image_bytes then raise (Bad "oversized image");
    if hdr.pos + body_len + 4 > Bytes.length b then raise (Bad "truncated body");
    let csum = { b; pos = hdr.pos + body_len; limit = Bytes.length b } in
    if r_u32 csum <> fnv32_range b ~pos:hdr.pos ~len:body_len then raise (Bad "checksum mismatch");
    (* parse the body where it lies *)
    let r = { b; pos = hdr.pos; limit = hdr.pos + body_len } in
    let src_node = r_i64 r in
    let spaces = r_list r_space r in
    let threads = r_list r_thread r in
    let extras = r_list r_extra r in
    List.iter
      (fun (t : thread_image) ->
        match t.space with
        | Some i when i < 0 || i >= List.length spaces -> raise (Bad "thread space index")
        | _ -> ())
      threads;
    if r.pos <> r.limit then raise (Bad "trailing garbage in body");
    Ok { src_node; spaces; threads; extras }
  with Bad msg -> Error msg

(** Total payload bytes carried by an image's pages (the working set the
    migration actually ships). *)
let payload_bytes img =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (seg : segment_image) ->
          List.fold_left (fun acc p -> acc + Bytes.length p.data) acc seg.payload)
        acc s.segments)
    0 img.spaces
