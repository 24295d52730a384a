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

let fnv32 b =
  let h = ref 0x811c9dc5 in
  Bytes.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) b;
  !h

(* -- writer -- *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w_u32 buf v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let w_i64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let w_bool buf v = w_u8 buf (if v then 1 else 0)

let w_str buf s =
  if String.length s > 0xFFFF then invalid_arg "Codec: string too long";
  w_u8 buf (String.length s land 0xFF);
  w_u8 buf (String.length s lsr 8);
  Buffer.add_string buf s

let w_bytes buf b =
  w_u32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_opt w buf = function
  | None -> w_u8 buf 0
  | Some v ->
    w_u8 buf 1;
    w buf v

let w_list w buf l =
  if List.length l > 0xFFFF then invalid_arg "Codec: list too long";
  w_u8 buf (List.length l land 0xFF);
  w_u8 buf (List.length l lsr 8);
  List.iter (w buf) l

let w_page buf p =
  w_i64 buf p.index;
  w_bytes buf p.data

let w_segment buf s =
  w_str buf s.seg_name;
  w_i64 buf s.seg_pages;
  w_list w_page buf s.payload

let w_region buf r =
  w_i64 buf r.va_start;
  w_i64 buf r.rg_pages;
  w_i64 buf r.seg;
  w_i64 buf r.seg_offset;
  w_bool buf r.writable;
  w_bool buf r.message_mode

let w_space buf s =
  w_i64 buf s.space_tag;
  w_i64 buf s.space_gen;
  w_list w_segment buf s.segments;
  w_list w_region buf s.regions

let w_thread buf t =
  w_i64 buf t.thread_tag;
  w_i64 buf t.thread_gen;
  w_str buf t.program;
  w_i64 buf t.priority;
  w_opt w_i64 buf t.affinity;
  w_bool buf t.locked;
  w_opt w_i64 buf t.space;
  w_i64 buf t.xfer

let w_extra buf (k, v) =
  w_str buf k;
  w_str buf v

let encode img =
  let body = Buffer.create 4096 in
  w_i64 body img.src_node;
  w_list w_space body img.spaces;
  w_list w_thread body img.threads;
  w_list w_extra body img.extras;
  let body = Buffer.to_bytes body in
  let out = Buffer.create (Bytes.length body + 16) in
  Buffer.add_string out magic;
  w_u8 out version;
  w_u32 out (Bytes.length body);
  Buffer.add_bytes out body;
  w_u32 out (fnv32 body);
  Buffer.to_bytes out

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
  let v = Int64.to_int (Bytes.get_int64_le r.b r.pos) in
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
    if Bytes.length b < mlen + 9 then raise (Bad "truncated header");
    if Bytes.sub_string b 0 mlen <> magic then raise (Bad "bad magic");
    let hdr = { b; pos = mlen; limit = Bytes.length b } in
    let v = r_u8 hdr in
    if v <> version then raise (Bad (Printf.sprintf "version %d (want %d)" v version));
    let body_len = r_u32 hdr in
    if hdr.pos + body_len + 4 > Bytes.length b then raise (Bad "truncated body");
    let body = Bytes.sub b hdr.pos body_len in
    let csum = { b; pos = hdr.pos + body_len; limit = Bytes.length b } in
    if r_u32 csum <> fnv32 body then raise (Bad "checksum mismatch");
    let r = { b = body; pos = 0; limit = body_len } in
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
