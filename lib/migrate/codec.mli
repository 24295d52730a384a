(** Versioned, length-prefixed, checksummed binary codec for the writeback
    closure of threads and address spaces — the wire/disk format shared by
    live migration ({!Plane}) and checkpoint/restore ({!Checkpoint}).

    Execution continuations are not byte-serializable (DESIGN.md section
    2's register-file substitution); they travel through {!Plane}'s
    in-process registry for live moves and restart fresh from program
    bodies on checkpoint restore. *)

val version : int
val magic : string

type page = { index : int; data : Bytes.t }

type segment_image = {
  seg_name : string;
  seg_pages : int;
  payload : page list;  (** non-zero pages, ascending index *)
}

type region_image = {
  va_start : int;
  rg_pages : int;
  seg : int;  (** index into the owning space's [segments] *)
  seg_offset : int;
  writable : bool;
  message_mode : bool;
}

type space_image = {
  space_tag : int;
  space_gen : int;  (** source generation tag, preserved for the audit trail *)
  segments : segment_image list;
  regions : region_image list;
}

type thread_image = {
  thread_tag : int;
  thread_gen : int;
  program : string;  (** body name, for checkpoint-restore rebinding *)
  priority : int;
  affinity : int option;
  locked : bool;
  space : int option;  (** index into [spaces]; [None] = kernel's own space *)
  xfer : int;  (** transfer id: registry key for the live-migration residue *)
}

type image = {
  src_node : int;
  spaces : space_image list;
  threads : thread_image list;
  extras : (string * string) list;  (** checkpoint annotations *)
}

val encode : image -> Bytes.t
(** The CKMG v1 image: [magic | version | body length | body | FNV-1a-32
    of the body], built in one exact-size buffer. *)

val decode : Bytes.t -> (image, string) result
(** Rejects truncated input, bad magic/version, checksum mismatches,
    images over {!max_image_bytes} and inconsistent internal indices —
    never half-applies, never raises.  Bytes past the checksum are
    ignored (a checkpoint file is page-padded). *)

val max_image_bytes : int
(** The largest image {!decode} accepts; chunk reassembly never sizes a
    buffer beyond it. *)

val fnv32 : Bytes.t -> int
(** The checksum used by {!encode} (FNV-1a, 32 bit). *)

val payload_bytes : image -> int
(** Total page-payload bytes an image carries. *)
