(** Checkpoint/restore: the {!Codec} image written to a host file, so an
    application-kernel session survives a process boundary.

    Continuations do not cross processes: restored threads restart fresh
    from their program bodies, rebound by the program name recorded at
    save time — the crash-recovery contract of DESIGN.md section 2. *)

open Aklib

val image_of :
  App_kernel.t ->
  ?extras:(string * string) list ->
  ?name_of:(Thread_lib.entry -> string) ->
  unit ->
  Codec.image
(** Passive capture of every managed space (the kernel's own space
    excluded) and every live thread record in a captured space or the
    kernel's own. *)

val save :
  App_kernel.t ->
  path:string ->
  ?extras:(string * string) list ->
  ?name_of:(Thread_lib.entry -> string) ->
  unit ->
  int
(** Flush the fast tier to the paging disk (one timed write; its duration
    is observed as [checkpoint.flush_us] once the node's queue runs it),
    then encode and persist to [path].  Returns the image size in bytes. *)

val save_image : App_kernel.t -> path:string -> Codec.image -> int
(** [save] for an already-captured image — e.g. one taken mid-session
    whose extras were filled in afterwards. *)

type restored = {
  image : Codec.image;  (** the decoded checkpoint, extras included *)
  spaces : Segment_mgr.vspace list;  (** rebuilt spaces, image order *)
  threads : (int * int) list;  (** (saved thread tag, new local id) *)
}

val restore :
  App_kernel.t ->
  path:string ->
  programs:(string * (unit -> Hw.Exec.payload)) list ->
  ?schedule:bool ->
  unit ->
  (restored, string) result
(** Decode [path], rebuild its spaces, and adopt its threads; [programs] rebinds saved program names
    to bodies.  Rejects corrupt images without applying anything. *)
