(** Cache Kernel object identifiers: generation-tagged slot names.

    A new identifier is assigned each time an object is loaded (section 2),
    so a stale identifier — the object was written back, perhaps the slot
    reused — fails validation and the application kernel retries after
    reloading.  Application kernels keep their own stable names (e.g. UNIX
    pids) and treat these identifiers purely as cache handles. *)

type kind = Kernel | Space | Thread

val pp_kind : kind Fmt.t

type t = { kind : kind; slot : int; gen : int }

val v : kind:kind -> slot:int -> gen:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

val none : t
(** A never-valid identifier, for fields not yet bound. *)

val is_none : t -> bool
