(* Cache Kernel object identifiers.

   An identifier is returned when an object is loaded and names it until it
   is written back; "a new identifier is assigned each time an object is
   loaded" (section 2), which we realise with a generation counter per slot.
   A stale identifier (object written back and the slot reused) fails
   validation, and the application kernel retries after reloading — the
   behaviour section 2 describes for a thread loaded against a concurrently
   written-back address space. *)

type kind = Kernel | Space | Thread

let pp_kind ppf = function
  | Kernel -> Fmt.string ppf "kernel"
  | Space -> Fmt.string ppf "space"
  | Thread -> Fmt.string ppf "thread"

type t = { kind : kind; slot : int; gen : int }

let v ~kind ~slot ~gen = { kind; slot; gen }
let equal a b = a.kind = b.kind && a.slot = b.slot && a.gen = b.gen
let compare = Stdlib.compare
let pp ppf t = Fmt.pf ppf "%a#%d.%d" pp_kind t.kind t.slot t.gen

(** A never-valid identifier, for fields not yet bound. *)
let none = { kind = Kernel; slot = -1; gen = -1 }

let is_none t = t.slot < 0
