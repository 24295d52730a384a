(** Pluggable replacement policies for the descriptor caches.

    Victim selection for the kernel/space/thread caches ({!Cache_slots})
    and the mapping cache ({!Mappings}) is delegated to a policy object.
    Two policies are provided:

    - {b Clock}: the second-chance clock scan the caches shipped with —
      bit-exact with the seed implementation (same hand movement, same
      victim sequence, same scan lengths).
    - {b Lru}: strict least-recently-used over sampled reference bits.
      The hardware referenced / [recently_used] bits are the only touch
      record the Cache Kernel keeps, so the policy samples and clears
      them on every scan, re-stamping a virtual clock; the stalest stamp
      is evicted. *)

type kind = Clock | Lru

val kind_name : kind -> string

val kind_of_string : string -> (kind, string) result
(** Accepts ["clock"] and ["lru"]. *)

type t

val create : capacity:int -> kind -> t

(** {1 Bookkeeping} — called by the caches on structural changes. *)

val on_load : t -> slot:int -> unit
(** A descriptor was installed in [slot]. *)

(** {1 Selection} *)

type 'd view = {
  get : int -> 'd option;  (** slot contents *)
  candidate : 'd -> bool;  (** unlocked / evictable / unprotected *)
  referenced : 'd -> bool;
  clear_referenced : 'd -> unit;
      (** age the touch record (accumulating it where the writeback
          record needs it, e.g. [aged_referenced] on mappings) *)
}

val select_object : t -> 'd view -> 'd option
(** Victim selection with the object-cache semantics of
    {!Cache_slots.Make.victim}: under Clock, a full second-chance scan
    over at most [2n] slots with a first-candidate fallback when every
    candidate keeps its reference bit. *)

val select_mapping : t -> 'd view -> 'd option
(** Victim selection with the mapping-cache semantics of
    {!Mappings.victim}: under Clock, second chance only during the
    first [n] examinations and no fallback. *)

val last_scan_length : t -> int
(** Slots examined by the most recent selection. *)
