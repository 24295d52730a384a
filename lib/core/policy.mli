(** Pluggable replacement policies for the descriptor caches.

    Victim selection for the kernel/space/thread caches ({!Cache_slots})
    and the mapping cache ({!Mappings}) is delegated to a policy object.
    Two policies are provided:

    - {b Clock}: one second-chance scan ({!select}) for all four caches,
      bit-exact with both loops the caches shipped with, the object
      caches' and the mapping cache's (same hand movement, same victim
      sequence, same scan lengths).
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

val select : t -> 'd view -> 'd option
(** A victim among the candidates, [None] when there is none.  Under
    Clock, a second-chance scan from the hand over at most [2n] slots:
    the first lap clears the reference bits, so the second takes the
    first candidate past the hand. *)

val last_scan_length : t -> int
(** Slots examined by the most recent selection. *)
