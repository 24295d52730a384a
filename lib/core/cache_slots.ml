(* Generic descriptor cache: a fixed array of slots with generation-tagged
   identifiers and pluggable victim selection ({!Policy}; clock
   second-chance by default).

   The kernel, address-space and thread caches are instances of this
   functor ({!Caches}); the mapping cache has its own structure
   ({!Mappings}) because mappings are identified by (space, virtual
   address) rather than by a general object identifier — the paper's
   space-saving decision of section 2.1. *)

module type DESC = sig
  type t

  val kind : Oid.kind
  val get_oid : t -> Oid.t
  val set_oid : t -> Oid.t -> unit

  val locked : t -> bool

  val evictable : t -> bool
  (** extra per-type eviction condition (e.g. a thread currently executing
      on a CPU is not evictable until descheduled) *)

  val recently_used : t -> bool
  val clear_recently_used : t -> unit
end

module Make (D : DESC) = struct
  type t = {
    slots : D.t option array;
    gens : int array;
    mutable free : int list;
    mutable live : int;
    policy : Policy.t; (* victim selection, owns the clock hand *)
  }

  let create ?(policy = Policy.Clock) ~capacity () =
    if capacity <= 0 then invalid_arg "Cache_slots.create: capacity must be positive";
    {
      slots = Array.make capacity None;
      gens = Array.make capacity 0;
      free = List.init capacity Fun.id;
      live = 0;
      policy = Policy.create ~capacity policy;
    }

  let capacity t = Array.length t.slots
  let live t = t.live
  let is_full t = t.live = Array.length t.slots

  (** Install [d] in a free slot, assigning and returning its identifier.
      Returns [None] when the cache is full: the caller must first select a
      victim with {!victim} and write it back. *)
  let load t d =
    match t.free with
    | [] -> None
    | slot :: rest ->
      t.free <- rest;
      t.slots.(slot) <- Some d;
      t.live <- t.live + 1;
      let oid = Oid.v ~kind:D.kind ~slot ~gen:t.gens.(slot) in
      D.set_oid d oid;
      Policy.on_load t.policy ~slot;
      Some oid

  (** Look up by identifier; fails on a stale generation (the object was
      written back and possibly reloaded since the id was issued). *)
  let find t (oid : Oid.t) =
    if oid.Oid.kind <> D.kind || oid.Oid.slot < 0 || oid.Oid.slot >= Array.length t.slots
    then None
    else if t.gens.(oid.Oid.slot) <> oid.Oid.gen then None
    else t.slots.(oid.Oid.slot)

  (** Slot contents regardless of generation (engine-internal use). *)
  let get t ~slot =
    if slot < 0 || slot >= Array.length t.slots then None else t.slots.(slot)

  (** Free the slot holding [oid]; bumping the generation invalidates every
      outstanding copy of the identifier. *)
  let unload t (oid : Oid.t) =
    match find t oid with
    | None -> None
    | Some d ->
      t.slots.(oid.Oid.slot) <- None;
      t.gens.(oid.Oid.slot) <- t.gens.(oid.Oid.slot) + 1;
      t.free <- oid.Oid.slot :: t.free;
      t.live <- t.live - 1;
      Some d

  let view t =
    {
      Policy.get = (fun slot -> t.slots.(slot));
      candidate = (fun d -> (not (D.locked d)) && D.evictable d);
      referenced = D.recently_used;
      clear_referenced = D.clear_recently_used;
    }

  (** Victim selection under the configured policy: returns an unlocked,
      evictable descriptor.  [None] if every live descriptor is locked or
      unevictable. *)
  let victim t = Policy.select_object t.policy (view t)

  (** Slots examined by the most recent {!victim} call — the replacement
      effort metric ({!Metrics} victim_scan histograms). *)
  let last_scan_length t = Policy.last_scan_length t.policy

  let iter t f = Array.iter (function None -> () | Some d -> f d) t.slots

  let fold t f acc =
    Array.fold_left (fun acc -> function None -> acc | Some d -> f acc d) acc t.slots

  let to_list t = fold t (fun acc d -> d :: acc) [] |> List.rev
end
