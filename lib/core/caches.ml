(* The three identifier-addressed object caches (Table 1's Kernel,
   AddrSpace and Thread rows), instantiated from {!Cache_slots}. *)

module Kernel_cache = Cache_slots.Make (struct
  type t = Kernel_obj.t

  let kind = Oid.Kernel
  let get_oid (d : t) = d.Kernel_obj.oid
  let set_oid (d : t) oid = d.Kernel_obj.oid <- oid
  let locked (d : t) = d.Kernel_obj.locked
  let evictable (_ : t) = true
  let recently_used (d : t) = d.Kernel_obj.recently_used
  let clear_recently_used (d : t) = d.Kernel_obj.recently_used <- false
end)

module Space_cache = Cache_slots.Make (struct
  type t = Space_obj.t

  let kind = Oid.Space
  let get_oid (d : t) = d.Space_obj.oid
  let set_oid (d : t) oid = d.Space_obj.oid <- oid
  let locked (d : t) = d.Space_obj.locked
  let evictable (_ : t) = true
  let recently_used (d : t) = d.Space_obj.recently_used
  let clear_recently_used (d : t) = d.Space_obj.recently_used <- false
end)

module Thread_cache = Cache_slots.Make (struct
  type t = Thread_obj.t

  let kind = Oid.Thread
  let get_oid (d : t) = d.Thread_obj.oid
  let set_oid (d : t) oid = d.Thread_obj.oid <- oid
  let locked (d : t) = d.Thread_obj.locked

  (* A thread holding a CPU must be descheduled before writeback ("the
     processor must first save the thread context and context-switch to a
     different thread"); victim scans therefore skip running threads. *)
  let evictable (d : t) =
    match d.Thread_obj.state with Thread_obj.Running _ -> false | _ -> true

  let recently_used (d : t) = d.Thread_obj.recently_used
  let clear_recently_used (d : t) = d.Thread_obj.recently_used <- false
end)
