(* The processing class library of section 3: "basically a thread library
   that schedules threads by loading them into the Cache Kernel rather than
   by using its own dispatcher and run queue."

   The library keeps one entry per application thread, keyed by a stable
   local identifier (used as the Cache Kernel tag).  Scheduling a thread
   loads it; descheduling unloads it; a thread blocked on a long-term event
   is unloaded and its written-back state is reloaded on wakeup — the
   on-demand thread loading of section 2.3. *)

open Cachekernel

type run = Loaded | Unloaded of Thread_obj.saved option

type entry = {
  id : int;
  space_tag : int;
  mutable oid : Oid.t;
  mutable run : run;
  mutable priority : int;
  mutable affinity : int option;
  mutable lock : bool;
  body : (unit -> Hw.Exec.payload) option; (* initial program, for fresh loads *)
}

type t = {
  inst : Instance.t;
  kernel : unit -> Oid.t;
  space_oid : int -> (Oid.t, Api.error) result;
      (* resolve (and reload if written back) the space with a given tag *)
  table : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable next_token : int; (* completion tokens minted by [await_token] *)
  mutable forwarder : (int -> va:int -> bool) option;
      (* re-targets signals for threads that migrated away (set by the
         migration plane) *)
}

let create ~inst ~kernel ~space_oid =
  {
    inst;
    kernel;
    space_oid;
    table = Hashtbl.create 32;
    next_id = 1;
    next_token = 0;
    forwarder = None;
  }

let set_forwarder t f = t.forwarder <- Some f

let entry t id = Hashtbl.find_opt t.table id
let oid_of t id = match entry t id with Some e -> Some e.oid | None -> None

let load_entry t (e : entry) ~start =
  let load () =
    match t.space_oid e.space_tag with
    | Error err -> Error err
    | Ok space ->
      Api.load_thread t.inst ~caller:(t.kernel ()) ~space ~priority:e.priority
        ~affinity:e.affinity ~lock:e.lock ~tag:e.id ~start ()
  in
  match load () with
  | Ok oid ->
    e.oid <- oid;
    e.run <- Loaded;
    Ok oid
  | Error Api.Stale_reference ->
    (* The space was written back concurrently with the load (or chaos
       injected the same outcome): reload the address space object and
       retry — the paper's retry protocol. *)
    Instance.count t.inst "thread.reload_retry";
    (match load () with
    | Ok oid ->
      e.oid <- oid;
      e.run <- Loaded;
      Ok oid
    | Error e -> Error e)
  | Error err -> Error err

(** Create a thread in the space tagged [space_tag] and load it. *)
let spawn t ~space_tag ~priority ?affinity ?(lock = false) body =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e =
    {
      id;
      space_tag;
      oid = Oid.none;
      run = Unloaded None;
      priority;
      affinity;
      lock;
      body = Some body;
    }
  in
  Hashtbl.replace t.table id e;
  match load_entry t e ~start:(Thread_obj.Fresh body) with
  | Ok _ -> Ok id
  | Error err ->
    Hashtbl.remove t.table id;
    Error err

(** Adopt a thread arriving from elsewhere — a migration image or a
    restored checkpoint — without loading it: the entry holds the saved
    state (and/or body) until [schedule] loads it through the normal
    stale-id retry path.  Returns the new local identifier. *)
let adopt t ~space_tag ~priority ?affinity ?(lock = false) ?saved ?body () =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e =
    { id; space_tag; oid = Oid.none; run = Unloaded saved; priority; affinity; lock; body }
  in
  Hashtbl.replace t.table id e;
  id

(** Remove the entry of a thread that no longer runs here: it exited,
    migrated away, or belonged to a purged landing.  (Signals that still
    arrive for it go through the migration plane's forwarding stub.) *)
let retire t id = Hashtbl.remove t.table id

(** Raise an address-valued signal against the thread with local id [id].
    A loaded thread gets it directly; a thread that migrated away has no
    local object anymore, so the registered forwarder (the migration
    plane's stub) re-targets the signal at the thread's new residence.
    Returns false if the signal could be delivered nowhere. *)
let signal t id ~va =
  match entry t id with
  | Some e when not (Oid.equal e.oid Oid.none) ->
    Result.is_ok (Api.post_signal t.inst ~caller:(t.kernel ()) ~thread:e.oid ~va)
  | _ -> (
    match t.forwarder with Some f -> f id ~va | None -> false)

(** Deschedule: unload the thread from the Cache Kernel (its state arrives
    through a writeback record and is kept for the next [schedule]). *)
let deschedule t id =
  match entry t id with
  | Some e when e.run = Loaded -> Api.unload_thread t.inst ~caller:(t.kernel ()) e.oid
  | Some _ -> Ok ()
  | None -> Error Api.Stale_reference

(** Schedule: (re)load the thread from saved state, or fresh if it was
    never run. *)
let schedule t id =
  match entry t id with
  | None -> Error Api.Stale_reference
  | Some e -> (
    match e.run with
    | Loaded -> Ok e.oid
    | Unloaded (Some saved) -> load_entry t e ~start:(Thread_obj.Saved saved)
    | Unloaded None -> (
      match e.body with
      | Some body -> load_entry t e ~start:(Thread_obj.Fresh body)
      | None -> Error Api.Stale_reference))

let set_priority t id priority =
  match entry t id with
  | None -> Error Api.Stale_reference
  | Some e ->
    e.priority <- priority;
    if e.run = Loaded then Api.set_priority t.inst ~caller:(t.kernel ()) e.oid priority
    else Ok ()

(** Digest a thread writeback record. *)
let handle_writeback t ~tag ~(state : Thread_obj.saved) ~(reason : Wb.reason) ~priority =
  match entry t tag with
  | None -> ()
  | Some e -> (
    e.priority <- priority;
    match reason with
    | Wb.Exited -> retire t tag
    | Wb.Displaced | Wb.Requested | Wb.Dependent | Wb.Consistency ->
      e.run <- Unloaded (Some state))

(** After an MPM crash: threads that were loaded lost their volatile
    context with the node — no writeback record ever arrived — so they
    restart fresh from their bodies.  Threads already written back keep
    their saved state: that image survived the crash (it lives in this
    library's records, the analogue of the kernel's backing store). *)
let mark_crashed t =
  Hashtbl.iter
    (fun _ e ->
      match e.run with
      | Loaded ->
        e.oid <- Oid.none;
        e.run <- Unloaded None
      | Unloaded _ -> ())
    t.table

let running t id = match entry t id with Some e -> e.run = Loaded | None -> false
let exited t id = not (Hashtbl.mem t.table id)

(** All entries (for schedulers that sweep, e.g. priority decay). *)
let iter t f = Hashtbl.iter (fun _ e -> f e) t.table

(** The entries of the space tagged [space_tag], in id order. *)
let of_space t space_tag =
  Hashtbl.fold (fun _ e acc -> if e.space_tag = space_tag then e :: acc else acc) t.table []
  |> List.sort (fun a b -> compare a.id b.id)

(** Deliver the address-valued signal [va] to the thread with local id
    [id] wherever it is now: posted to its current identifier if it is
    loaded, appended to its saved pending signals if it is written back
    (the next load queues them).  A crashed thread, or one with no entry, drops it. *)
let deliver t id ~va =
  match entry t id with
  | Some ({ run = Loaded; _ } as e) -> (
    match Instance.find_thread t.inst e.oid with
    | Some th -> Signals.post_signal t.inst th ~va
    | None -> ())
  | Some ({ run = Unloaded (Some saved); _ } as e) ->
    e.run <-
      Unloaded
        (Some
           { saved with Thread_obj.pending_signals = saved.Thread_obj.pending_signals @ [ va ] })
  | Some { run = Unloaded None; _ } | None -> ()

(* Completion tokens are address-valued signals in a range no mapping or
   other library uses; each wait gets its own. *)
let token_base = 0x7E000000

(** Block the calling thread (handler context) until the completion
    signal carrying a fresh token arrives.  [start ~done_] submits the I/O;
    [done_] delivers the token to the thread by its local id, which
    survives a displacement and reload during the wait where its Cache
    Kernel identifier does not.  Other signals that arrive meanwhile are
    held aside and queued on the thread again once the token is in, in
    arrival order, so their real consumer still gets them; requeueing
    them during the wait would hand them straight back to this loop. *)
let await_token t ~thread (start : done_:(unit -> unit) -> unit) =
  let inst = t.inst in
  t.next_token <- t.next_token + 1;
  let token = token_base + (t.next_token * 4) in
  let id =
    match Instance.find_thread inst thread with
    | Some th -> (
      match entry t th.Thread_obj.tag with
      | Some e when Oid.equal e.oid thread -> Some e.id
      | _ -> None)
    | None -> None
  in
  (* the thread as loaded now: by local id if it has one, else by the
     identifier it had when the wait began *)
  let current () =
    match id with
    | Some id -> (
      match entry t id with
      | Some { run = Loaded; oid; _ } -> Instance.find_thread inst oid
      | _ -> None)
    | None -> Instance.find_thread inst thread
  in
  start ~done_:(fun () ->
      match id with
      | Some id -> deliver t id ~va:token
      | None -> Option.iter (fun th -> Signals.post_signal inst th ~va:token) (current ()));
  let rec wait held =
    match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va when va = token -> held
    | Api.Ck_signal other -> wait (other :: held)
    | _ -> wait held
  in
  match wait [] with
  | [] -> ()
  | held ->
    Option.iter
      (fun th ->
        List.iter
          (fun va ->
            ignore (Thread_obj.queue_signal th ~depth_limit:Config.signal_queue_depth va))
          (List.rev held))
      (current ())
