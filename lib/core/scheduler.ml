(* Fixed-priority, time-sliced ready queues (sections 2.3 and 4.3).

   The Cache Kernel provides only this: a thread at a given priority runs
   after all higher-priority threads have blocked or been unloaded, and
   round-robin time slicing operates within each priority so one real-time
   thread cannot excessively interfere with another at the same level.  All
   scheduling *policy* (priority decay, co-scheduling, deadlines) lives in
   application kernels, which load, unload and re-prioritise threads.

   Queues hold object identifiers; stale identifiers (the thread was
   unloaded since being enqueued) are dropped when encountered.  Eligibility
   (thread still Ready, CPU affinity, quota demotion) is decided by caller-
   supplied predicates so this module stays policy-free.

   Each priority level is a ring buffer of identifiers (power-of-two
   capacity, grown on demand) rather than a linked [Queue.t]: enqueue and
   scan allocate nothing in steady state.  Dispatch ({!pick}) and the
   preemption check ({!highest_ready_pri}) share one walk ({!scan}) that
   stops at the first eligible entry and writes nothing unless it dropped
   a stale one, so the per-step check is a read-only walk. *)

type t = {
  mutable bufs : Oid.t array array; (* index = priority; ring buffers *)
  heads : int array; (* physical index of each ring's logical head *)
  lens : int array;
  mutable top_hint : int;
      (* upper bound on the highest non-empty priority: every queue above it
         is empty, so scans start here instead of at [priorities - 1].
         Raised on enqueue, lowered lazily as scans walk past empty queues;
         -1 when every queue is (believed) empty.  A hint only — scans stay
         correct if it is too high, just slower *)
}

let initial_cap = 16 (* must be a power of two *)

let create ~priorities =
  if priorities <= 0 then invalid_arg "Scheduler.create";
  {
    bufs = Array.init priorities (fun _ -> Array.make initial_cap Oid.none);
    heads = Array.make priorities 0;
    lens = Array.make priorities 0;
    top_hint = -1;
  }

(* Double ring [p], linearising entries to start at physical 0. *)
let grow t p =
  let buf = t.bufs.(p) in
  let cap = Array.length buf in
  let nbuf = Array.make (2 * cap) Oid.none in
  let head = t.heads.(p) and n = t.lens.(p) in
  for i = 0 to n - 1 do
    nbuf.(i) <- buf.((head + i) land (cap - 1))
  done;
  t.bufs.(p) <- nbuf;
  t.heads.(p) <- 0

(** Append a thread at [priority] (clamped to the configured range). *)
let enqueue t ~priority oid =
  let p = max 0 (min (Array.length t.bufs - 1) priority) in
  if t.lens.(p) = Array.length t.bufs.(p) then grow t p;
  let buf = t.bufs.(p) in
  buf.((t.heads.(p) + t.lens.(p)) land (Array.length buf - 1)) <- oid;
  t.lens.(p) <- t.lens.(p) + 1;
  if p > t.top_hint then t.top_hint <- p

(* Lower the hint past queues a scan proved empty: [p] was examined and is
   empty, so if the hint still points at it, pull it down.  Only adjacent
   steps — the scan visits priorities downward, so the hint follows. *)
let lower_hint t p = if t.top_hint = p && t.lens.(p) = 0 then t.top_hint <- p - 1

(* Walk ring [p] to its first eligible entry and return its identifier
   ([Oid.none] when there is none), compacting in place: stale entries
   met on the way are dropped, ineligible-but-live ones keep their FIFO
   order ahead of the rest (never rotated to the tail — rotating on every
   failed pick would silently reorder same-priority round robin), and
   with [~take] the found entry leaves the ring too.  Entries behind the
   found one are never examined, and a walk that removes nothing writes
   nothing. *)
let scan t p ~resolve ~eligible ~take =
  let buf = t.bufs.(p) in
  let mask = Array.length buf - 1 in
  let head = t.heads.(p) and n = t.lens.(p) in
  let w = ref 0 and r = ref 0 and found = ref Oid.none in
  while Oid.is_none !found && !r < n do
    let oid = buf.((head + !r) land mask) in
    (match resolve oid with
    | None -> () (* stale: drop *)
    | Some d when eligible oid d -> found := oid
    | Some _ ->
      if !w <> !r then buf.((head + !w) land mask) <- oid;
      incr w);
    incr r
  done;
  (* entries from [stop] on stay where they are; a peek keeps the found one *)
  let stop = if take || Oid.is_none !found then !r else !r - 1 in
  let w = !w in
  if w <> stop then begin
    let len = w + n - stop in
    if w = 0 then begin
      (* nothing kept ahead of the gap (the common case: the first entry
         was taken): advance the head past it instead of sliding the tail *)
      for i = 0 to stop - 1 do
        buf.((head + i) land mask) <- Oid.none
      done;
      t.heads.(p) <- (head + stop) land mask
    end
    else begin
      for i = stop to n - 1 do
        buf.((head + w + i - stop) land mask) <- buf.((head + i) land mask)
      done;
      (* clear vacated slots so dropped identifiers are collectable *)
      for i = len to n - 1 do
        buf.((head + i) land mask) <- Oid.none
      done
    end;
    t.lens.(p) <- len
  end;
  !found

(** Dequeue the highest-priority eligible thread.  Starts at the
    highest-nonempty hint, so dispatch does not rescan the (usually many)
    empty high-priority levels on every decision. *)
let pick t ~resolve ~eligible =
  let rec loop p =
    if p < 0 then None
    else
      let oid = scan t p ~resolve ~eligible ~take:true in
      if Oid.is_none oid then begin
        lower_hint t p;
        loop (p - 1)
      end
      else (* resolved live by the walk a moment ago *)
        Option.map (fun d -> (oid, d)) (resolve oid)
  in
  loop t.top_hint

(** Priority of the best eligible thread, without dequeuing (used for
    preemption decisions); -1 when none.  Stale identifiers met before the
    first eligible entry are dropped; those behind it are left for a later
    walk, so the common per-step check costs no writes. *)
let highest_ready_pri t ~resolve ~eligible =
  let rec loop p =
    if p < 0 then -1
    else if Oid.is_none (scan t p ~resolve ~eligible ~take:false) then begin
      lower_hint t p;
      loop (p - 1)
    end
    else p
  in
  loop t.top_hint

let length t = Array.fold_left ( + ) 0 t.lens
