(* Pluggable replacement policies (see policy.mli).

   The policy object owns everything the seed victim scans kept inline in
   the caches: the clock hand, the last-scan length, and — for the new
   policies — per-slot recency stamps, sampled reference counts, a FIFO
   queue and the perceptron state.  The caches report structural changes
   ({!on_load}/{!on_unload}) and delegate victim selection through a
   {!view} of their slot array, so the cache data structures themselves
   stay policy-free.

   Determinism: no wall clock and no randomness.  Time is a virtual tick
   advanced on loads and selections, so equal traces give equal victim
   sequences — the property the qcheck equivalence suite pins down for
   Clock against the seed implementation. *)

type kind = Clock | Lru | Fifo | Learned
type choice = Fixed of kind | Adaptive

let kind_name = function
  | Clock -> "clock"
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Learned -> "learned"

let choice_name = function Fixed k -> kind_name k | Adaptive -> "adaptive"
let all_choice_names = [ "clock"; "lru"; "fifo"; "learned"; "adaptive" ]

let choice_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "clock" -> Ok (Fixed Clock)
  | "lru" -> Ok (Fixed Lru)
  | "fifo" -> Ok (Fixed Fifo)
  | "learned" -> Ok (Fixed Learned)
  | "adaptive" -> Ok Adaptive
  | other ->
    Error
      (Printf.sprintf "unknown replacement policy %S (expected one of %s)" other
         (String.concat ", " all_choice_names))

(* Adaptive rotation order: start conservative, escalate towards the
   learned policy only after simpler ones have degraded. *)
let rotation = [| Clock; Lru; Fifo; Learned |]

let window = 128 (* loads per adaptive observation window *)

let premature_horizon = 512
(* a reload within this many ticks of its displacement counts as a
   policy miss (the entry was evicted while still in the working set) *)

let degrade_margin = 0.05 (* window hit-rate drop that triggers a rotation *)
let n_features = 5
let learn_rate = 0.1
let weight_clamp = 8.0

type 'd view = {
  get : int -> 'd option;
  candidate : 'd -> bool;
  referenced : 'd -> bool;
  clear_referenced : 'd -> unit;
}

type t = {
  choice : choice;
  capacity : int;
  mutable active : kind;
  mutable hand : int; (* clock hand *)
  mutable last_scan : int;
  mutable tick : int; (* virtual time: advances on loads and selections *)
  (* per-slot arrays, grown on load to cover the slot (up to [capacity]) *)
  mutable stamp : int array; (* per-slot last-known-use tick (LRU recency) *)
  mutable refcnt : int array; (* per-slot sampled reference count (frequency) *)
  mutable epoch : int array; (* per-slot load epoch, invalidates stale FIFO entries *)
  mutable fifo_front : (int * int) list; (* (slot, epoch), oldest first *)
  mutable fifo_back : (int * int) list; (* reversed *)
  mutable fifo_len : int;
  weights : float array; (* perceptron: bias, age, freq, ref-now, waste prior *)
  mutable pending : (int * float array) option;
      (* last learned victim and its features, awaiting the writeback label *)
  mutable wasted_ewma : float; (* running prefetch-wasted fraction *)
  (* adaptive sliding window *)
  mutable win_loads : int;
  mutable win_premature : int;
  mutable prev_hit : float;
  mutable have_prev : bool;
  evicted : (int, int) Hashtbl.t; (* displaced key -> tick of displacement *)
  mutable switch_count : int;
  mutable on_switch : from_:kind -> to_:kind -> unit;
  mutable on_premature : unit -> unit;
}

let create ~capacity choice =
  if capacity <= 0 then invalid_arg "Policy.create: capacity must be positive";
  {
    choice;
    capacity;
    active = (match choice with Fixed k -> k | Adaptive -> Clock);
    hand = 0;
    last_scan = 0;
    tick = 0;
    stamp = [||];
    refcnt = [||];
    epoch = [||];
    fifo_front = [];
    fifo_back = [];
    fifo_len = 0;
    weights = [| 0.0; 1.0; -1.0; -1.0; 0.5 |];
    pending = None;
    wasted_ewma = 0.0;
    win_loads = 0;
    win_premature = 0;
    prev_hit = 0.0;
    have_prev = false;
    evicted = Hashtbl.create 256;
    switch_count = 0;
    on_switch = (fun ~from_:_ ~to_:_ -> ());
    on_premature = (fun () -> ());
  }

let choice t = t.choice
let current t = t.active
let switches t = t.switch_count
let last_scan_length t = t.last_scan

let set_hooks t ~on_switch ~on_premature =
  t.on_switch <- on_switch;
  t.on_premature <- on_premature

(* -- FIFO queue (functional two-list queue with lazy invalidation) -- *)

(* Each load (and each second chance) pushes a fresh (slot, epoch) entry
   and bumps the slot's epoch, so at most one entry per slot is live;
   stale ones are dropped on pop.  Compaction bounds the stale backlog
   under load/unload churn that never reaches victim selection. *)

let fifo_compact t =
  let live =
    List.filter (fun (s, e) -> t.epoch.(s) = e) (t.fifo_front @ List.rev t.fifo_back)
  in
  t.fifo_front <- live;
  t.fifo_back <- [];
  t.fifo_len <- List.length live

let fifo_push t entry =
  t.fifo_back <- entry :: t.fifo_back;
  t.fifo_len <- t.fifo_len + 1;
  if t.fifo_len > (2 * t.capacity) + 8 then fifo_compact t

let fifo_pop t =
  match t.fifo_front with
  | e :: rest ->
    t.fifo_front <- rest;
    t.fifo_len <- t.fifo_len - 1;
    Some e
  | [] -> (
    match List.rev t.fifo_back with
    | [] -> None
    | e :: rest ->
      t.fifo_back <- [];
      t.fifo_front <- rest;
      t.fifo_len <- t.fifo_len - 1;
      Some e)

(* -- Adaptive window -- *)

let rotate t =
  let from_ = t.active in
  let idx = ref 0 in
  Array.iteri (fun i k -> if k = t.active then idx := i) rotation;
  t.active <- rotation.((!idx + 1) mod Array.length rotation);
  t.switch_count <- t.switch_count + 1;
  t.have_prev <- false; (* settle window: re-baseline under the new policy *)
  t.pending <- None;
  t.on_switch ~from_ ~to_:t.active

let close_window t =
  let hit = 1.0 -. (float_of_int t.win_premature /. float_of_int (max 1 t.win_loads)) in
  (match t.choice with
  | Adaptive when t.have_prev && hit < t.prev_hit -. degrade_margin -> rotate t
  | _ ->
    t.prev_hit <- hit;
    t.have_prev <- true);
  t.win_loads <- 0;
  t.win_premature <- 0;
  if Hashtbl.length t.evicted > 4096 then Hashtbl.reset t.evicted

(* -- Bookkeeping -- *)

(* Only loaded slots are ever indexed, so the arrays need to reach the
   highest slot loaded so far; they double, starting at 64. *)
let cover t slot =
  let len = Array.length t.stamp in
  if slot >= len then begin
    let len' = min t.capacity (max (slot + 1) (max 64 (2 * len))) in
    let extend a =
      let b = Array.make len' 0 in
      Array.blit a 0 b 0 len;
      b
    in
    t.stamp <- extend t.stamp;
    t.refcnt <- extend t.refcnt;
    t.epoch <- extend t.epoch
  end

let on_load t ~slot ~key =
  cover t slot;
  t.tick <- t.tick + 1;
  t.stamp.(slot) <- t.tick;
  t.refcnt.(slot) <- 0;
  t.epoch.(slot) <- t.epoch.(slot) + 1;
  fifo_push t (slot, t.epoch.(slot));
  (match Hashtbl.find_opt t.evicted key with
  | Some t0 ->
    Hashtbl.remove t.evicted key;
    if t.tick - t0 <= premature_horizon then begin
      t.win_premature <- t.win_premature + 1;
      t.on_premature ()
    end
  | None -> ());
  t.win_loads <- t.win_loads + 1;
  if t.win_loads >= window then close_window t

let on_unload t ~slot = t.epoch.(slot) <- t.epoch.(slot) + 1

let note_displaced t ~key = Hashtbl.replace t.evicted key t.tick

let note_prefetch_verdict t ~used =
  t.wasted_ewma <- (0.9 *. t.wasted_ewma) +. (0.1 *. if used then 0.0 else 1.0)

(* -- Learned policy: online perceptron -- *)

let feature_vec t ~slot ~ref_now =
  let age = float_of_int (t.tick - t.stamp.(slot)) /. float_of_int (max 1 t.capacity) in
  let age = if age > 4.0 then 4.0 else age in
  let freq = float_of_int (min t.refcnt.(slot) 8) /. 8.0 in
  [|
    1.0;
    age;
    freq;
    (if ref_now then 1.0 else 0.0);
    (if t.refcnt.(slot) = 0 then t.wasted_ewma else 0.0);
  |]

let dot w x =
  let acc = ref 0.0 in
  for i = 0 to n_features - 1 do
    acc := !acc +. (w.(i) *. x.(i))
  done;
  !acc

let train t ~slot ~referenced =
  match t.pending with
  | Some (s, x) when s = slot ->
    t.pending <- None;
    (* label: an eviction of a still-referenced entry was premature *)
    let y = if referenced then -1.0 else 1.0 in
    if y *. dot t.weights x <= 0.0 then
      for i = 0 to n_features - 1 do
        let w = t.weights.(i) +. (learn_rate *. y *. x.(i)) in
        t.weights.(i) <- Float.max (-.weight_clamp) (Float.min weight_clamp w)
      done
  | _ -> ()

(* -- Selection -- *)

(* Clock, object-cache semantics: bit-exact with the seed
   [Cache_slots.Make.victim] — second chance over at most 2n slots, with
   the first candidate as fallback when every candidate stays referenced. *)
let clock_object t v =
  let n = t.capacity in
  let result = ref None in
  let fallback = ref None in
  let i = ref 0 in
  while !result = None && !i < 2 * n do
    (match v.get t.hand with
    | Some d when v.candidate d ->
      if v.referenced d then v.clear_referenced d else result := Some d;
      if !fallback = None then fallback := Some d
    | _ -> ());
    t.hand <- (t.hand + 1) mod n;
    incr i
  done;
  t.last_scan <- !i;
  match (!result, !fallback) with Some d, _ -> Some d | None, f -> f

(* Clock, mapping-cache semantics: bit-exact with the seed
   [Mappings.victim] — second chance only during the first n
   examinations, no fallback. *)
let clock_mapping t v =
  let n = t.capacity in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < 2 * n do
    (match v.get t.hand with
    | Some m when v.candidate m ->
      if v.referenced m && !i < n then v.clear_referenced m else result := Some m
    | _ -> ());
    t.hand <- (t.hand + 1) mod n;
    incr i
  done;
  t.last_scan <- !i;
  !result

(* Strict LRU over sampled reference bits: every scan harvests the
   hardware touch record into per-slot tick stamps (clearing the bits,
   which the mapping view folds into [aged_referenced]), then evicts the
   stalest candidate. *)
let lru t v =
  let n = t.capacity in
  let best = ref None in
  let best_stamp = ref max_int in
  for s = 0 to n - 1 do
    match v.get s with
    | None -> ()
    | Some d ->
      if v.referenced d then begin
        t.refcnt.(s) <- t.refcnt.(s) + 1;
        t.stamp.(s) <- t.tick;
        v.clear_referenced d
      end;
      if v.candidate d && t.stamp.(s) < !best_stamp then begin
        best := Some d;
        best_stamp := t.stamp.(s)
      end
  done;
  t.tick <- t.tick + 1;
  t.last_scan <- n;
  !best

(* FIFO + second chance: pop load-order entries; a referenced candidate
   is cleared and re-queued once, a non-candidate is put back at the
   front in order, the chosen victim's entry stays at the head (it is
   invalidated by the unload's epoch bump, or rescanned if the caller
   could not unload it after all). *)
let fifo_select t v =
  let budget = 2 * max t.capacity t.fifo_len in
  let examined = ref 0 in
  let skipped = ref [] in
  let result = ref None in
  let fallback = ref None in
  let exhausted = ref false in
  while !result = None && (not !exhausted) && !examined < budget do
    match fifo_pop t with
    | None -> exhausted := true
    | Some (s, e) ->
      incr examined;
      if t.epoch.(s) = e then begin
        match v.get s with
        | None -> ()
        | Some d ->
          if not (v.candidate d) then skipped := (s, e) :: !skipped
          else begin
            if !fallback = None then fallback := Some d;
            if v.referenced d then begin
              v.clear_referenced d;
              t.epoch.(s) <- t.epoch.(s) + 1;
              fifo_push t (s, t.epoch.(s))
            end
            else result := Some (s, e, d)
          end
      end
  done;
  let front =
    match !result with Some (s, e, _) -> (s, e) :: t.fifo_front | None -> t.fifo_front
  in
  t.fifo_front <- List.rev_append !skipped front;
  t.fifo_len <-
    t.fifo_len + List.length !skipped + (match !result with Some _ -> 1 | None -> 0);
  t.tick <- t.tick + 1;
  t.last_scan <- !examined;
  match !result with Some (_, _, d) -> Some d | None -> !fallback

(* Learned: score every candidate with the perceptron, evict the argmax.
   Reference bits of non-victims are harvested (stamps, counts) and
   cleared; the victim's bit is left intact so the writeback record
   carries the genuine label {!train} consumes. *)
let learned_select t v =
  let n = t.capacity in
  let best = ref None in
  for s = 0 to n - 1 do
    match v.get s with
    | None -> ()
    | Some d ->
      let ref_now = v.referenced d in
      if v.candidate d then begin
        let x = feature_vec t ~slot:s ~ref_now in
        let score = dot t.weights x in
        match !best with
        | Some (bs, _, _, _) when bs >= score -> ()
        | _ -> best := Some (score, s, d, x)
      end;
      if ref_now then begin
        t.refcnt.(s) <- t.refcnt.(s) + 1;
        t.stamp.(s) <- t.tick
      end
  done;
  let vslot = match !best with Some (_, s, _, _) -> s | None -> -1 in
  for s = 0 to n - 1 do
    if s <> vslot then
      match v.get s with
      | Some d when v.referenced d -> v.clear_referenced d
      | _ -> ()
  done;
  t.tick <- t.tick + 1;
  t.last_scan <- n;
  match !best with
  | None -> None
  | Some (_, s, d, x) ->
    t.pending <- Some (s, x);
    Some d

let select_object t v =
  match t.active with
  | Clock -> clock_object t v
  | Lru -> lru t v
  | Fifo -> fifo_select t v
  | Learned -> learned_select t v

let select_mapping t v =
  match t.active with
  | Clock -> clock_mapping t v
  | Lru -> lru t v
  | Fifo -> fifo_select t v
  | Learned -> learned_select t v
