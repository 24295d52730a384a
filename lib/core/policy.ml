(* Pluggable replacement policies (see policy.mli).

   The policy object owns everything the seed victim scans kept inline in
   the caches: the clock hand, the last-scan length, and — for LRU —
   per-slot recency stamps.  The caches report loads ({!on_load}) and
   delegate victim selection through a {!view} of their slot array, so
   the cache data structures themselves stay policy-free.

   Determinism: no wall clock and no randomness.  Time is a virtual tick
   advanced on loads and selections, so equal traces give equal victim
   sequences — the property the qcheck equivalence suite pins down for
   Clock against the seed implementation. *)

type kind = Clock | Lru

let kind_name = function Clock -> "clock" | Lru -> "lru"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "clock" -> Ok Clock
  | "lru" -> Ok Lru
  | other ->
    Error
      (Printf.sprintf "unknown replacement policy %S (expected one of %s)" other
         (String.concat ", " (List.map kind_name [ Clock; Lru ])))

type 'd view = {
  get : int -> 'd option;
  candidate : 'd -> bool;
  referenced : 'd -> bool;
  clear_referenced : 'd -> unit;
}

type t = {
  kind : kind;
  capacity : int;
  mutable hand : int; (* clock hand *)
  mutable last_scan : int;
  mutable tick : int; (* virtual time: advances on loads and selections *)
  mutable stamp : int array;
      (* per-slot last-known-use tick (LRU recency), grown on load to cover
         the slot (up to [capacity]) *)
}

let create ~capacity kind =
  if capacity <= 0 then invalid_arg "Policy.create: capacity must be positive";
  { kind; capacity; hand = 0; last_scan = 0; tick = 0; stamp = [||] }

let last_scan_length t = t.last_scan

(* -- Bookkeeping -- *)

(* Only loaded slots are ever indexed, so the stamps need to reach the
   highest slot loaded so far; they double, starting at 64. *)
let cover t slot =
  let len = Array.length t.stamp in
  if slot >= len then begin
    let stamp = Array.make (min t.capacity (max (slot + 1) (max 64 (2 * len)))) 0 in
    Array.blit t.stamp 0 stamp 0 len;
    t.stamp <- stamp
  end

let on_load t ~slot =
  match t.kind with
  | Clock -> () (* the hand is the clock's only state *)
  | Lru ->
    cover t slot;
    t.tick <- t.tick + 1;
    t.stamp.(slot) <- t.tick

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

let select_object t v = match t.kind with Clock -> clock_object t v | Lru -> lru t v
let select_mapping t v = match t.kind with Clock -> clock_mapping t v | Lru -> lru t v
