(* Replacement-policy tests.

   - qcheck equivalence: the one Clock scan behind {!Policy.select}
     reproduces both seed victim scans bit-for-bit — identical victim
     sequences, last_scan_length values and cache state on random
     load/touch/flag/unload/victim traces, against verbatim replicas of
     the object-cache scan (2n scan, unconditional second chance,
     first-candidate fallback) and the mapping-cache scan (second chance
     only during the first n examinations, no fallback, aged_referenced
     accumulation)
   - Clock's second lap: with every candidate referenced and the hand
     mid-array, both caches take the first candidate past the hand after
     n + offset + 1 slots; with no candidate, None after 2n slots
   - LRU ordering unit tests (mapping and object caches, protected
     candidates, storage grown past its first 64 slots), flag parsing,
     and the one config field reaching all four caches
   - end to end: LRU beats Clock in simulated us per access on a small
     skewed working set, the number that justifies keeping LRU
   - eviction-path regressions: unload_kernel_now busy-check ordering
     (S1), idempotent mapping removal under the re-entrant consistency
     cascade with exact counters (S2), and force_deschedule re-enqueueing
     the evicted thread so it stays dispatchable (S3) *)

open Cachekernel

let qcheck = QCheck_alcotest.to_alcotest

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

let small_config =
  {
    Config.default with
    Config.kernel_cache = 4;
    space_cache = 6;
    thread_cache = 8;
    mapping_cache = 16;
  }

let make ?(config = small_config) ?(cpus = 2) () =
  let inst =
    Instance.create ~config (Hw.Mpm.create ~node_id:0 ~cpus ~mem_size:(16 * 1024 * 1024) ())
  in
  let spec =
    {
      Kernel_obj.name = "first";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = Array.make cpus 100;
      max_priority = 31;
      max_locked = 6;
    }
  in
  let first = ok (Api.boot inst spec) in
  (inst, first)

let idle_body () = Hw.Exec.Unit_payload

(* -- Clock equivalence, object-cache semantics -- *)

(* A minimal descriptor for instantiating the cache functor in isolation. *)
module Tdesc = struct
  type t = {
    mutable oid : Oid.t;
    key : int;
    mutable locked : bool;
    mutable evictable : bool;
    mutable ru : bool;
  }

  let kind = Oid.Thread
  let get_oid d = d.oid
  let set_oid d oid = d.oid <- oid
  let locked d = d.locked
  let evictable d = d.evictable
  let recently_used d = d.ru
  let clear_recently_used d = d.ru <- false
end

module Tcache = Cache_slots.Make (Tdesc)

(* The seed object-cache victim scan, replicated verbatim over a parallel
   slot array: second chance over at most 2n slots, unconditional clearing
   of the referenced bit, first candidate kept as fallback. *)
module Obj_model = struct
  type d = { mutable locked : bool; mutable evictable : bool; mutable ru : bool }

  type t = {
    slots : d option array;
    mutable free : int list;
    mutable hand : int;
    mutable last_scan : int;
  }

  let create capacity =
    {
      slots = Array.make capacity None;
      free = List.init capacity Fun.id;
      hand = 0;
      last_scan = 0;
    }

  let load t d =
    match t.free with
    | [] -> None
    | slot :: rest ->
      t.free <- rest;
      t.slots.(slot) <- Some d;
      Some slot

  let unload t slot =
    t.slots.(slot) <- None;
    t.free <- slot :: t.free

  let victim t =
    let n = Array.length t.slots in
    let result = ref None in
    let fallback = ref None in
    let i = ref 0 in
    while !result = None && !i < 2 * n do
      (match t.slots.(t.hand) with
      | Some d when (not d.locked) && d.evictable ->
        if d.ru then d.ru <- false else result := Some t.hand;
        if !fallback = None then fallback := Some t.hand
      | _ -> ());
      t.hand <- (t.hand + 1) mod n;
      incr i
    done;
    t.last_scan <- !i;
    match !result with Some s -> Some s | None -> !fallback
end

let occupied_slots slots =
  let acc = ref [] in
  Array.iteri (fun i s -> if s <> None then acc := i :: !acc) slots;
  List.rev !acc

(* Interpret one random trace against both implementations, checking
   victim identity, scan length and the full per-slot state after every
   victim call. *)
let run_obj_trace capacity ops =
  let real = Tcache.create ~capacity () in
  let model = Obj_model.create capacity in
  let rdesc : Tdesc.t option array = Array.make capacity None in
  let roid : Oid.t array = Array.make capacity Oid.none in
  let keys = ref 0 in
  let pick slots a =
    match occupied_slots slots with
    | [] -> None
    | occ -> Some (List.nth occ (a mod List.length occ))
  in
  let check_state ctx =
    for s = 0 to capacity - 1 do
      match (model.Obj_model.slots.(s), rdesc.(s)) with
      | None, None -> ()
      | Some m, Some d ->
        if
          m.Obj_model.locked <> d.Tdesc.locked
          || m.Obj_model.evictable <> d.Tdesc.evictable
          || m.Obj_model.ru <> d.Tdesc.ru
        then Alcotest.failf "%s: slot %d flag divergence" ctx s
      | _ -> Alcotest.failf "%s: slot %d occupancy divergence" ctx s
    done
  in
  List.iter
    (fun (op, a) ->
      match op mod 5 with
      | 0 -> (
        (* load with pseudo-random initial flags *)
        let locked = a land 7 = 0 in
        let evictable = (a lsr 3) land 3 <> 0 in
        let ru = (a lsr 5) land 1 = 1 in
        incr keys;
        let d =
          { Tdesc.oid = Oid.none; key = !keys; locked; evictable; ru }
        in
        match Tcache.load real d with
        | None ->
          if Obj_model.load model { Obj_model.locked; evictable; ru } <> None then
            Alcotest.fail "model loaded where real cache was full"
        | Some oid -> (
          match Obj_model.load model { Obj_model.locked; evictable; ru } with
          | Some slot when slot = oid.Oid.slot ->
            rdesc.(slot) <- Some d;
            roid.(slot) <- oid
          | _ -> Alcotest.fail "free-list divergence on load"))
      | 1 -> (
        match pick model.Obj_model.slots a with
        | None -> ()
        | Some s ->
          (match model.Obj_model.slots.(s) with Some m -> m.Obj_model.ru <- true | None -> ());
          (match rdesc.(s) with Some d -> d.Tdesc.ru <- true | None -> ()))
      | 2 -> (
        match pick model.Obj_model.slots a with
        | None -> ()
        | Some s ->
          let locked = a land 1 = 1 and evictable = (a lsr 1) land 1 = 1 in
          (match model.Obj_model.slots.(s) with
          | Some m ->
            m.Obj_model.locked <- locked;
            m.Obj_model.evictable <- evictable
          | None -> ());
          (match rdesc.(s) with
          | Some d ->
            d.Tdesc.locked <- locked;
            d.Tdesc.evictable <- evictable
          | None -> ()))
      | 3 -> (
        match pick model.Obj_model.slots a with
        | None -> ()
        | Some s ->
          ignore (Tcache.unload real roid.(s));
          rdesc.(s) <- None;
          Obj_model.unload model s)
      | _ ->
        let rv = Tcache.victim real in
        let mv = Obj_model.victim model in
        let rslot = Option.map (fun d -> d.Tdesc.oid.Oid.slot) rv in
        Alcotest.(check (option int)) "victim slot" mv rslot;
        Alcotest.(check int) "scan length" model.Obj_model.last_scan
          (Tcache.last_scan_length real);
        check_state "post-victim")
    ops;
  ignore (Tcache.victim real);
  ignore (Obj_model.victim model);
  check_state "final";
  true

let obj_trace_equivalence =
  QCheck.Test.make ~count:300 ~name:"clock object-cache scan matches seed"
    QCheck.(list (pair (int_bound 4) (int_bound 4096)))
    (fun ops -> run_obj_trace 8 ops)

(* -- Clock equivalence, mapping-cache semantics -- *)

module Map_model = struct
  type d = { mutable ru : bool; mutable aged : bool }

  type t = {
    slots : d option array;
    mutable free : int list;
    mutable hand : int;
    mutable last_scan : int;
  }

  let create capacity =
    {
      slots = Array.make capacity None;
      free = List.init capacity Fun.id;
      hand = 0;
      last_scan = 0;
    }

  let load t =
    match t.free with
    | [] -> None
    | slot :: rest ->
      t.free <- rest;
      t.slots.(slot) <- Some { ru = false; aged = false };
      Some slot

  let unload t slot =
    t.slots.(slot) <- None;
    t.free <- slot :: t.free

  (* The seed mapping victim scan: second chance only while [i < n], no
     fallback, and the cleared bit folded into [aged]. *)
  let victim t ~protected =
    let n = Array.length t.slots in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < 2 * n do
      (match t.slots.(t.hand) with
      | Some d when not (protected t.hand) ->
        if d.ru && !i < n then begin
          d.ru <- false;
          d.aged <- true
        end
        else result := Some t.hand
      | _ -> ());
      t.hand <- (t.hand + 1) mod n;
      incr i
    done;
    t.last_scan <- !i;
    !result
end

let dummy_oid = Oid.v ~kind:Oid.Kernel ~slot:0 ~gen:0

let fresh_mapping t ~seq =
  let va = 0x40000000 + (seq * Hw.Addr.page_size) in
  let pte = Hw.Page_table.make_entry ~frame:(100 + seq) ~flags:Hw.Page_table.rw () in
  Mappings.insert t ~owner:dummy_oid ~space_slot:0 ~space:dummy_oid ~va ~pte
    ~signal_thread:None ~cow_dst:None ~locked:false

let run_map_trace capacity ops =
  let real = Mappings.create ~capacity () in
  let model = Map_model.create capacity in
  let rmap : Mappings.m option array = Array.make capacity None in
  let prot = Array.make capacity false in
  let seq = ref 0 in
  let pick a =
    match occupied_slots model.Map_model.slots with
    | [] -> None
    | occ -> Some (List.nth occ (a mod List.length occ))
  in
  let check_state ctx =
    for s = 0 to capacity - 1 do
      match (model.Map_model.slots.(s), rmap.(s)) with
      | None, None -> ()
      | Some m, Some r ->
        if
          m.Map_model.ru <> r.Mappings.pte.Hw.Page_table.referenced
          || m.Map_model.aged <> r.Mappings.aged_referenced
        then Alcotest.failf "%s: slot %d referenced/aged divergence" ctx s
      | _ -> Alcotest.failf "%s: slot %d occupancy divergence" ctx s
    done
  in
  List.iter
    (fun (op, a) ->
      match op with
      | 0 | 1 | 2 | 3 -> (
        incr seq;
        match fresh_mapping real ~seq:!seq with
        | None ->
          if Map_model.load model <> None then
            Alcotest.fail "model inserted where real cache was full"
        | Some m -> (
          match Map_model.load model with
          | Some slot when slot = m.Mappings.slot ->
            rmap.(slot) <- Some m;
            prot.(slot) <- false
          | _ -> Alcotest.fail "free-list divergence on insert"))
      | 4 -> (
        match pick a with
        | None -> ()
        | Some s ->
          (match model.Map_model.slots.(s) with
          | Some m -> m.Map_model.ru <- true
          | None -> ());
          (match rmap.(s) with
          | Some m -> m.Mappings.pte.Hw.Page_table.referenced <- true
          | None -> ()))
      | 5 -> (
        match pick a with None -> () | Some s -> prot.(s) <- a land 1 = 1)
      | 6 -> (
        match pick a with
        | None -> ()
        | Some s ->
          (match rmap.(s) with
          | Some m -> Mappings.remove real ~space_slot:0 m
          | None -> ());
          rmap.(s) <- None;
          Map_model.unload model s)
      | _ ->
        let rv = Mappings.victim real ~protected:(fun m -> prot.(m.Mappings.slot)) in
        let mv = Map_model.victim model ~protected:(fun s -> prot.(s)) in
        let rslot = Option.map (fun m -> m.Mappings.slot) rv in
        Alcotest.(check (option int)) "victim slot" mv rslot;
        Alcotest.(check int) "scan length" model.Map_model.last_scan
          (Mappings.last_scan_length real);
        check_state "post-victim")
    ops;
  check_state "final";
  true

(* Capacities above 64 make the real cache grow its storage (64 -> 128 ->
   256 -> capacity) mid-trace.  Inserts outweigh removals, so most traces
   fill the cache and the victim scans run over the grown and the
   not-yet-grown slots alike. *)
let map_trace_equivalence =
  let gen =
    QCheck.Gen.(
      oneofl [ 8; 100; 300 ] >>= fun capacity ->
      list_size (int_range capacity (4 * capacity)) (pair (int_bound 7) (int_bound 4096))
      >|= fun ops -> (capacity, ops))
  in
  QCheck.Test.make ~count:300 ~name:"clock mapping-cache scan matches seed"
    (QCheck.make ~print:QCheck.Print.(pair int (list (pair int int))) gen)
    (fun (capacity, ops) -> run_map_trace capacity ops)

(* -- Clock: the lap the seed fallback claimed -- *)

(* With every candidate referenced, the first lap clears each bit and the
   second takes the first candidate past the hand, after n + offset + 1
   examinations; the object caches' seed fallback (first candidate when
   all stay referenced) never had a case to serve.  Both caches are set
   up alike: n = 8, a first selection parks the hand at 4 by leaving
   only slot 3 a candidate, then slots 1 and 6 are the referenced
   candidates, so slot 6 (offset 2) is taken after 11 slots. *)
let n_clock = 8

let test_clock_object_second_lap () =
  let t = Tcache.create ~capacity:n_clock () in
  let ds =
    Array.init n_clock (fun key ->
        let d = { Tdesc.oid = Oid.none; key; locked = key <> 3; evictable = true; ru = false } in
        ignore (Option.get (Tcache.load t d));
        d)
  in
  Alcotest.(check (option int)) "the lone candidate" (Some 3)
    (Option.map (fun v -> v.Tdesc.key) (Tcache.victim t));
  Array.iter
    (fun d ->
      d.Tdesc.locked <- d.Tdesc.key <> 1 && d.Tdesc.key <> 6;
      d.Tdesc.ru <- true)
    ds;
  Alcotest.(check (option int)) "first candidate past the hand" (Some 6)
    (Option.map (fun v -> v.Tdesc.key) (Tcache.victim t));
  Alcotest.(check int) "n + offset + 1 slots" (n_clock + 2 + 1) (Tcache.last_scan_length t);
  Alcotest.(check bool) "the first lap cleared both candidates" false
    (ds.(1).Tdesc.ru || ds.(6).Tdesc.ru)

let test_clock_mapping_second_lap () =
  let t = Mappings.create ~capacity:n_clock () in
  let ms = Array.init n_clock (fun seq -> Option.get (fresh_mapping t ~seq)) in
  let only slots m = not (List.mem m.Mappings.slot slots) in
  Alcotest.(check (option int)) "the lone candidate" (Some 3)
    (Option.map (fun m -> m.Mappings.slot) (Mappings.victim t ~protected:(only [ 3 ])));
  Array.iter (fun m -> m.Mappings.pte.Hw.Page_table.referenced <- true) ms;
  Alcotest.(check (option int)) "first candidate past the hand" (Some 6)
    (Option.map (fun m -> m.Mappings.slot) (Mappings.victim t ~protected:(only [ 1; 6 ])));
  Alcotest.(check int) "n + offset + 1 slots" (n_clock + 2 + 1) (Mappings.last_scan_length t);
  List.iter
    (fun s ->
      Alcotest.(check bool) "bit aged into the writeback record" true
        (ms.(s).Mappings.aged_referenced && not ms.(s).Mappings.pte.Hw.Page_table.referenced))
    [ 1; 6 ]

let test_clock_no_candidate () =
  let t = Tcache.create ~capacity:n_clock () in
  for key = 0 to n_clock - 1 do
    ignore
      (Tcache.load t { Tdesc.oid = Oid.none; key; locked = true; evictable = true; ru = true })
  done;
  Alcotest.(check bool) "object cache: no victim" true (Tcache.victim t = None);
  Alcotest.(check int) "object cache: 2n slots" (2 * n_clock) (Tcache.last_scan_length t);
  let m = Mappings.create ~capacity:n_clock () in
  for seq = 0 to n_clock - 1 do
    ignore (fresh_mapping m ~seq)
  done;
  Alcotest.(check bool) "mapping cache: no victim" true
    (Mappings.victim m ~protected:(fun _ -> true) = None);
  Alcotest.(check int) "mapping cache: 2n slots" (2 * n_clock) (Mappings.last_scan_length m)

(* -- LRU ordering -- *)

let no_protect = fun (_ : Mappings.m) -> false

let test_lru_order () =
  let t = Mappings.create ~policy:Policy.Lru ~capacity:4 () in
  let insert seq = Option.get (fresh_mapping t ~seq) in
  let a = insert 0 and b = insert 1 and c = insert 2 and d = insert 3 in
  (* touching [a] re-stamps it on the next scan; [b] becomes stalest *)
  a.Mappings.pte.Hw.Page_table.referenced <- true;
  let v1 = Option.get (Mappings.victim t ~protected:no_protect) in
  Alcotest.(check int) "stalest untouched mapping evicted" b.Mappings.va v1.Mappings.va;
  Alcotest.(check int) "lru scans the whole cache" 4 (Mappings.last_scan_length t);
  Mappings.remove t ~space_slot:0 v1;
  let _e = insert 4 in
  a.Mappings.pte.Hw.Page_table.referenced <- true;
  let v2 = Option.get (Mappings.victim t ~protected:no_protect) in
  Alcotest.(check int) "recency order respected" c.Mappings.va v2.Mappings.va;
  Mappings.remove t ~space_slot:0 v2;
  let v3 = Option.get (Mappings.victim t ~protected:no_protect) in
  Alcotest.(check int) "next-stalest follows" d.Mappings.va v3.Mappings.va

(* Object-cache semantics under LRU: the stalest unlocked, evictable
   descriptor goes, and a touched one is re-stamped by the scan. *)
let test_lru_object_order () =
  let t = Tcache.create ~policy:Policy.Lru ~capacity:4 () in
  let load key =
    let d = { Tdesc.oid = Oid.none; key; locked = false; evictable = true; ru = false } in
    ignore (Option.get (Tcache.load t d));
    d
  in
  let a = load 0 and b = load 1 and c = load 2 and d = load 3 in
  a.Tdesc.ru <- true;
  b.Tdesc.locked <- true;
  let v1 = Option.get (Tcache.victim t) in
  Alcotest.(check int) "stalest candidate evicted, locked one skipped" 2 v1.Tdesc.key;
  Alcotest.(check bool) "scan cleared the touch bit" false a.Tdesc.ru;
  Alcotest.(check int) "lru scans the whole cache" 4 (Tcache.last_scan_length t);
  ignore (Tcache.unload t c.Tdesc.oid);
  d.Tdesc.evictable <- false;
  Alcotest.(check (option int)) "the only candidate left goes" (Some 0)
    (Option.map (fun v -> v.Tdesc.key) (Tcache.victim t));
  b.Tdesc.locked <- false;
  Alcotest.(check (option int)) "older unlocked descriptor goes first" (Some 1)
    (Option.map (fun v -> v.Tdesc.key) (Tcache.victim t))

(* Protected mappings are never chosen, however stale. *)
let test_lru_protected () =
  let t = Mappings.create ~policy:Policy.Lru ~capacity:4 () in
  let ms = List.init 4 (fun seq -> Option.get (fresh_mapping t ~seq)) in
  let oldest = List.hd ms in
  let v =
    Option.get (Mappings.victim t ~protected:(fun m -> m.Mappings.va = oldest.Mappings.va))
  in
  Alcotest.(check int) "next-stalest unprotected mapping" (List.nth ms 1).Mappings.va
    v.Mappings.va;
  Alcotest.(check bool) "nothing when every mapping is protected" true
    (Mappings.victim t ~protected:(fun _ -> true) = None)

(* The stamps grow with the slots actually loaded: past the first 64 the
   recency order still holds. *)
let test_lru_grown_storage () =
  let capacity = 200 in
  let t = Mappings.create ~policy:Policy.Lru ~capacity () in
  let ms = Array.init capacity (fun seq -> Option.get (fresh_mapping t ~seq)) in
  (* touch everything but slot 150: it becomes the stalest *)
  Array.iteri
    (fun i m -> if i <> 150 then m.Mappings.pte.Hw.Page_table.referenced <- true)
    ms;
  let v = Option.get (Mappings.victim t ~protected:no_protect) in
  Alcotest.(check int) "untouched slot past the first growth" ms.(150).Mappings.va
    v.Mappings.va;
  Alcotest.(check int) "scan covers the full capacity" capacity
    (Mappings.last_scan_length t)

let test_policy_flag_parse () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Policy.kind_name k ^ " round-trips")
        true
        (Policy.kind_of_string (Policy.kind_name k) = Ok k))
    [ Policy.Clock; Policy.Lru ];
  (match Policy.kind_of_string " LRU " with
  | Ok Policy.Lru -> ()
  | _ -> Alcotest.fail "lru should parse case-insensitively");
  List.iter
    (fun s ->
      match Policy.kind_of_string s with
      | Error msg ->
        let expected = "(expected one of clock, lru)" in
        let n = String.length expected and m = String.length msg in
        if m < n || String.sub msg (m - n) n <> expected then
          Alcotest.failf "error for %S should list exactly clock, lru: %s" s msg
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [ "fifo"; "learned"; "adaptive"; "random" ]

(* The one [Config.policy] field drives all four caches: under LRU every
   victim scan covers exactly the capacity, where Clock's scan of a cache
   with no unlocked candidate runs the hand twice round. *)
let test_config_reaches_every_cache () =
  let scans policy =
    let inst, _ = make ~config:{ small_config with Config.policy } () in
    ignore (Caches.Kernel_cache.victim inst.Instance.kernels);
    ignore (Caches.Space_cache.victim inst.Instance.spaces);
    ignore (Caches.Thread_cache.victim inst.Instance.threads);
    ignore (Mappings.victim inst.Instance.mappings ~protected:(fun _ -> true));
    [
      Caches.Kernel_cache.last_scan_length inst.Instance.kernels;
      Caches.Space_cache.last_scan_length inst.Instance.spaces;
      Caches.Thread_cache.last_scan_length inst.Instance.threads;
      Mappings.last_scan_length inst.Instance.mappings;
    ]
  in
  let caps = [ 4; 6; 8; 16 ] in
  Alcotest.(check (list int)) "lru scans" caps (scans Policy.Lru);
  Alcotest.(check (list int)) "clock scans" (List.map (fun n -> 2 * n) caps)
    (scans Policy.Clock)

(* -- Whole-instance churn under each policy -- *)

let policy_churn kind () =
  let config = { small_config with Config.policy = kind } in
  let inst, first = make ~config () in
  for i = 0 to 11 do
    match Api.load_space inst ~caller:first ~tag:(100 + i) () with
    | Error _ -> ()
    | Ok sp -> (
      match
        Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:(200 + i)
          ~start:(Thread_obj.Fresh idle_body) ()
      with
      | Error _ -> ()
      | Ok th ->
        for p = 0 to 3 do
          ignore
            (Api.load_mapping inst ~caller:first ~space:sp
               (Api.mapping
                  ~va:(0x40000000 + (p * Hw.Addr.page_size))
                  ~pfn:(64 + (i * 4) + p) ~signal_thread:th ()))
        done)
  done;
  let r = Audit.run inst in
  if not (Audit.clean r) then
    Alcotest.failf "churn under %s left violations: %a" (Policy.kind_name kind)
      (fun ppf -> Audit.pp_report ppf)
      r

(* -- End to end: LRU must pay for itself on the skewed working set -- *)

let test_lru_beats_clock_on_skew () =
  let us_per_access policy =
    (Workload.Sweeps.skew_point
       ~config:{ Config.default with Config.policy }
       ~capacity:64 ~hot:48 ~cold:12 ~passes:4 ())
      .Workload.Sweeps.skew_us_per_access
  in
  let clock = us_per_access Policy.Clock and lru = us_per_access Policy.Lru in
  if not (lru < clock) then
    Alcotest.failf "lru %.2f us/access, clock %.2f: lru must be cheaper" lru clock

(* -- S1: unload_kernel_now checks busy-ness before any writeback -- *)

let test_kernel_unload_busy_is_atomic () =
  let inst, first = make () in
  let spec =
    {
      Kernel_obj.name = "victim-kernel";
      handlers = Kernel_obj.null_handlers;
      cpu_percent = Array.make (Instance.n_cpus inst) 50;
      max_priority = 16;
      max_locked = 4;
    }
  in
  let k2 = ok (Api.load_kernel inst ~caller:first spec) in
  let sp_a = ok (Api.load_space inst ~caller:k2 ~tag:1 ()) in
  let sp_b = ok (Api.load_space inst ~caller:k2 ~tag:2 ()) in
  let th =
    ok
      (Api.load_thread inst ~caller:k2 ~space:sp_b ~priority:4 ~tag:3
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  (* the thread in sp_b is the one executing this very call *)
  inst.Instance.current_thread <- th;
  let kobj = Option.get (Instance.find_kernel inst k2) in
  (match Replacement.unload_kernel_now inst ~reason:Wb.Requested kobj with
  | `Busy -> ()
  | `Done -> Alcotest.fail "unload must report Busy while a thread is active");
  (* the seed wrote spaces back one by one before noticing the busy
     thread; Busy must now leave the kernel fully intact *)
  Alcotest.(check bool) "space A still loaded" true
    (Instance.find_space inst sp_a <> None);
  Alcotest.(check bool) "space B still loaded" true
    (Instance.find_space inst sp_b <> None);
  Alcotest.(check int) "no space writeback happened" 0
    inst.Instance.stats.Stats.spaces.Stats.unloads;
  Alcotest.(check int) "no thread writeback happened" 0
    inst.Instance.stats.Stats.threads.Stats.unloads;
  (* once the thread yields, the same unload goes through *)
  inst.Instance.current_thread <- Oid.none;
  (match Replacement.unload_kernel_now inst ~reason:Wb.Requested kobj with
  | `Done -> ()
  | `Busy -> Alcotest.fail "unload should succeed once no thread is active");
  Alcotest.(check bool) "space A unloaded" true (Instance.find_space inst sp_a = None);
  Alcotest.(check bool) "space B unloaded" true (Instance.find_space inst sp_b = None)

(* -- S2: idempotent mapping removal under the consistency cascade -- *)

let test_consistency_cascade_idempotent () =
  let inst, first = make () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let th =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:2
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  let page = Hw.Addr.page_size in
  let va1 = 0x40000000 and va2 = 0x40000000 + page and va3 = 0x40000000 + (2 * page) in
  (* three writable mappings of one physical page, inserted so the
     physical-to-virtual list visits the plain one (va3) last: unloading
     va1 cascades through va2, whose own cascade already removes va3 —
     the outer loop's second visit to va3 must be a no-op (the seed
     raised [Invalid_argument "Mappings.remove"] here) *)
  ok (Api.load_mapping inst ~caller:first ~space:sp (Api.mapping ~va:va3 ~pfn:64 ()));
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:va2 ~pfn:64 ~signal_thread:th ()));
  ok
    (Api.load_mapping inst ~caller:first ~space:sp
       (Api.mapping ~va:va1 ~pfn:64 ~signal_thread:th ()));
  let spobj = Option.get (Instance.find_space inst sp) in
  Alcotest.(check int) "three mappings live" 3 spobj.Space_obj.mapping_count;
  ok (Api.unload_mapping inst ~caller:first ~space:sp ~va:va1);
  Alcotest.(check int) "cascade removed all three" 0 (Mappings.live inst.Instance.mappings);
  (* counters are exact, not clamped-at-zero approximations *)
  Alcotest.(check int) "mapping_count exact" 0 spobj.Space_obj.mapping_count;
  Alcotest.(check bool) "consistency flushes recorded" true
    (inst.Instance.stats.Stats.consistency_flushes >= 2);
  let r = Audit.run inst in
  if not (Audit.clean r) then
    Alcotest.failf "cascade left violations: %a" (fun ppf -> Audit.pp_report ppf) r

(* -- S3: force_deschedule keeps the thread dispatchable -- *)

let test_force_deschedule_requeues () =
  let inst, first = make ~cpus:2 () in
  let sp = ok (Api.load_space inst ~caller:first ~tag:1 ()) in
  let th_oid =
    ok
      (Api.load_thread inst ~caller:first ~space:sp ~priority:4 ~tag:2
         ~start:(Thread_obj.Fresh idle_body) ())
  in
  let th = Option.get (Instance.find_thread inst th_oid) in
  let eligible _ _ = true in
  (* drain the queue entry the load pushed, then dispatch on CPU 1 *)
  (match Scheduler.pick inst.Instance.sched ~resolve:(Instance.resolve_ready inst) ~eligible with
  | Some (oid, _) when Oid.equal oid th_oid -> ()
  | _ -> Alcotest.fail "freshly loaded thread should be queued");
  th.Thread_obj.state <- Thread_obj.Running 1;
  inst.Instance.running.(1) <- th_oid;
  Replacement.force_deschedule inst th;
  Alcotest.(check bool) "CPU slot cleared" true (Oid.is_none inst.Instance.running.(1));
  (match th.Thread_obj.state with
  | Thread_obj.Ready -> ()
  | s -> Alcotest.failf "expected ready, got %a" Thread_obj.pp_run_state s);
  (* the fix: a descheduled thread is back on the ready queue — a bare
     state flip would leave it undispatchable *)
  match Scheduler.pick inst.Instance.sched ~resolve:(Instance.resolve_ready inst) ~eligible with
  | Some (oid, d) when Oid.equal oid th_oid && d == th -> ()
  | _ -> Alcotest.fail "descheduled thread is not dispatchable"

let () =
  Alcotest.run "policy"
    [
      ( "equivalence",
        [ qcheck obj_trace_equivalence; qcheck map_trace_equivalence ] );
      ( "clock",
        [
          Alcotest.test_case "object cache takes the first candidate on lap two" `Quick
            test_clock_object_second_lap;
          Alcotest.test_case "mapping cache takes the first candidate on lap two" `Quick
            test_clock_mapping_second_lap;
          Alcotest.test_case "no candidate: None after 2n slots" `Quick
            test_clock_no_candidate;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "lru" `Quick test_lru_order;
          Alcotest.test_case "lru object cache" `Quick test_lru_object_order;
          Alcotest.test_case "lru skips protected mappings" `Quick test_lru_protected;
          Alcotest.test_case "lru over grown storage" `Quick test_lru_grown_storage;
          Alcotest.test_case "flag parsing" `Quick test_policy_flag_parse;
          Alcotest.test_case "config policy reaches every cache" `Quick
            test_config_reaches_every_cache;
        ] );
      ( "churn",
        [
          Alcotest.test_case "clock churn" `Quick (policy_churn Policy.Clock);
          Alcotest.test_case "lru churn" `Quick (policy_churn Policy.Lru);
        ] );
      ( "end to end",
        [
          Alcotest.test_case "lru beats clock on the skewed set" `Quick
            test_lru_beats_clock_on_skew;
        ] );
      ( "eviction-path regressions",
        [
          Alcotest.test_case "kernel unload busy check is atomic" `Quick
            test_kernel_unload_busy_is_atomic;
          Alcotest.test_case "consistency cascade is idempotent" `Quick
            test_consistency_cascade_idempotent;
          Alcotest.test_case "force_deschedule requeues" `Quick
            test_force_deschedule_requeues;
        ] );
    ]
